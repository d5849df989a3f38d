// Scalar root finding (Brent's method).
//
// Used to invert the analog models: given a cell's available timing window,
// solve for the supply voltage at which the inverter delay exactly consumes
// it (the cell threshold), and given a target threshold solve for the load
// capacitance that produces it.
#pragma once

#include <functional>
#include <optional>

namespace psnt::stats {

struct RootOptions {
  double x_tolerance = 1e-12;
  int max_iterations = 200;
};

// Root of f in [lo, hi] by Brent's method (bisection safety with
// inverse-quadratic speed); requires f(lo) and f(hi) to have opposite signs
// (or either to be exactly zero). Returns nullopt if the bracket is invalid.
[[nodiscard]] std::optional<double> brent(
    const std::function<double(double)>& f, double lo, double hi,
    RootOptions options = {});

}  // namespace psnt::stats
