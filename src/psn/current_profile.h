// Load-current profiles: what the CUT draws from the power grid.
//
// The PDN solver integrates di/dt against these: steps and square waves for
// the droop and resonance stimuli, per-cycle traces for CUT activity.
#pragma once

#include <vector>

#include "stats/rng.h"
#include "util/units.h"

namespace psnt::psn {

class CurrentProfile {
 public:
  virtual ~CurrentProfile() = default;
  [[nodiscard]] virtual Ampere at(Picoseconds t) const = 0;
};

class ConstantCurrent final : public CurrentProfile {
 public:
  explicit ConstantCurrent(Ampere i) : i_(i) {}
  [[nodiscard]] Ampere at(Picoseconds) const override { return i_; }

 private:
  Ampere i_;
};

// Step from i_before to i_after at t_step, with a linear ramp of `rise`
// (0 → ideal step). The classic first-droop stimulus.
class StepCurrent final : public CurrentProfile {
 public:
  StepCurrent(Ampere i_before, Ampere i_after, Picoseconds t_step,
              Picoseconds rise = Picoseconds{0.0});
  [[nodiscard]] Ampere at(Picoseconds t) const override;

 private:
  Ampere i_before_;
  Ampere i_after_;
  Picoseconds t_step_;
  Picoseconds rise_;
};

// Square wave between i_low / i_high: period, duty, first rising at t0.
// Sweeping its frequency across the PDN resonance is the resonance stimulus.
class SquareWaveCurrent final : public CurrentProfile {
 public:
  SquareWaveCurrent(Ampere i_low, Ampere i_high, Picoseconds period,
                    double duty, Picoseconds t0 = Picoseconds{0.0});
  [[nodiscard]] Ampere at(Picoseconds t) const override;

 private:
  Ampere i_low_;
  Ampere i_high_;
  Picoseconds period_;
  double duty_;
  Picoseconds t0_;
};

// Piecewise-constant per-cycle current trace (the cut:: activity models
// render into this).
class TraceCurrent final : public CurrentProfile {
 public:
  TraceCurrent(Picoseconds cycle, std::vector<double> amps_per_cycle);
  [[nodiscard]] Ampere at(Picoseconds t) const override;
  [[nodiscard]] std::size_t cycles() const { return amps_.size(); }

 private:
  Picoseconds cycle_;
  std::vector<double> amps_;
};

}  // namespace psnt::psn
