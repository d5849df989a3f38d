#include "analog/supply_delay_model.h"

#include <cmath>
#include <limits>

#include "stats/root_find.h"
#include "util/error.h"

namespace psnt::analog {

namespace {
// A delay this large means "the cell effectively never switches"; finite so
// arithmetic downstream stays well-defined.
constexpr double kNeverSwitchesPs = 1e12;
}  // namespace

bool AlphaPowerParams::valid() const {
  return drive_k_pf_per_ps > 0.0 && alpha > 0.5 && alpha < 3.0 &&
         v_threshold.value() > 0.0 && v_threshold.value() < 1.0 &&
         c_intrinsic.value() >= 0.0;
}

AlphaPowerDelayModel::AlphaPowerDelayModel(AlphaPowerParams params)
    : params_(params) {
  PSNT_CHECK(params_.valid(), "alpha-power parameters out of physical range");
}

Picoseconds AlphaPowerDelayModel::delay(Volt v_supply,
                                        Picofarad c_load) const {
  PSNT_CHECK(c_load.value() >= 0.0, "negative load capacitance");
  const double overdrive = v_supply.value() - params_.v_threshold.value();
  if (overdrive <= 1e-9) return Picoseconds{kNeverSwitchesPs};
  const double c_total = c_load.value() + params_.c_intrinsic.value();
  const double i_drive =
      params_.drive_k_pf_per_ps * std::pow(overdrive, params_.alpha);
  return Picoseconds{c_total * v_supply.value() / i_drive};
}

std::optional<Volt> AlphaPowerDelayModel::threshold_supply(
    Picofarad c_load, Picoseconds budget, Volt v_max) const {
  if (budget.value() <= 0.0) return std::nullopt;
  // delay is strictly decreasing in V above v_threshold for alpha > 1 within
  // our operating region, so bracket between just-above-threshold and v_max.
  const double v_lo = params_.v_threshold.value() + 1e-6;
  const double v_hi = v_max.value();
  if (v_hi <= v_lo) return std::nullopt;
  auto residual = [&](double v) {
    return delay(Volt{v}, c_load).value() - budget.value();
  };
  // Fast path: if even v_max is too slow, no threshold exists below v_max.
  if (residual(v_hi) > 0.0) return std::nullopt;
  // If just above device threshold the cell already meets the budget the
  // sensor cell can never fail in-range; report that as "no threshold".
  if (residual(v_lo) < 0.0) return std::nullopt;
  const auto root = stats::brent(residual, v_lo, v_hi);
  if (!root) return std::nullopt;
  return Volt{*root};
}

std::optional<Picofarad> AlphaPowerDelayModel::load_for_budget(
    Volt v_supply, Picoseconds budget) const {
  const double overdrive = v_supply.value() - params_.v_threshold.value();
  if (overdrive <= 1e-9 || budget.value() <= 0.0) return std::nullopt;
  const double i_drive =
      params_.drive_k_pf_per_ps * std::pow(overdrive, params_.alpha);
  const double c_total = budget.value() * i_drive / v_supply.value();
  const double c_ext = c_total - params_.c_intrinsic.value();
  if (c_ext < 0.0) return std::nullopt;
  return Picofarad{c_ext};
}

AlphaPowerDelayModel AlphaPowerDelayModel::with_drive_scaled(
    double factor) const {
  PSNT_CHECK(factor > 0.0, "drive scale factor must be positive");
  AlphaPowerParams p = params_;
  p.drive_k_pf_per_ps *= factor;
  return AlphaPowerDelayModel{p};
}

AlphaPowerDelayModel AlphaPowerDelayModel::with_vth_shifted(Volt delta) const {
  AlphaPowerParams p = params_;
  p.v_threshold = p.v_threshold + delta;
  return AlphaPowerDelayModel{p};
}

}  // namespace psnt::analog
