#include "psn/current_profile.h"

#include <cmath>

#include "util/error.h"

namespace psnt::psn {

StepCurrent::StepCurrent(Ampere i_before, Ampere i_after, Picoseconds t_step,
                         Picoseconds rise)
    : i_before_(i_before), i_after_(i_after), t_step_(t_step), rise_(rise) {
  PSNT_CHECK(rise_.value() >= 0.0, "step rise time must be non-negative");
}

Ampere StepCurrent::at(Picoseconds t) const {
  if (t < t_step_) return i_before_;
  if (rise_.value() <= 0.0 || t >= t_step_ + rise_) return i_after_;
  const double frac = (t - t_step_).value() / rise_.value();
  return Ampere{i_before_.value() +
                frac * (i_after_.value() - i_before_.value())};
}

SquareWaveCurrent::SquareWaveCurrent(Ampere i_low, Ampere i_high,
                                     Picoseconds period, double duty,
                                     Picoseconds t0)
    : i_low_(i_low), i_high_(i_high), period_(period), duty_(duty), t0_(t0) {
  PSNT_CHECK(period_.value() > 0.0, "square wave period must be positive");
  PSNT_CHECK(duty_ > 0.0 && duty_ < 1.0, "duty must be in (0,1)");
}

Ampere SquareWaveCurrent::at(Picoseconds t) const {
  if (t < t0_) return i_low_;
  const double phase =
      std::fmod((t - t0_).value(), period_.value()) / period_.value();
  return phase < duty_ ? i_high_ : i_low_;
}

TraceCurrent::TraceCurrent(Picoseconds cycle, std::vector<double> amps_per_cycle)
    : cycle_(cycle), amps_(std::move(amps_per_cycle)) {
  PSNT_CHECK(cycle_.value() > 0.0, "cycle time must be positive");
  PSNT_CHECK(!amps_.empty(), "trace needs at least one cycle");
}

Ampere TraceCurrent::at(Picoseconds t) const {
  if (t.value() <= 0.0) return Ampere{amps_.front()};
  auto idx = static_cast<std::size_t>(t.value() / cycle_.value());
  if (idx >= amps_.size()) idx = amps_.size() - 1;
  return Ampere{amps_[idx]};
}

}  // namespace psnt::psn
