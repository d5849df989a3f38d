#include "cut/activity.h"

#include "util/error.h"

namespace psnt::cut {

ActivityTrace::ActivityTrace(Picoseconds cycle, std::vector<double> factors)
    : cycle_(cycle), factors_(std::move(factors)) {
  PSNT_CHECK(cycle_.value() > 0.0, "cycle time must be positive");
  PSNT_CHECK(!factors_.empty(), "activity trace needs at least one cycle");
}

std::unique_ptr<psn::CurrentProfile> ActivityTrace::to_current(
    Ampere base, Ampere scale_per_unit_activity) const {
  std::vector<double> amps(factors_.size());
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    amps[i] = base.value() + scale_per_unit_activity.value() * factors_[i];
  }
  return std::make_unique<psn::TraceCurrent>(cycle_, std::move(amps));
}

ActivityTrace ActivityTrace::burst(Picoseconds cycle, std::size_t n,
                                   std::size_t period_cycles, double duty,
                                   double low, double high) {
  PSNT_CHECK(period_cycles > 0, "burst period must be positive");
  PSNT_CHECK(duty > 0.0 && duty < 1.0, "duty must be in (0,1)");
  std::vector<double> f(n, low);
  const auto on_cycles =
      static_cast<std::size_t>(duty * static_cast<double>(period_cycles));
  for (std::size_t i = 0; i < n; ++i) {
    if (i % period_cycles < on_cycles) f[i] = high;
  }
  return ActivityTrace{cycle, std::move(f)};
}

ActivityTrace PipelineCut::run(std::size_t cycles,
                               stats::Xoshiro256& rng) const {
  PSNT_CHECK(cycles > 0, "pipeline run needs at least one cycle");
  // Per-stage switching-energy weights (fetch..writeback). EX dominates.
  constexpr double kStageWeight[5] = {0.15, 0.12, 0.35, 0.25, 0.13};

  std::vector<double> f(cycles, 0.0);
  std::size_t stall_remaining = 0;   // whole-machine stall (miss)
  std::size_t flush_remaining = 0;   // bubble insertion after mispredict
  // Occupancy of the 5 stages: true = useful instruction, false = bubble.
  bool stage_busy[5] = {false, false, false, false, false};

  for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
    if (stall_remaining > 0) {
      // Machine frozen on a miss: only clock tree + a trickle of MEM activity.
      --stall_remaining;
      f[cyc] = 0.08;
      continue;
    }

    // Advance the pipe.
    for (int s = 4; s > 0; --s) stage_busy[s] = stage_busy[s - 1];
    if (flush_remaining > 0) {
      --flush_remaining;
      stage_busy[0] = false;  // fetch bubble
    } else {
      stage_busy[0] = true;  // issue a new instruction
      const double kind = rng.uniform01();
      if (kind < config_.branch_fraction) {
        if (rng.bernoulli(config_.mispredict_rate)) {
          flush_remaining = config_.flush_penalty;
        }
      } else if (kind < config_.branch_fraction + config_.mem_fraction) {
        if (rng.bernoulli(config_.miss_rate)) {
          stall_remaining = config_.miss_penalty;
        }
      }
    }

    double activity = 0.05;  // clock tree floor
    for (int s = 0; s < 5; ++s) {
      if (stage_busy[s]) activity += kStageWeight[s];
    }
    f[cyc] = activity;
  }
  return ActivityTrace{config_.cycle, std::move(f)};
}

}  // namespace psnt::cut
