// Circuit-under-test activity models.
//
// The sensor measures noise *caused by* the CUT; to run closed-loop
// experiments we need plausible CUT current draw. An ActivityTrace is a
// per-clock-cycle switching-activity factor in [0, ~1.5]; rendered against a
// current scale it becomes the psn::TraceCurrent the PDN integrates.
//
// Generators cover the standard noise stimuli:
//   burst                    — di/dt events (first droop); at the PDN's
//                              resonant period, resonance excitation
//   PipelineCut              — a small in-order 5-stage pipeline executing a
//                              synthetic instruction mix (stalls, flushes),
//                              the "general digital architecture" the paper
//                              targets.
#pragma once

#include <memory>
#include <vector>

#include "psn/current_profile.h"
#include "stats/rng.h"
#include "util/units.h"

namespace psnt::cut {

class ActivityTrace {
 public:
  ActivityTrace(Picoseconds cycle, std::vector<double> factors);

  [[nodiscard]] Picoseconds cycle() const { return cycle_; }
  [[nodiscard]] std::size_t cycles() const { return factors_.size(); }
  [[nodiscard]] const std::vector<double>& factors() const { return factors_; }
  [[nodiscard]] Picoseconds duration() const {
    return cycle_ * static_cast<double>(factors_.size());
  }

  // Current = base + scale * activity, piecewise constant per cycle.
  [[nodiscard]] std::unique_ptr<psn::CurrentProfile> to_current(
      Ampere base, Ampere scale_per_unit_activity) const;

  // --- generators -----------------------------------------------------------
  static ActivityTrace burst(Picoseconds cycle, std::size_t n,
                             std::size_t period_cycles, double duty,
                             double low, double high);

 private:
  Picoseconds cycle_;
  std::vector<double> factors_;
};

// A 5-stage in-order pipeline running a synthetic instruction mix. Switching
// activity per cycle is the sum of the energy weights of the stages doing
// useful work; stalls and flush bubbles lower it, cache-miss bursts gate most
// of the machine. This produces realistic di/dt texture rather than
// synthetic square waves.
class PipelineCut {
 public:
  struct Config {
    Picoseconds cycle{1250.0};       // 800 MHz CUT clock
    double branch_fraction = 0.15;
    double mem_fraction = 0.30;
    double mispredict_rate = 0.08;   // per branch
    double miss_rate = 0.10;         // per memory op
    std::size_t miss_penalty = 12;   // stall cycles
    std::size_t flush_penalty = 3;
  };

  explicit PipelineCut(Config config) : config_(config) {}

  [[nodiscard]] const Config& config() const { return config_; }

  // Runs `cycles` pipeline cycles and returns the activity trace.
  [[nodiscard]] ActivityTrace run(std::size_t cycles,
                                  stats::Xoshiro256& rng) const;

 private:
  Config config_;
};

}  // namespace psnt::cut
