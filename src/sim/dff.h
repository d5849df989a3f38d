// D flip-flop with real setup/metastability behaviour.
//
// This is the sensor's sampling element. On each rising clock edge the flop
// consults the analog FlipFlopTimingModel with the actual D arrival time, so
// a late DS transition produces exactly the paper's failure mode: the old
// value is retained (sense error) or — in the metastable band — the new value
// appears with a degraded clk-to-q. Hold violations drive Q to X.
#pragma once

#include <vector>

#include "analog/flipflop_model.h"
#include "sim/simulator.h"

namespace psnt::sim {

class DFlipFlop : public Component {
 public:
  struct EdgeRecord {
    Picoseconds edge_time{0.0};
    analog::SampleOutcome outcome;
    bool hold_violation = false;
  };

  DFlipFlop(Simulator& sim, std::string name, Net& d, Net& cp, Net& q,
            analog::FlipFlopTimingModel model);

  [[nodiscard]] const std::vector<EdgeRecord>& history() const {
    return history_;
  }
  [[nodiscard]] std::size_t setup_violations() const {
    return setup_violations_;
  }
  [[nodiscard]] std::size_t metastable_samples() const {
    return metastable_samples_;
  }
  [[nodiscard]] std::size_t hold_violations() const {
    return hold_violations_;
  }
  [[nodiscard]] const analog::FlipFlopTimingModel& model() const {
    return model_;
  }

  void clear_history() { history_.clear(); }

 private:
  void on_clock(Logic old_value, Logic new_value, SimTime at);
  void on_data(SimTime at);

  Net& d_;
  Net& q_;
  analog::FlipFlopTimingModel model_;
  SimTime d_last_change_;
  SimTime last_edge_;
  bool has_edge_ = false;
  // Per-edge EdgeRecords are retained only when the owning Simulator had
  // instrumentation on at construction (the violation / metastability
  // counters always count). The structural engine turns instrumentation off
  // so its steady state allocates nothing.
  bool history_enabled_;
  std::vector<EdgeRecord> history_;
  std::size_t setup_violations_ = 0;
  std::size_t metastable_samples_ = 0;
  std::size_t hold_violations_ = 0;
};

}  // namespace psnt::sim
