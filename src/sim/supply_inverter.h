// The supply-sensitive sense inverter (the paper's key element).
//
// Unlike the fixed-delay gates, this inverter's propagation delay is computed
// at event time from the instantaneous voltage of the noisy rail pair it is
// powered by: delay = alpha_power(v_rail(now), C_load). Its output is the DS
// node of Fig. 1. A larger C_load slows DS, raising the cell's failure
// threshold — the sensitivity knob of Fig. 4.
#pragma once

#include <vector>

#include "analog/rail.h"
#include "analog/supply_delay_model.h"
#include "sim/simulator.h"

namespace psnt::sim {

class SupplyInverter : public Component {
 public:
  struct Transition {
    Picoseconds input_time{0.0};
    Picoseconds delay{0.0};
    Volt supply{0.0};
    Logic output_value = Logic::X;
  };

  SupplyInverter(Simulator& sim, std::string name, Net& a, Net& y,
                 analog::AlphaPowerDelayModel model, analog::RailPair rails,
                 Picofarad c_load);

  [[nodiscard]] Picofarad c_load() const { return c_load_; }
  [[nodiscard]] const analog::AlphaPowerDelayModel& model() const {
    return model_;
  }
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

 private:
  void on_input(SimTime at);

  Net& a_;
  Net& y_;
  analog::AlphaPowerDelayModel model_;
  analog::RailPair rails_;
  Picofarad c_load_;
  std::vector<Transition> transitions_;
  // The per-transition log is kept only when the owning Simulator had
  // instrumentation on at construction; the structural engine turns it off
  // to keep the SENSE hot path allocation-free.
  bool record_transitions_;
};

}  // namespace psnt::sim
