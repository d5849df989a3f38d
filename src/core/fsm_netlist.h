// Gate-level (synthesized) implementation of the control FSM.
//
// The behavioral ControlFsm is the specification; this module *synthesizes*
// it into real gates inside the event simulator — state register (3 DFFs),
// two-level next-state logic generated from the shared next_state() truth
// table, Moore output decode, and the 3-bit Delay-Code register with its
// INIT-gated load mux. The equivalence property test (tests/) clocks both
// implementations with random input sequences and requires identical state
// trajectories, outputs and code loads — the closest a simulator gets to
// formally checking that "the netlist implements Fig. 8".
#pragma once

#include <array>

#include "analog/flipflop_model.h"
#include "core/control_fsm.h"
#include "sim/dff.h"
#include "sim/simulator.h"
#include "sim/synth.h"

namespace psnt::core {

class StructuralControlFsm {
 public:
  StructuralControlFsm(sim::Simulator& sim, const std::string& name,
                       analog::FlipFlopTimingModel ff_model = {},
                       sim::SynthOptions synth = {});

  // External pins.
  [[nodiscard]] sim::Net& clk() { return *clk_; }
  [[nodiscard]] sim::Net& enable() { return *enable_; }
  [[nodiscard]] sim::Net& configure() { return *configure_; }
  [[nodiscard]] sim::Net& continuous() { return *continuous_; }
  [[nodiscard]] sim::Net& ext_code(std::size_t bit) {
    return *ext_code_.at(bit);
  }

  // Moore outputs (decoded from the state register).
  [[nodiscard]] sim::Net& p_level() { return *p_level_; }
  [[nodiscard]] sim::Net& cp_level() { return *cp_level_; }
  [[nodiscard]] sim::Net& busy() { return *busy_; }
  [[nodiscard]] sim::Net& capture_sense() { return *capture_sense_; }

  // Live Delay-Code register outputs. These are the Q nets of the code
  // register, so routing them into the PG MUX select pins makes the tap
  // selection follow INIT-loaded codes at gate level (no rebuild needed).
  [[nodiscard]] sim::Net& code_q(std::size_t bit) { return *code_q_.at(bit); }

  // Observability for verification.
  [[nodiscard]] FsmState decoded_state() const;
  [[nodiscard]] std::size_t synthesized_gates() const { return gate_count_; }

 private:
  std::array<sim::Net*, 3> state_q_{};
  std::array<sim::Net*, 3> code_q_{};
  sim::Net* clk_ = nullptr;
  sim::Net* enable_ = nullptr;
  sim::Net* configure_ = nullptr;
  sim::Net* continuous_ = nullptr;
  std::array<sim::Net*, 3> ext_code_{};
  sim::Net* p_level_ = nullptr;
  sim::Net* cp_level_ = nullptr;
  sim::Net* busy_ = nullptr;
  sim::Net* capture_sense_ = nullptr;
  std::size_t gate_count_ = 0;
};

}  // namespace psnt::core
