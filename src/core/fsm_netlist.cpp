#include "core/fsm_netlist.h"

#include "sim/gates.h"
#include "util/error.h"

namespace psnt::core {

namespace {

// Enumerates the on-set of next-state bit `bit` over the 6-variable input
// space [q0, q1, q2, enable, configure, continuous] (LSB-first), using the
// shared behavioral transition function as the truth table.
std::vector<std::uint32_t> next_state_minterms(int bit) {
  std::vector<std::uint32_t> minterms;
  for (std::uint32_t m = 0; m < 64; ++m) {
    const auto state = static_cast<FsmState>(m & 0x7);
    const bool en = (m >> 3) & 1u;
    const bool cfg = (m >> 4) & 1u;
    const bool cont = (m >> 5) & 1u;
    const auto next = static_cast<std::uint32_t>(
        next_state(state, en, cfg, cont));
    if ((next >> bit) & 1u) minterms.push_back(m);
  }
  return minterms;
}

// On-set of a Moore output over the 3-variable state space.
std::vector<std::uint32_t> output_minterms(bool (*predicate)(FsmState)) {
  std::vector<std::uint32_t> minterms;
  for (std::uint32_t s = 0; s < 8; ++s) {
    if (predicate(static_cast<FsmState>(s))) minterms.push_back(s);
  }
  return minterms;
}

bool p_high(FsmState s) { return s != FsmState::kSenseHigh; }
bool cp_high(FsmState s) {
  return s == FsmState::kPrepareHigh || s == FsmState::kSenseHigh;
}
bool is_busy(FsmState s) {
  return s != FsmState::kReset && s != FsmState::kIdle;
}
bool is_capture(FsmState s) { return s == FsmState::kSenseHigh; }
bool is_init(FsmState s) { return s == FsmState::kInit; }

}  // namespace

StructuralControlFsm::StructuralControlFsm(sim::Simulator& sim,
                                           const std::string& name,
                                           analog::FlipFlopTimingModel ff_model,
                                           sim::SynthOptions synth) {
  clk_ = &sim.net(name + ".clk");
  enable_ = &sim.net(name + ".enable");
  configure_ = &sim.net(name + ".configure");
  continuous_ = &sim.net(name + ".continuous");
  for (std::size_t b = 0; b < 3; ++b) {
    ext_code_[b] = &sim.net(name + ".ext_code" + std::to_string(b));
    state_q_[b] = &sim.net(name + ".state_q" + std::to_string(b));
    code_q_[b] = &sim.net(name + ".code_q" + std::to_string(b));
  }

  // Power-on state: IDLE (the behavioral model's single RESET step), and a
  // defined code register so the very first INIT-less transaction is sane.
  const auto idle = static_cast<std::uint32_t>(FsmState::kIdle);
  for (std::size_t b = 0; b < 3; ++b) {
    sim.drive(*state_q_[b], Picoseconds{0.0},
              sim::from_bool((idle >> b) & 1u));
    sim.drive(*code_q_[b], Picoseconds{0.0}, sim::Logic::L0);
  }

  // Next-state logic: 6-input SOP per state bit.
  sim::SopSynthesizer ns_synth(
      sim, name + ".ns",
      {state_q_[0], state_q_[1], state_q_[2], enable_, configure_,
       continuous_},
      synth);
  for (int b = 0; b < 3; ++b) {
    sim::Net& d = ns_synth.synthesize("d" + std::to_string(b),
                                      next_state_minterms(b));
    sim.add<sim::DFlipFlop>(name + ".state_ff" + std::to_string(b), d, *clk_,
                            *state_q_[static_cast<std::size_t>(b)], ff_model);
  }
  gate_count_ += ns_synth.gates_built();

  // Moore output decode: 3-input SOPs of the state bits.
  sim::SopSynthesizer out_synth(sim, name + ".out",
                                {state_q_[0], state_q_[1], state_q_[2]},
                                synth);
  p_level_ = &out_synth.synthesize("p", output_minterms(&p_high));
  cp_level_ = &out_synth.synthesize("cp", output_minterms(&cp_high));
  busy_ = &out_synth.synthesize("busy", output_minterms(&is_busy));
  capture_sense_ =
      &out_synth.synthesize("capture", output_minterms(&is_capture));
  sim::Net& init_sig = out_synth.synthesize("init", output_minterms(&is_init));
  gate_count_ += out_synth.gates_built();

  // Delay-Code register: load ext_code while in INIT, hold otherwise.
  for (std::size_t b = 0; b < 3; ++b) {
    sim::Net& d = sim.net(name + ".code_d" + std::to_string(b));
    sim.add<sim::Mux2Gate>(name + ".code_mux" + std::to_string(b),
                           *code_q_[b], *ext_code_[b], init_sig, d,
                           Picoseconds{48.0});
    sim.add<sim::DFlipFlop>(name + ".code_ff" + std::to_string(b), d, *clk_,
                            *code_q_[b], ff_model);
    ++gate_count_;
  }
}

FsmState StructuralControlFsm::decoded_state() const {
  std::uint32_t value = 0;
  for (std::size_t b = 0; b < 3; ++b) {
    PSNT_CHECK(sim::is_known(state_q_[b]->value()),
               "state register holds X — netlist not initialised?");
    if (state_q_[b]->value() == sim::Logic::L1) value |= 1u << b;
  }
  return static_cast<FsmState>(value);
}

DelayCode StructuralControlFsm::decoded_code() const {
  std::uint8_t value = 0;
  for (std::size_t b = 0; b < 3; ++b) {
    if (code_q_[b]->value() == sim::Logic::L1) {
      value |= static_cast<std::uint8_t>(1u << b);
    }
  }
  return DelayCode{value};
}

}  // namespace psnt::core
