// Control block FSM (CNTR, Fig. 8) — cycle-accurate behavioral model.
//
// The controller sequences the PREPARE / SENSE protocol at the CUT system
// clock, drives the P level and the CP pulse commands toward the PG, latches
// the encoder output after every SENSE edge, and accepts configuration
// (external Delay Code or an internal policy) between measures.
//
// State flow, following the paper's description of Fig. 8:
//
//   RESET → IDLE ──enable──→ READY ──configure──→ INIT ─┐
//                              │ └──────────────────────┘
//                              ▼
//              S_PRP0 (CP low, P=1)  →  S_PRP (CP rises: FFs load PREPARE)
//                              ▼
//              S_SNS0 (CP returns low, P still at PREPARE)
//                              ▼
//              S_SNS  (P drops and CP rises off the same edge; the PG skews
//                      CP by insertion+tap ps: FFs sample DS)
//                              → capture → READY or IDLE
//
// Each visit to S_SNS completes one measure; `continuous` mode loops back to
// S_PRP0 so measures iterate across the CUT transient, as Sec. III-B
// requires.
#pragma once

#include <cstdint>

#include "core/measurement.h"

namespace psnt::core {

enum class FsmState : std::uint8_t {
  kReset,
  kIdle,
  kReady,
  kInit,
  kPrepareLow,   // S_PRP0: CP negative edge
  kPrepareHigh,  // S_PRP : CP positive edge with P=1
  kSenseLow,     // S_SNS0: CP negative edge (P still at the PREPARE level)
  kSenseHigh,    // S_SNS : P drops and CP rises — the measurement instant
};

struct FsmInputs {
  bool enable = false;       // external measure-enable
  bool configure = false;    // load a new delay code before the next measure
  DelayCode ext_code;        // code to load when configure is set
  bool continuous = false;   // keep iterating measures while enable is high
};

// Pure combinational next-state function shared by the behavioral model and
// the gate-level synthesis (core/fsm_netlist): single source of truth for
// the Fig. 8 flow diagram.
[[nodiscard]] FsmState next_state(FsmState current, bool enable,
                                  bool configure, bool continuous);

struct FsmOutputs {
  bool p_level = true;       // P command toward the PG (PREPARE idles at 1)
  bool cp_level = false;     // CP command toward the PG
  bool capture_sense = false;  // pulses on the cycle whose CP edge samples DS
  bool busy = false;
  bool measure_done = false;   // pulses one cycle after each SENSE edge
  DelayCode active_code;
};

class ControlFsm {
 public:
  ControlFsm() = default;
  explicit ControlFsm(DelayCode initial_code) : code_(initial_code) {}

  [[nodiscard]] FsmState state() const { return state_; }
  [[nodiscard]] DelayCode active_code() const { return code_; }
  [[nodiscard]] std::uint64_t completed_measures() const { return measures_; }

  // Advances one control-clock cycle and returns the Moore outputs for the
  // *new* state.
  FsmOutputs step(const FsmInputs& inputs);

  // Steady-state shortcut for the engine hot path: from IDLE with `code`
  // already active, the Fig. 8 walk to the SENSE edge is fixed
  // (READY → S_PRP0 → S_PRP → S_SNS0 → S_SNS, five cycles, no configure
  // detour), so the FSM can take it in one call — the state lands in S_SNS
  // exactly as five step() calls would leave it, and the caller still
  // retires the done cycle with a normal step() (which counts the measure).
  // Returns false, touching nothing, whenever the walk would NOT be the
  // fixed one (not parked in IDLE, or a different code): the caller must
  // then step() through the transaction as usual.
  [[nodiscard]] bool fast_transaction(DelayCode code);

 private:
  [[nodiscard]] FsmOutputs outputs_for(FsmState state, bool done) const;

  FsmState state_ = FsmState::kReset;
  DelayCode code_{DelayCode{3}};  // paper's running example: 011
  std::uint64_t measures_ = 0;
};

}  // namespace psnt::core
