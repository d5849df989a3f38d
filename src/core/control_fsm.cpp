#include "core/control_fsm.h"

namespace psnt::core {

FsmOutputs ControlFsm::outputs_for(FsmState state, bool done) const {
  FsmOutputs out;
  out.active_code = code_;
  out.measure_done = done;
  switch (state) {
    case FsmState::kReset:
    case FsmState::kIdle:
      out.p_level = true;  // PREPARE conditions while parked
      out.cp_level = false;
      out.busy = false;
      break;
    case FsmState::kReady:
    case FsmState::kInit:
      out.p_level = true;
      out.cp_level = false;
      out.busy = true;
      break;
    case FsmState::kPrepareLow:
      out.p_level = true;   // DS forced low (P=1) — VDD-sense convention
      out.cp_level = false;
      out.busy = true;
      break;
    case FsmState::kPrepareHigh:
      out.p_level = true;
      out.cp_level = true;  // rising edge: FFs load the PREPARE value
      out.busy = true;
      break;
    case FsmState::kSenseLow:
      out.p_level = true;   // CP returns low; P still parked at PREPARE
      out.cp_level = false;
      out.busy = true;
      break;
    case FsmState::kSenseHigh:
      // P falls and the CP command rises off the same clock edge; the PG
      // turns the pair into edges skewed by insertion + tap, so the sampling
      // deadline trails the sense launch by only the programmed ps.
      out.p_level = false;
      out.cp_level = true;
      out.capture_sense = true;
      out.busy = true;
      break;
  }
  return out;
}

FsmState next_state(FsmState current, bool enable, bool configure,
                    bool continuous) {
  switch (current) {
    case FsmState::kReset:
      return FsmState::kIdle;
    case FsmState::kIdle:
      return enable ? FsmState::kReady : FsmState::kIdle;
    case FsmState::kReady:
      return configure ? FsmState::kInit : FsmState::kPrepareLow;
    case FsmState::kInit:
      return FsmState::kPrepareLow;
    case FsmState::kPrepareLow:
      return FsmState::kPrepareHigh;
    case FsmState::kPrepareHigh:
      return FsmState::kSenseLow;
    case FsmState::kSenseLow:
      return FsmState::kSenseHigh;
    case FsmState::kSenseHigh:
      return (continuous && enable) ? FsmState::kReady : FsmState::kIdle;
  }
  return FsmState::kReset;
}

bool ControlFsm::fast_transaction(DelayCode code) {
  if (state_ != FsmState::kIdle || !(code_ == code)) return false;
  state_ = FsmState::kSenseHigh;
  return true;
}

FsmOutputs ControlFsm::step(const FsmInputs& inputs) {
  bool done = false;
  if (state_ == FsmState::kInit) code_ = inputs.ext_code;
  if (state_ == FsmState::kSenseHigh) {
    ++measures_;
    done = true;
  }
  state_ = next_state(state_, inputs.enable, inputs.configure,
                      inputs.continuous);
  return outputs_for(state_, done);
}

}  // namespace psnt::core
