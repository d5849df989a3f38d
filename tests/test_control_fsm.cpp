#include "core/control_fsm.h"

#include <gtest/gtest.h>

#include <vector>

namespace psnt::core {
namespace {

FsmInputs enabled() {
  FsmInputs in;
  in.enable = true;
  return in;
}

TEST(ControlFsm, LeavesResetIntoIdle) {
  ControlFsm fsm;
  EXPECT_EQ(fsm.state(), FsmState::kReset);
  fsm.step(FsmInputs{});
  EXPECT_EQ(fsm.state(), FsmState::kIdle);
}

TEST(ControlFsm, StaysIdleWithoutEnable) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});
  for (int i = 0; i < 5; ++i) {
    const auto out = fsm.step(FsmInputs{});
    EXPECT_EQ(fsm.state(), FsmState::kIdle);
    EXPECT_FALSE(out.busy);
    EXPECT_TRUE(out.p_level);    // parked at PREPARE conditions
    EXPECT_FALSE(out.cp_level);
  }
}

TEST(ControlFsm, FullTransactionSequence) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});  // RESET → IDLE
  const FsmState expected[] = {FsmState::kReady, FsmState::kPrepareLow,
                               FsmState::kPrepareHigh, FsmState::kSenseLow,
                               FsmState::kSenseHigh, FsmState::kIdle};
  for (FsmState s : expected) {
    fsm.step(enabled());
    EXPECT_EQ(fsm.state(), s);
  }
  EXPECT_EQ(fsm.completed_measures(), 1u);
}

TEST(ControlFsm, OutputLevelsPerPhase) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});
  std::vector<std::pair<bool, bool>> p_cp;  // (p, cp) per state
  for (int i = 0; i < 5; ++i) {
    const auto out = fsm.step(enabled());
    p_cp.emplace_back(out.p_level, out.cp_level);
  }
  // READY, S_PRP0, S_PRP, S_SNS0, S_SNS
  EXPECT_EQ(p_cp[0], std::make_pair(true, false));
  EXPECT_EQ(p_cp[1], std::make_pair(true, false));   // CP low, P prepare
  EXPECT_EQ(p_cp[2], std::make_pair(true, true));    // PREPARE capture edge
  EXPECT_EQ(p_cp[3], std::make_pair(true, false));   // CP returns low
  EXPECT_EQ(p_cp[4], std::make_pair(false, true));   // P drops + CP rises
}

TEST(ControlFsm, CaptureSenseOnlyInSenseHigh) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(fsm.step(enabled()).capture_sense);
  }
  EXPECT_TRUE(fsm.step(enabled()).capture_sense);
}

TEST(ControlFsm, DonePulsesAfterSense) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(fsm.step(enabled()).measure_done);
  }
  EXPECT_TRUE(fsm.step(enabled()).measure_done);
}

TEST(ControlFsm, ConfigureLoadsExternalCode) {
  ControlFsm fsm{DelayCode{3}};
  fsm.step(FsmInputs{});
  FsmInputs in = enabled();
  in.configure = true;
  in.ext_code = DelayCode{5};
  fsm.step(in);  // IDLE → READY
  EXPECT_EQ(fsm.active_code(), DelayCode{3});
  fsm.step(in);  // READY → INIT
  EXPECT_EQ(fsm.state(), FsmState::kInit);
  fsm.step(in);  // INIT → S_PRP0 (code latched)
  EXPECT_EQ(fsm.active_code(), DelayCode{5});
  EXPECT_EQ(fsm.state(), FsmState::kPrepareLow);
}

TEST(ControlFsm, NoConfigureSkipsInit) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});
  fsm.step(enabled());  // IDLE → READY
  fsm.step(enabled());  // READY → S_PRP0 directly
  EXPECT_EQ(fsm.state(), FsmState::kPrepareLow);
}

TEST(ControlFsm, ContinuousModeLoopsThroughReady) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});
  FsmInputs in = enabled();
  in.continuous = true;
  // Run three back-to-back measures.
  std::size_t dones = 0;
  for (int i = 0; i < 18; ++i) {
    if (fsm.step(in).measure_done) ++dones;
    EXPECT_NE(fsm.state(), FsmState::kIdle);
  }
  EXPECT_EQ(dones, 3u);
  EXPECT_EQ(fsm.completed_measures(), 3u);
}

TEST(ControlFsm, ContinuousStopsWhenEnableDrops) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});
  FsmInputs in = enabled();
  in.continuous = true;
  for (int i = 0; i < 5; ++i) fsm.step(in);  // up to S_SNS
  in.enable = false;
  fsm.step(in);  // completes the measure, returns to IDLE
  EXPECT_EQ(fsm.state(), FsmState::kIdle);
}

TEST(ControlFsm, BusyFlagTracksTransaction) {
  ControlFsm fsm;
  fsm.step(FsmInputs{});
  EXPECT_FALSE(fsm.step(FsmInputs{}).busy);  // idle
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fsm.step(enabled()).busy);
  }
}

}  // namespace
}  // namespace psnt::core
