// Gate-level FSM vs behavioral specification: equivalence by simulation.
#include "core/fsm_netlist.h"

#include <gtest/gtest.h>

#include "sim/probe.h"
#include "stats/rng.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

constexpr double kPeriodPs = 1250.0;

struct Rig {
  sim::Simulator sim;
  StructuralControlFsm fsm{sim, "cntr"};
  double t = 0.0;

  // Applies inputs mid-low-phase, then produces one rising clock edge and
  // lets the netlist settle.
  void cycle(bool en, bool cfg, bool cont, std::uint8_t code = 0) {
    sim.drive(fsm.enable(), Picoseconds{t + 100.0}, sim::from_bool(en));
    sim.drive(fsm.configure(), Picoseconds{t + 100.0}, sim::from_bool(cfg));
    sim.drive(fsm.continuous(), Picoseconds{t + 100.0}, sim::from_bool(cont));
    for (std::size_t b = 0; b < 3; ++b) {
      sim.drive(fsm.ext_code(b), Picoseconds{t + 100.0},
                sim::from_bool((code >> b) & 1u));
    }
    sim.drive(fsm.clk(), Picoseconds{t + kPeriodPs / 2.0}, sim::Logic::L1);
    sim.drive(fsm.clk(), Picoseconds{t + kPeriodPs}, sim::Logic::L0);
    sim.run_until(Picoseconds{t + kPeriodPs});
    t += kPeriodPs;
  }

  Rig() {
    // Park the clock low and let power-on values propagate.
    sim.drive(fsm.clk(), 0.0_ps, sim::Logic::L0);
    sim.drive(fsm.enable(), 0.0_ps, sim::Logic::L0);
    sim.drive(fsm.configure(), 0.0_ps, sim::Logic::L0);
    sim.drive(fsm.continuous(), 0.0_ps, sim::Logic::L0);
    for (std::size_t b = 0; b < 3; ++b) {
      sim.drive(fsm.ext_code(b), 0.0_ps, sim::Logic::L0);
    }
    sim.run_until(Picoseconds{500.0});
    t = 1000.0;
  }
};

TEST(FsmNetlist, PowersUpInIdle) {
  Rig rig;
  EXPECT_EQ(rig.fsm.decoded_state(), FsmState::kIdle);
  EXPECT_EQ(rig.fsm.decoded_code(), DelayCode{0});
}

TEST(FsmNetlist, SynthesisProducedRealGates) {
  // Minimized covers: next state 6 inverters + 38 AND2/OR2, Moore decode
  // 3 inverters + 8, plus the 3 code-register MUXes. Deterministic.
  Rig rig;
  EXPECT_GT(rig.fsm.synthesized_gates(), 0u);
  EXPECT_EQ(rig.fsm.synthesized_gates(), 58u);
}

TEST(FsmNetlist, WalksOneFullTransaction) {
  Rig rig;
  const FsmState expected[] = {FsmState::kReady, FsmState::kPrepareLow,
                               FsmState::kPrepareHigh, FsmState::kSenseLow,
                               FsmState::kSenseHigh, FsmState::kIdle};
  for (const FsmState s : expected) {
    rig.cycle(true, false, false);
    EXPECT_EQ(rig.fsm.decoded_state(), s);
  }
}

TEST(FsmNetlist, MooreOutputsMatchDecode) {
  Rig rig;
  for (int i = 0; i < 6; ++i) {
    rig.cycle(true, false, false);
    const FsmState s = rig.fsm.decoded_state();
    EXPECT_EQ(rig.fsm.p_level().value(),
              sim::from_bool(s != FsmState::kSenseHigh))
        << to_string(s);
    EXPECT_EQ(rig.fsm.cp_level().value(),
              sim::from_bool(s == FsmState::kPrepareHigh ||
                             s == FsmState::kSenseHigh))
        << to_string(s);
    EXPECT_EQ(rig.fsm.capture_sense().value(),
              sim::from_bool(s == FsmState::kSenseHigh))
        << to_string(s);
  }
}

TEST(FsmNetlist, LoadsExtCodeInInit) {
  Rig rig;
  rig.cycle(true, true, false, 5);   // IDLE → READY
  rig.cycle(true, true, false, 5);   // READY → INIT
  EXPECT_EQ(rig.fsm.decoded_state(), FsmState::kInit);
  rig.cycle(true, false, false, 5);  // INIT → S_PRP0, code latched
  EXPECT_EQ(rig.fsm.decoded_code(), DelayCode{5});
  // The code holds afterwards even with ext_code changing.
  rig.cycle(true, false, false, 2);
  EXPECT_EQ(rig.fsm.decoded_code(), DelayCode{5});
}

TEST(FsmNetlist, ContinuousModeSkipsIdle) {
  Rig rig;
  rig.cycle(true, false, true);  // → READY
  for (int cycle = 0; cycle < 15; ++cycle) {
    rig.cycle(true, false, true);
    EXPECT_NE(rig.fsm.decoded_state(), FsmState::kIdle);
  }
}

// The headline property: random stimulus, cycle-exact agreement with the
// behavioral specification for state, outputs and code register.
class FsmEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsmEquivalence, RandomStimulusTrajectoriesMatch) {
  stats::Xoshiro256 rng(GetParam());
  Rig rig;
  // The netlist powers up with a zeroed code register; match the spec.
  ControlFsm spec{DelayCode{0}};  // starts in RESET
  spec.step(FsmInputs{});         // → IDLE, matching the netlist's power-on

  for (int cycle = 0; cycle < 120; ++cycle) {
    FsmInputs in;
    in.enable = rng.bernoulli(0.7);
    in.configure = rng.bernoulli(0.3);
    in.continuous = rng.bernoulli(0.4);
    in.ext_code = DelayCode{static_cast<std::uint8_t>(rng.uniform_index(8))};

    const FsmOutputs expected = spec.step(in);
    rig.cycle(in.enable, in.configure, in.continuous, in.ext_code.value());

    ASSERT_EQ(rig.fsm.decoded_state(), spec.state()) << "cycle " << cycle;
    EXPECT_EQ(rig.fsm.decoded_code(), spec.active_code()) << "cycle " << cycle;
    EXPECT_EQ(rig.fsm.p_level().value(), sim::from_bool(expected.p_level))
        << "cycle " << cycle;
    EXPECT_EQ(rig.fsm.cp_level().value(), sim::from_bool(expected.cp_level))
        << "cycle " << cycle;
    EXPECT_EQ(rig.fsm.busy().value(), sim::from_bool(expected.busy))
        << "cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsmEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace psnt::core
