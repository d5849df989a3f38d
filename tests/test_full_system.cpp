// The complete gate-level system: synthesized FSM + registered command pair
// + PG + sensor array, cross-validated against the behavioral model.
#include "core/full_system.h"

#include <gtest/gtest.h>

#include "calib/fit.h"
#include "fsm_code_probe.h"
#include "sim/probe.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

struct SystemRig {
  sim::Simulator sim;
  analog::ConstantRail vdd;
  PulseGenerator pg{calib::calibrated().model.pg_config()};
  SensorArray array = calib::make_paper_array(calib::calibrated().model);
  FullStructuralSystem system;

  SystemRig(double volts, DelayCode code,
            SensePolarity polarity = SensePolarity::kHighSense)
      : vdd(Volt{volts}),
        system(sim, "sys", array, pg,
               polarity == SensePolarity::kHighSense
                   ? analog::RailPair{&vdd, nullptr}
                   : analog::RailPair{&nominal_rail(), &vdd},
               [&] {
                 FullStructuralSystem::Config cfg;
                 cfg.code = code;
                 cfg.polarity = polarity;
                 return cfg;
               }()) {}

  static analog::ConstantRail& nominal_rail() {
    static analog::ConstantRail rail{1.0_V};
    return rail;
  }
};

TEST(FullSystem, Fig9FirstMeasureAtGateLevel) {
  SystemRig rig(1.0, DelayCode{3});
  std::vector<ThermoWord> words;
  rig.system.run_measures(1, words);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0].to_string(), "0011111");
}

TEST(FullSystem, Fig9SecondMeasureAtGateLevel) {
  SystemRig rig(0.9, DelayCode{3});
  std::vector<ThermoWord> words;
  rig.system.run_measures(1, words);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0].to_string(), "0000011");
}

TEST(FullSystem, BackToBackMeasuresAreStable) {
  SystemRig rig(0.97, DelayCode{3});
  std::vector<ThermoWord> words;
  rig.system.run_measures(3, words);
  ASSERT_EQ(words.size(), 3u);
  for (const auto& w : words) {
    EXPECT_EQ(w.to_string(), "0001111");
  }
}

TEST(FullSystem, RegisteredCommandsPreserveTheSkew) {
  // The P→CP skew at the sensor must equal insertion + tap even though the
  // FSM decode cones for the two commands have different depths.
  SystemRig rig(1.0, DelayCode{3});
  sim::TransitionRecorder p_rec(*rig.system.sensor().p);
  sim::TransitionRecorder cp_rec(*rig.system.sensor().cp);
  std::vector<ThermoWord> words;
  rig.system.run_measures(1, words);
  const auto p_fall = p_rec.last_fall();
  ASSERT_TRUE(p_fall.has_value());
  const auto cp_rise = cp_rec.first_rise_after(*p_fall);
  ASSERT_TRUE(cp_rise.has_value());
  EXPECT_NEAR(cp_rise->value() - p_fall->value(),
              rig.pg.skew(DelayCode{3}).value(), 0.01);
}

TEST(FullSystem, FsmCodeRegisterLoadedViaInit) {
  SystemRig rig(1.0, DelayCode{5});
  std::vector<ThermoWord> words;
  rig.system.run_measures(1, words);
  EXPECT_EQ(held_code(rig.system.fsm()), DelayCode{5});
}

TEST(FullSystem, RetargetsCodeThroughLiveSelects) {
  // set_code reloads the code register through INIT on the next batch and
  // the MUX selects follow it: each retargeted batch must read the same
  // words as a fresh system built at that code.
  SystemRig rig(0.97, DelayCode{3});
  std::vector<ThermoWord> warmup;
  rig.system.run_measures(1, warmup);
  for (const std::uint8_t c : {3, 5, 2, 7, 0}) {
    rig.system.set_code(DelayCode{c});
    std::vector<ThermoWord> words;
    rig.system.run_measures(2, words, /*configure_first=*/false);
    EXPECT_EQ(held_code(rig.system.fsm()), DelayCode{c});
    SystemRig fresh(0.97, DelayCode{c});
    std::vector<ThermoWord> expected;
    fresh.system.run_measures(2, expected);
    ASSERT_EQ(words.size(), expected.size());
    for (std::size_t k = 0; k < words.size(); ++k) {
      EXPECT_EQ(words[k].to_string(), expected[k].to_string())
          << "code " << int(c) << " word " << k;
    }
  }
}

TEST(FullSystem, SteadyStateEventBudget) {
  // Event counts are deterministic: after warm-up, a code-011 measure costs
  // at most 300 scheduler events and the scheduler allocates nothing.
  SystemRig rig(1.0, DelayCode{3});
  std::vector<ThermoWord> words;
  rig.system.run_measures(16, words);
  const sim::Scheduler& sched = rig.sim.scheduler();
  const std::uint64_t events = sched.executed_events();
  const std::uint64_t allocs = sched.allocation_count();
  constexpr std::size_t kMeasures = 128;
  rig.system.run_measures(kMeasures, words, /*configure_first=*/false);
  EXPECT_LE(sched.executed_events() - events, 300u * kMeasures);
  EXPECT_EQ(sched.allocation_count(), allocs);
}

TEST(FullSystem, LowSensePolarityMeasuresGroundBounce) {
  // 100 mV bounce → effective 0.9 V → the Fig. 9 second word.
  SystemRig rig(0.10, DelayCode{3}, SensePolarity::kLowSense);
  std::vector<ThermoWord> words;
  rig.system.run_measures(1, words);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0].to_string(), "0000011");
}

// Cross-validation: full gate-level system vs behavioral array across a
// voltage/code grid.
class FullSystemVsBehavioral
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FullSystemVsBehavioral, WordsAgree) {
  const auto [code_int, mv] = GetParam();
  const DelayCode code{static_cast<std::uint8_t>(code_int)};
  const double volts = mv / 1000.0;
  const auto& model = calib::calibrated().model;

  SystemRig rig(volts, code);
  std::vector<ThermoWord> words;
  rig.system.run_measures(1, words);
  const auto behavioral =
      rig.array.measure(Volt{volts}, model.skew(code));
  EXPECT_EQ(words[0].to_string(), behavioral.to_string())
      << "code=" << code.to_string() << " V=" << volts;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FullSystemVsBehavioral,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(840, 900, 950, 1000, 1050, 1120,
                                         1200)));

TEST(FullSystem, WordsMatchBehavioralAcrossEveryCodeAndSupply) {
  // Oracle for the gate-level netlist: every Delay Code, supply swept across
  // 780–1220 mV in 2 mV steps, one live system per code stepping its rail
  // between measures. Each word must equal the behavioral array's exactly.
  const auto& model = calib::calibrated().model;
  for (int c = 0; c < 8; ++c) {
    const DelayCode code{static_cast<std::uint8_t>(c)};
    SystemRig rig(0.780, code);
    bool first = true;
    for (int mv = 780; mv <= 1220; mv += 2) {
      const double volts = mv / 1000.0;
      rig.vdd.set(Volt{volts});
      std::vector<ThermoWord> words;
      rig.system.run_measures(1, words, first);
      first = false;
      ASSERT_EQ(words.size(), 1u);
      EXPECT_EQ(words[0].to_string(),
                rig.array.measure(Volt{volts}, model.skew(code)).to_string())
          << "code=" << code.to_string() << " mV=" << mv;
    }
  }
}

}  // namespace
}  // namespace psnt::core
