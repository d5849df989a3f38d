#include "core/thermometer.h"

#include <gtest/gtest.h>

#include "calib/fit.h"
#include "thermo_words.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

NoiseThermometer make_thermometer() {
  return calib::make_paper_thermometer(calib::calibrated().model);
}

// One GND-n transaction through the engine: the LOW-SENSE inverters run
// from the nominal supply against the noisy ground.
Measurement measure_gnd(NoiseThermometer& t, const analog::RailSource& gnd,
                        Picoseconds start, DelayCode code) {
  MeasureRequest req;
  req.start = start;
  req.target = SenseTarget::kGnd;
  req.code = code;
  return t.engine().measure(req, analog::RailPair{nullptr, &gnd});
}

TEST(Thermometer, MeasuresConstantVddIntoTheRightBin) {
  auto t = make_thermometer();
  analog::ConstantRail vdd{1.0_V};
  const auto m = t.measure_vdd(analog::RailPair{&vdd, nullptr}, 0.0_ps,
                               DelayCode{3});
  EXPECT_EQ(m.word.to_string(), "0011111");
  ASSERT_TRUE(m.bin.in_range());
  EXPECT_LE(m.bin.lo->value(), 1.0);
  EXPECT_GT(m.bin.hi->value(), 1.0);
  EXPECT_EQ(m.target, SenseTarget::kVdd);
  EXPECT_EQ(m.code, DelayCode{3});
}

TEST(Thermometer, ReadsBelowAndAboveRange) {
  auto t = make_thermometer();
  analog::ConstantRail low{0.70_V};
  const auto m_low = t.measure_vdd(analog::RailPair{&low, nullptr}, 0.0_ps,
                                   DelayCode{3});
  EXPECT_TRUE(m_low.word.all_zeros());
  EXPECT_TRUE(m_low.bin.below_range());

  analog::ConstantRail high{1.20_V};
  const auto m_high = t.measure_vdd(analog::RailPair{&high, nullptr}, 0.0_ps,
                                    DelayCode{3});
  EXPECT_TRUE(m_high.word.all_ones());
  EXPECT_TRUE(m_high.bin.above_range());
}

TEST(Thermometer, TimestampReflectsTransactionLatency) {
  auto t = make_thermometer();
  analog::ConstantRail vdd{1.0_V};
  const auto m = t.measure_vdd(analog::RailPair{&vdd, nullptr}, 0.0_ps,
                               DelayCode{3});
  // The sense launch happens several control cycles after start.
  EXPECT_GT(m.timestamp.value(), 3.0 * t.config().control_period.value());
  EXPECT_LT(m.timestamp.value(),
            10.0 * t.config().control_period.value());
}

TEST(Thermometer, MeasuresGndBounce) {
  auto t = make_thermometer();
  // 60 mV of ground bounce: effective overdrive 0.94 V.
  analog::ConstantRail gnd{0.06_V};
  const auto m = measure_gnd(t, gnd, 0.0_ps, DelayCode{3});
  EXPECT_EQ(m.target, SenseTarget::kGnd);
  ASSERT_TRUE(m.bin.in_range());
  EXPECT_LE(m.bin.lo->value(), 0.06 + 1e-9);
  EXPECT_GT(m.bin.hi->value(), 0.06 - 1e-9);
}

TEST(Thermometer, GndQuietBinBracketsZeroBounce) {
  auto t = make_thermometer();
  analog::ConstantRail gnd{0.0_V};  // ideal ground → full 1.0 V overdrive
  const auto m = measure_gnd(t, gnd, 0.0_ps, DelayCode{3});
  // v_eff = 1.0 V sits inside the code-011 window (0.992–1.021 V), so the
  // decoded bounce bin must bracket zero.
  ASSERT_TRUE(m.bin.in_range());
  EXPECT_LE(m.bin.lo->value(), 0.0 + 1e-9);
  EXPECT_GT(m.bin.hi->value(), 0.0 - 1e-9);
}

TEST(Thermometer, IterateTracksADroopingRail) {
  auto t = make_thermometer();
  // Rail droops linearly from 1.05 to 0.85 V over 200 ns.
  analog::CallbackRail vdd{[](Picoseconds time) {
    const double frac = std::clamp(time.value() / 200000.0, 0.0, 1.0);
    return Volt{1.05 - 0.20 * frac};
  }};
  const auto ms = t.iterate_vdd(analog::RailPair{&vdd, nullptr}, 0.0_ps,
                                20000.0_ps, 10, DelayCode{3});
  ASSERT_EQ(ms.size(), 10u);
  // Counts must be non-increasing as the rail droops.
  for (std::size_t i = 1; i < ms.size(); ++i) {
    EXPECT_LE(ms[i].word.count_ones(), ms[i - 1].word.count_ones());
  }
  EXPECT_GT(ms.front().word.count_ones(), ms.back().word.count_ones());
  // Timestamps advance by the iteration interval once the FSM is out of
  // RESET (the very first transaction carries one extra control cycle).
  EXPECT_NEAR(ms[2].timestamp.value() - ms[1].timestamp.value(), 20000.0,
              1e-9);
  EXPECT_NEAR(ms[1].timestamp.value() - ms[0].timestamp.value(),
              20000.0 - t.config().control_period.value(), 1e-9);
}

TEST(Thermometer, VddRangeMatchesArrayAndCode) {
  auto t = make_thermometer();
  const auto r011 = t.vdd_range(DelayCode{3});
  const auto r010 = t.vdd_range(DelayCode{2});
  // The paper's Fig. 5: code 010 range sits higher than code 011.
  EXPECT_GT(r010.all_errors_below.value(), r011.all_errors_below.value());
  EXPECT_GT(r010.no_errors_above.value(), r011.no_errors_above.value());
  EXPECT_NEAR(r011.all_errors_below.value(), 0.827, 0.002);
  EXPECT_NEAR(r011.no_errors_above.value(), 1.053, 0.002);
}

TEST(Thermometer, FsmSequencesEveryMeasure) {
  auto t = make_thermometer();
  analog::ConstantRail vdd{1.0_V};
  EXPECT_EQ(t.fsm().completed_measures(), 0u);
  (void)t.measure_vdd(analog::RailPair{&vdd, nullptr}, 0.0_ps, DelayCode{3});
  EXPECT_EQ(t.fsm().completed_measures(), 1u);
  (void)t.measure_vdd(analog::RailPair{&vdd, nullptr}, 100000.0_ps,
                      DelayCode{3});
  EXPECT_EQ(t.fsm().completed_measures(), 2u);
}

TEST(Thermometer, ReconfigurationChangesActiveCode) {
  auto t = make_thermometer();
  analog::ConstantRail vdd{1.0_V};
  (void)t.measure_vdd(analog::RailPair{&vdd, nullptr}, 0.0_ps, DelayCode{3});
  EXPECT_EQ(t.fsm().active_code(), DelayCode{3});
  (void)t.measure_vdd(analog::RailPair{&vdd, nullptr}, 100000.0_ps,
                      DelayCode{5});
  EXPECT_EQ(t.fsm().active_code(), DelayCode{5});
}

TEST(Thermometer, SameVoltageDifferentCodesDifferentWords) {
  auto t = make_thermometer();
  analog::ConstantRail vdd{1.0_V};
  const auto m011 = t.measure_vdd(analog::RailPair{&vdd, nullptr}, 0.0_ps,
                                  DelayCode{3});
  const auto m010 = t.measure_vdd(analog::RailPair{&vdd, nullptr},
                                  100000.0_ps, DelayCode{2});
  // Code 010's window sits higher: fewer cells pass at the same voltage.
  EXPECT_LT(m010.word.count_ones(), m011.word.count_ones());
}

TEST(Thermometer, EncodeExposesEncoder) {
  auto t = make_thermometer();
  const auto enc = t.encode(thermo_word("0011111"));
  EXPECT_EQ(enc.count, 5);
}

TEST(Thermometer, ConfigValidation) {
  const auto& model = calib::calibrated().model;
  ThermometerConfig bad;
  bad.control_period = Picoseconds{0.0};
  EXPECT_THROW((void)calib::make_paper_thermometer(model, bad),
               std::logic_error);
}

}  // namespace
}  // namespace psnt::core
