#include "core/sensor_array.h"

#include <gtest/gtest.h>

#include "sensor_ladder.h"
#include "thermo_words.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

SensorArray make_array() {
  return linear_array(analog::AlphaPowerDelayModel{},
                             analog::FlipFlopTimingModel{}, 1.6_pF, 0.12_pF,
                             7);
}

constexpr Picoseconds kSkew{160.0};

TEST(SensorArray, LinearFactoryBuildsAscendingLoads) {
  const auto arr = make_array();
  EXPECT_EQ(arr.bits(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(arr.cell(i).c_load().value(), 1.6 + 0.12 * i, 1e-12);
  }
}

TEST(SensorArray, ThresholdsAscend) {
  const auto thr = make_array().thresholds(kSkew);
  ASSERT_EQ(thr.size(), 7u);
  for (std::size_t i = 1; i < 7; ++i) EXPECT_GT(thr[i], thr[i - 1]);
}

TEST(SensorArray, MeasureIsThermometerAcrossSweep) {
  const auto arr = make_array();
  // Every measured word across the sweep must be a valid thermometer code
  // and its count must be monotone non-decreasing in voltage.
  std::size_t prev = 0;
  for (double v = 0.7; v <= 1.4; v += 0.005) {
    const ThermoWord w = arr.measure(Volt{v}, kSkew);
    EXPECT_TRUE(w.is_valid_thermometer()) << "V=" << v << " " << w.to_string();
    EXPECT_GE(w.count_ones(), prev) << "V=" << v;
    prev = w.count_ones();
  }
  EXPECT_EQ(prev, 7u);  // reaches all-correct at the top
}

TEST(SensorArray, WordMatchesThresholdCount) {
  const auto arr = make_array();
  const auto thr = arr.thresholds(kSkew);
  for (double v = 0.75; v <= 1.35; v += 0.01) {
    std::size_t expected = 0;
    while (expected < thr.size() && Volt{v} >= thr[expected]) ++expected;
    EXPECT_EQ(arr.measure(Volt{v}, kSkew).count_ones(), expected)
        << "V=" << v;
  }
}

TEST(SensorArray, DynamicRangeSpansThresholds) {
  const auto arr = make_array();
  const auto range = arr.dynamic_range(kSkew);
  const auto thr = arr.thresholds(kSkew);
  EXPECT_DOUBLE_EQ(range.all_errors_below.value(), thr.front().value());
  EXPECT_DOUBLE_EQ(range.no_errors_above.value(), thr.back().value());
  EXPECT_GT(range.span().value(), 0.0);
}

TEST(SensorArray, DecodeMidScaleBin) {
  const auto arr = make_array();
  const auto thr = arr.thresholds(kSkew);
  const auto word = ThermoWord::of_count(3, 7);
  const VoltageBin bin = arr.decode(word, kSkew);
  ASSERT_TRUE(bin.in_range());
  EXPECT_DOUBLE_EQ(bin.lo->value(), thr[2].value());
  EXPECT_DOUBLE_EQ(bin.hi->value(), thr[3].value());
  EXPECT_GT(bin.estimate().value(), bin.lo->value());
  EXPECT_LT(bin.estimate().value(), bin.hi->value());
}

TEST(SensorArray, DecodeEndsAreOpen) {
  const auto arr = make_array();
  const auto lo = arr.decode(ThermoWord::of_count(0, 7), kSkew);
  EXPECT_TRUE(lo.below_range());
  EXPECT_TRUE(lo.hi.has_value());
  const auto hi = arr.decode(ThermoWord::of_count(7, 7), kSkew);
  EXPECT_TRUE(hi.above_range());
  EXPECT_TRUE(hi.lo.has_value());
}

TEST(SensorArray, DecodeCorrectsBubblesFirst) {
  const auto arr = make_array();
  const auto clean = arr.decode(thermo_word("0011111"), kSkew);
  const auto bubbled = arr.decode(thermo_word("0101111"), kSkew);
  EXPECT_DOUBLE_EQ(clean.lo->value(), bubbled.lo->value());
  EXPECT_DOUBLE_EQ(clean.hi->value(), bubbled.hi->value());
}

TEST(SensorArray, DecodeRejectsWidthMismatch) {
  const auto arr = make_array();
  EXPECT_THROW((void)arr.decode(ThermoWord::of_count(2, 5), kSkew),
               std::logic_error);
}

TEST(SensorArray, RoundTripMeasureDecodeBracketsTrueVoltage) {
  const auto arr = make_array();
  for (double v = 0.90; v <= 1.25; v += 0.01) {
    const auto word = arr.measure(Volt{v}, kSkew);
    const auto bin = arr.decode(word, kSkew);
    if (bin.lo) {
      EXPECT_LE(bin.lo->value(), v + 1e-9) << "V=" << v;
    }
    if (bin.hi) {
      EXPECT_GT(bin.hi->value(), v - 1e-9) << "V=" << v;
    }
  }
}

TEST(SensorArray, GndDecodeFlipsInterval) {
  const auto arr = make_array();
  const Volt v_nom{1.0};
  const auto word = ThermoWord::of_count(3, 7);
  const auto vdd_bin = arr.decode(word, kSkew);
  const auto gnd_bin = arr.decode_gnd(word, kSkew, v_nom);
  ASSERT_TRUE(gnd_bin.in_range());
  EXPECT_NEAR(gnd_bin.lo->value(), 1.0 - vdd_bin.hi->value(), 1e-12);
  EXPECT_NEAR(gnd_bin.hi->value(), 1.0 - vdd_bin.lo->value(), 1e-12);
}

TEST(SensorArray, GndDecodeMoreOnesMeansLessBounce) {
  const auto arr = make_array();
  const auto quiet = arr.decode_gnd(ThermoWord::of_count(6, 7), kSkew,
                                    Volt{1.0});
  const auto noisy = arr.decode_gnd(ThermoWord::of_count(1, 7), kSkew,
                                    Volt{1.0});
  EXPECT_LT(quiet.estimate().value(), noisy.estimate().value());
}

TEST(SensorArray, WithLoadsValidatesOrdering) {
  const analog::AlphaPowerDelayModel inv;
  const analog::FlipFlopTimingModel ff;
  EXPECT_THROW(SensorArray::with_loads(inv, ff, {2.0_pF, 1.0_pF}),
               std::logic_error);
  EXPECT_THROW(SensorArray::with_loads(inv, ff, {}), std::logic_error);
  const auto ok = SensorArray::with_loads(inv, ff, {1.0_pF, 2.0_pF});
  EXPECT_EQ(ok.bits(), 2u);
}

TEST(VoltageBinType, EstimateAndRendering) {
  VoltageBin bin;
  bin.lo = Volt{0.992};
  bin.hi = Volt{1.021};
  EXPECT_NEAR(bin.estimate().value(), 1.0065, 1e-9);
  EXPECT_NE(bin.to_string().find("0.992"), std::string::npos);
  VoltageBin open_low;
  open_low.hi = Volt{0.827};
  EXPECT_TRUE(open_low.below_range());
  EXPECT_DOUBLE_EQ(open_low.estimate().value(), 0.827);
  EXPECT_NE(open_low.to_string().find("below"), std::string::npos);
}

}  // namespace
}  // namespace psnt::core
