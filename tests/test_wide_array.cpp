// Property sweep over array widths: the paper picks 7 bits "in this
// example"; the design generalises, and resolution must improve with bits.
#include <gtest/gtest.h>

#include "calib/fit.h"
#include "core/sensor_array.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

class ArrayWidth : public ::testing::TestWithParam<std::size_t> {
 protected:
  // Builds a `bits`-wide array covering the same window as the paper array
  // by solving loads for evenly spaced target thresholds.
  SensorArray make(std::size_t bits) const {
    const auto& model = calib::calibrated().model;
    const Picoseconds budget = model.budget(DelayCode{3});
    std::vector<Picofarad> loads;
    for (std::size_t i = 0; i < bits; ++i) {
      const double frac =
          static_cast<double>(i) / static_cast<double>(bits - 1);
      const Volt target{0.827 + frac * (1.053 - 0.827)};
      const auto load = model.inverter.load_for_budget(target, budget);
      loads.push_back(load.value());
    }
    return SensorArray::with_loads(model.inverter, model.flipflop, loads);
  }
};

TEST_P(ArrayWidth, ThermometerPropertyHoldsAtAnyWidth) {
  const auto array = make(GetParam());
  const Picoseconds skew = calib::calibrated().model.skew(DelayCode{3});
  std::size_t prev = 0;
  for (double v = 0.80; v <= 1.08; v += 0.004) {
    const auto word = array.measure(Volt{v}, skew);
    EXPECT_TRUE(word.is_valid_thermometer()) << "V=" << v;
    EXPECT_GE(word.count_ones(), prev);
    prev = word.count_ones();
  }
  EXPECT_EQ(prev, GetParam());
}

TEST_P(ArrayWidth, DecodeBracketsTruthAtAnyWidth) {
  const auto array = make(GetParam());
  const Picoseconds skew = calib::calibrated().model.skew(DelayCode{3});
  for (double v = 0.85; v <= 1.04; v += 0.013) {
    const auto bin = array.decode(array.measure(Volt{v}, skew), skew);
    if (bin.lo) {
      EXPECT_LE(bin.lo->value(), v + 1e-9) << v;
    }
    if (bin.hi) {
      EXPECT_GT(bin.hi->value(), v - 1e-9) << v;
    }
  }
}

TEST_P(ArrayWidth, WindowEdgesStayPut) {
  const auto array = make(GetParam());
  const Picoseconds skew = calib::calibrated().model.skew(DelayCode{3});
  const auto range = array.dynamic_range(skew);
  EXPECT_NEAR(range.all_errors_below.value(), 0.827, 1e-3);
  EXPECT_NEAR(range.no_errors_above.value(), 1.053, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Widths, ArrayWidth,
                         ::testing::Values(3, 5, 7, 11, 15, 23, 31));

TEST(ArrayWidthScaling, MeanLsbShrinksWithBits) {
  const auto& model = calib::calibrated().model;
  const PulseGenerator pg{model.pg_config()};
  const Picoseconds budget = model.budget(DelayCode{3});

  double prev_lsb = 1e9;
  for (std::size_t bits : {5, 9, 17, 31}) {
    std::vector<Picofarad> loads;
    for (std::size_t i = 0; i < bits; ++i) {
      const double frac =
          static_cast<double>(i) / static_cast<double>(bits - 1);
      loads.push_back(*model.inverter.load_for_budget(
          Volt{0.827 + frac * 0.226}, budget));
    }
    const auto array =
        SensorArray::with_loads(model.inverter, model.flipflop, loads);
    // Mean gap between adjacent firing thresholds, in mV (the gaps
    // telescope to the window span over bits - 1).
    const auto thr = array.thresholds(pg.skew(DelayCode{3}));
    const double mean_lsb_mv = (thr.back() - thr.front()).value() * 1000.0 /
                               static_cast<double>(thr.size() - 1);
    EXPECT_LT(mean_lsb_mv, prev_lsb);
    prev_lsb = mean_lsb_mv;
  }
  // 31 bits over a 226 mV window → ~7.5 mV LSB.
  EXPECT_LT(prev_lsb, 8.0);
}

}  // namespace
}  // namespace psnt::core
