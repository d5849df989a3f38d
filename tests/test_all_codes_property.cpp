// Whole-family property sweep: every Delay Code obeys the thermometer
// invariants with the paper-calibrated array.
#include <gtest/gtest.h>

#include <algorithm>

#include "calib/fit.h"
#include "core/sensor_array.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

class EveryCode : public ::testing::TestWithParam<int> {
 protected:
  const calib::CalibratedModel& model = calib::calibrated().model;
  SensorArray array = calib::make_paper_array(model);
  PulseGenerator pg{model.pg_config()};
  DelayCode code{static_cast<std::uint8_t>(GetParam())};
};

TEST_P(EveryCode, WordsAreValidAndMonotoneInVoltage) {
  // Sweep past both window edges (code 000's window tops out near 1.6 V).
  const auto range = array.dynamic_range(pg.skew(code));
  const double lo = range.all_errors_below.value() - 0.05;
  const double hi = range.no_errors_above.value() + 0.05;
  std::size_t prev = 0;
  for (double v = lo; v <= hi; v += 0.005) {
    const auto word = array.measure(Volt{v}, pg.skew(code));
    ASSERT_TRUE(word.is_valid_thermometer())
        << "code " << code.to_string() << " V=" << v;
    ASSERT_GE(word.count_ones(), prev);
    prev = word.count_ones();
  }
  EXPECT_EQ(prev, 7u);
}

TEST_P(EveryCode, DecodeBracketsEveryInRangeVoltage) {
  const auto range = array.dynamic_range(pg.skew(code));
  const double lo = range.all_errors_below.value() + 0.005;
  const double hi = range.no_errors_above.value() - 0.005;
  for (double v = lo; v <= hi; v += (hi - lo) / 23.0) {
    const auto bin = array.decode(array.measure(Volt{v}, pg.skew(code)),
                                  pg.skew(code));
    ASSERT_TRUE(bin.lo || bin.hi);
    if (bin.lo) {
      EXPECT_LE(bin.lo->value(), v + 1e-9) << code.to_string();
    }
    if (bin.hi) {
      EXPECT_GT(bin.hi->value(), v - 1e-9) << code.to_string();
    }
  }
}

TEST_P(EveryCode, ThresholdsAscendWithLoad) {
  const auto thr = array.thresholds(pg.skew(code));
  for (std::size_t i = 1; i < thr.size(); ++i) {
    EXPECT_GT(thr[i], thr[i - 1]) << code.to_string();
  }
}

TEST_P(EveryCode, ResolutionReportConsistent) {
  // LSB = the gap between adjacent firing thresholds, in mV.
  const auto thr = array.thresholds(pg.skew(code));
  std::vector<double> lsb_mv;
  for (std::size_t i = 1; i < thr.size(); ++i) {
    lsb_mv.push_back((thr[i] - thr[i - 1]).value() * 1000.0);
  }
  const double best = *std::min_element(lsb_mv.begin(), lsb_mv.end());
  const double worst = *std::max_element(lsb_mv.begin(), lsb_mv.end());
  EXPECT_GT(best, 0.0);
  EXPECT_GE(worst, best);
  double sum = 0.0;
  for (double g : lsb_mv) sum += g;
  EXPECT_NEAR(sum / 1000.0, (thr.back() - thr.front()).value(), 1e-9);
}

TEST_P(EveryCode, GndViewMirrorsVddView) {
  const Volt v_nom{1.0};
  const auto word = array.measure(0.95_V, pg.skew(code));
  const auto vdd_bin = array.decode(word, pg.skew(code));
  const auto gnd_bin = array.decode_gnd(word, pg.skew(code), v_nom);
  if (vdd_bin.lo && gnd_bin.hi) {
    EXPECT_NEAR(gnd_bin.hi->value(), 1.0 - vdd_bin.lo->value(), 1e-12);
  }
  if (vdd_bin.hi && gnd_bin.lo) {
    EXPECT_NEAR(gnd_bin.lo->value(), 1.0 - vdd_bin.hi->value(), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, EveryCode, ::testing::Range(0, 8));

}  // namespace
}  // namespace psnt::core
