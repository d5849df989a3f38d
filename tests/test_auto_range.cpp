#include "core/auto_range.h"

#include <gtest/gtest.h>

#include "analog/rail.h"
#include "calib/fit.h"
#include "core/thermometer.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

EncodedWord reading_of(std::size_t ones, std::size_t width = 7) {
  return Encoder{}.encode(ThermoWord::of_count(ones, width));
}

TEST(AutoRange, StartsAtInitialCode) {
  AutoRangeController ctrl;
  EXPECT_EQ(ctrl.code(), DelayCode{3});
  AutoRangeConfig cfg;
  cfg.initial = DelayCode{5};
  EXPECT_EQ(AutoRangeController{cfg}.code(), DelayCode{5});
}

TEST(AutoRange, UnderflowStepsCodeUpImmediately) {
  AutoRangeController ctrl;
  const auto next = ctrl.observe(reading_of(0), 7);
  EXPECT_EQ(next, DelayCode{4});
  EXPECT_EQ(ctrl.steps_taken(), 1u);
}

TEST(AutoRange, OverflowStepsCodeDownImmediately) {
  AutoRangeController ctrl;
  const auto next = ctrl.observe(reading_of(7), 7);
  EXPECT_EQ(next, DelayCode{2});
}

TEST(AutoRange, MidRangeReadingsHold) {
  AutoRangeController ctrl;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ctrl.observe(reading_of(4), 7), DelayCode{3});
  }
  EXPECT_EQ(ctrl.steps_taken(), 0u);
}

TEST(AutoRange, SaturatesAtCodeExtremes) {
  AutoRangeConfig cfg;
  cfg.initial = DelayCode{7};
  AutoRangeController ctrl{cfg};
  for (int i = 0; i < 5; ++i) ctrl.observe(reading_of(0), 7);
  EXPECT_EQ(ctrl.code(), DelayCode{7});  // cannot go higher
  cfg.initial = DelayCode{0};
  AutoRangeController low{cfg};
  for (int i = 0; i < 5; ++i) low.observe(reading_of(7), 7);
  EXPECT_EQ(low.code(), DelayCode{0});
}

TEST(AutoRange, EdgeReadingsNeedPatience) {
  AutoRangeConfig cfg;
  cfg.edge_patience = 3;
  AutoRangeController ctrl{cfg};
  // Two low-edge readings: no step yet.
  EXPECT_EQ(ctrl.observe(reading_of(1), 7), DelayCode{3});
  EXPECT_EQ(ctrl.observe(reading_of(1), 7), DelayCode{3});
  // Third consecutive one triggers.
  EXPECT_EQ(ctrl.observe(reading_of(1), 7), DelayCode{4});
}

TEST(AutoRange, MidRangeReadingResetsPatience) {
  AutoRangeConfig cfg;
  cfg.edge_patience = 2;
  AutoRangeController ctrl{cfg};
  (void)ctrl.observe(reading_of(1), 7);
  (void)ctrl.observe(reading_of(4), 7);  // resets the streak
  (void)ctrl.observe(reading_of(1), 7);
  EXPECT_EQ(ctrl.code(), DelayCode{3});
}

TEST(AutoRange, HighEdgeStreakStepsDown) {
  AutoRangeConfig cfg;
  cfg.edge_patience = 2;
  AutoRangeController ctrl{cfg};
  (void)ctrl.observe(reading_of(6), 7);
  EXPECT_EQ(ctrl.observe(reading_of(6), 7), DelayCode{2});
}

TEST(AutoRange, ChasesADriftingRailBackIntoRange) {
  // Closed loop against the real thermometer: the rail sits at 1.15 V,
  // far above the code-011 window; the controller must walk the code down
  // until the reading is in-range, then hold.
  auto thermometer = calib::make_paper_thermometer(calib::calibrated().model);
  analog::ConstantRail vdd{1.15_V};
  AutoRangeController ctrl;

  DelayCode code = ctrl.code();
  double t = 0.0;
  int in_range_streak = 0;
  for (int i = 0; i < 12 && in_range_streak < 3; ++i) {
    const auto m = thermometer.measure_vdd(analog::RailPair{&vdd, nullptr},
                                           Picoseconds{t}, code);
    const auto enc = thermometer.encode(m.word);
    in_range_streak = m.bin.in_range() ? in_range_streak + 1 : 0;
    code = ctrl.observe(enc, m.word.width());
    t += 50000.0;
  }
  EXPECT_GE(in_range_streak, 3);
  EXPECT_LT(ctrl.code().value(), 3);  // walked down toward a higher window
}

TEST(AutoRange, ValidatesConfig) {
  AutoRangeConfig cfg;
  cfg.edge_patience = 0;
  EXPECT_THROW(AutoRangeController{cfg}, std::logic_error);
  AutoRangeController ok;
  EXPECT_THROW((void)ok.observe(reading_of(3), 0), std::logic_error);
}

}  // namespace
}  // namespace psnt::core
