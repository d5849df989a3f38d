#include "analog/supply_delay_model.h"

#include <gtest/gtest.h>

#include <tuple>

namespace psnt::analog {
namespace {

using namespace psnt::literals;

AlphaPowerDelayModel typical() {
  AlphaPowerParams p;
  p.drive_k_pf_per_ps = 0.035;
  p.alpha = 1.35;
  p.v_threshold = 0.32_V;
  p.c_intrinsic = 0.15_pF;
  return AlphaPowerDelayModel{p};
}

TEST(AlphaPower, DelayIsPositiveAndFinite) {
  const auto model = typical();
  const Picoseconds d = model.delay(1.0_V, 2.0_pF);
  EXPECT_GT(d.value(), 0.0);
  EXPECT_LT(d.value(), 1000.0);
}

TEST(AlphaPower, BelowThresholdNeverSwitches) {
  const auto model = typical();
  EXPECT_GT(model.delay(0.30_V, 1.0_pF).value(), 1e9);
  EXPECT_GT(model.delay(0.32_V, 1.0_pF).value(), 1e9);
}

TEST(AlphaPower, RejectsNegativeLoad) {
  const auto model = typical();
  EXPECT_THROW((void)model.delay(1.0_V, Picofarad{-0.1}), std::logic_error);
}

TEST(AlphaPower, RejectsUnphysicalParams) {
  AlphaPowerParams p;
  p.drive_k_pf_per_ps = -1.0;
  EXPECT_THROW(AlphaPowerDelayModel{p}, std::logic_error);
  p = AlphaPowerParams{};
  p.alpha = 5.0;
  EXPECT_THROW(AlphaPowerDelayModel{p}, std::logic_error);
  p = AlphaPowerParams{};
  p.v_threshold = Volt{1.5};
  EXPECT_THROW(AlphaPowerDelayModel{p}, std::logic_error);
}

// The sensor principle: delay strictly decreases with supply...
class DelayVsSupply : public ::testing::TestWithParam<double> {};

TEST_P(DelayVsSupply, MonotoneDecreasingInVoltage) {
  const auto model = typical();
  const Picofarad load{GetParam()};
  double prev = 1e18;
  for (double v = 0.75; v <= 1.30; v += 0.01) {
    const double d = model.delay(Volt{v}, load).value();
    EXPECT_LT(d, prev) << "at V=" << v << " C=" << load.value();
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Loads, DelayVsSupply,
                         ::testing::Values(0.0, 0.5, 1.0, 1.7, 2.0, 2.3, 4.0));

// ...and strictly increases with load (Fig. 4's x-axis).
class DelayVsLoad : public ::testing::TestWithParam<double> {};

TEST_P(DelayVsLoad, MonotoneIncreasingInLoad) {
  const auto model = typical();
  const Volt v{GetParam()};
  double prev = 0.0;
  for (double c = 0.0; c <= 4.0; c += 0.1) {
    const double d = model.delay(v, Picofarad{c}).value();
    EXPECT_GT(d, prev) << "at C=" << c;
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Voltages, DelayVsLoad,
                         ::testing::Values(0.85, 0.90, 1.00, 1.10, 1.20));

TEST(AlphaPower, DelayLinearInLoadExactly) {
  // t = (C + Cint) * g(V): exactly affine in C for fixed V.
  const auto model = typical();
  const double d1 = model.delay(1.0_V, 1.0_pF).value();
  const double d2 = model.delay(1.0_V, 2.0_pF).value();
  const double d3 = model.delay(1.0_V, 3.0_pF).value();
  EXPECT_NEAR(d3 - d2, d2 - d1, 1e-9);
}

TEST(AlphaPower, NearLinearInVoltageWithinPaperWindow) {
  // Within 0.9–1.1 V the curve deviates from its secant by < 2% (the paper's
  // premise that DS delay tracks VDD-n linearly in the range of interest).
  const auto model = typical();
  const Picofarad c = 2.0_pF;
  const double d_lo = model.delay(0.9_V, c).value();
  const double d_hi = model.delay(1.1_V, c).value();
  for (double v = 0.9; v <= 1.1; v += 0.01) {
    const double linear = d_lo + (d_hi - d_lo) * (v - 0.9) / 0.2;
    const double actual = model.delay(Volt{v}, c).value();
    EXPECT_NEAR(actual, linear, 0.02 * actual) << "at V=" << v;
  }
}

TEST(AlphaPower, ThresholdSupplyInvertsDelay) {
  const auto model = typical();
  const Picoseconds budget{120.0};
  const auto thr = model.threshold_supply(2.0_pF, budget);
  ASSERT_TRUE(thr.has_value());
  EXPECT_NEAR(model.delay(*thr, 2.0_pF).value(), budget.value(), 1e-6);
}

TEST(AlphaPower, ThresholdGrowsWithLoad) {
  const auto model = typical();
  const Picoseconds budget{120.0};
  double prev = 0.0;
  for (double c = 1.0; c <= 3.0; c += 0.25) {
    const auto thr = model.threshold_supply(Picofarad{c}, budget);
    ASSERT_TRUE(thr.has_value()) << "C=" << c;
    EXPECT_GT(thr->value(), prev);
    prev = thr->value();
  }
}

TEST(AlphaPower, ThresholdFallsWithBudget) {
  const auto model = typical();
  double prev = 10.0;
  for (double b = 100.0; b <= 200.0; b += 20.0) {
    const auto thr = model.threshold_supply(2.0_pF, Picoseconds{b});
    ASSERT_TRUE(thr.has_value());
    EXPECT_LT(thr->value(), prev);
    prev = thr->value();
  }
}

TEST(AlphaPower, ThresholdUnreachableCases) {
  const auto model = typical();
  // Budget so tight even v_max fails.
  EXPECT_FALSE(model.threshold_supply(4.0_pF, Picoseconds{1.0}));
  EXPECT_FALSE(model.threshold_supply(2.0_pF, Picoseconds{-5.0}));
}

TEST(AlphaPower, HugeBudgetPinsThresholdNearDeviceVt) {
  // With an enormous budget the cell only fails when the inverter stops
  // switching at all, i.e. just above the device threshold voltage.
  const auto model = typical();
  const auto thr = model.threshold_supply(0.1_pF, Picoseconds{1e6});
  ASSERT_TRUE(thr.has_value());
  EXPECT_NEAR(thr->value(), model.params().v_threshold.value(), 0.01);
}

TEST(AlphaPower, LoadForBudgetInvertsDelay) {
  const auto model = typical();
  const auto load = model.load_for_budget(0.95_V, Picoseconds{130.0});
  ASSERT_TRUE(load.has_value());
  EXPECT_NEAR(model.delay(0.95_V, *load).value(), 130.0, 1e-9);
}

TEST(AlphaPower, LoadForBudgetRoundTripsThreshold) {
  const auto model = typical();
  const Picoseconds budget{140.0};
  const auto load = model.load_for_budget(0.93_V, budget);
  ASSERT_TRUE(load.has_value());
  const auto thr = model.threshold_supply(*load, budget);
  ASSERT_TRUE(thr.has_value());
  EXPECT_NEAR(thr->value(), 0.93, 1e-6);
}

TEST(AlphaPower, LoadForBudgetImpossibleCases) {
  const auto model = typical();
  // Budget smaller than the intrinsic-cap delay → impossible.
  EXPECT_FALSE(model.load_for_budget(1.0_V, Picoseconds{0.1}));
  EXPECT_FALSE(model.load_for_budget(0.2_V, Picoseconds{100.0}));
}

TEST(AlphaPower, DriveScalingSpeedsUp) {
  const auto model = typical();
  const auto faster = model.with_drive_scaled(1.2);
  EXPECT_LT(faster.delay(1.0_V, 2.0_pF).value(),
            model.delay(1.0_V, 2.0_pF).value());
  EXPECT_THROW((void)model.with_drive_scaled(0.0), std::logic_error);
}

TEST(AlphaPower, VthShiftSlowsDown) {
  const auto model = typical();
  const auto slower = model.with_vth_shifted(Volt{0.05});
  EXPECT_GT(slower.delay(1.0_V, 2.0_pF).value(),
            model.delay(1.0_V, 2.0_pF).value());
}

}  // namespace
}  // namespace psnt::analog
