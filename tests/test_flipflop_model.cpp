#include "analog/flipflop_model.h"

#include <gtest/gtest.h>

namespace psnt::analog {
namespace {

using namespace psnt::literals;

FlipFlopTimingModel typical() { return FlipFlopTimingModel{FlipFlopParams{}}; }

TEST(FlipFlop, CleanCaptureWellBeforeDeadline) {
  const auto ff = typical();
  // Data at 10 ps, clock at 200 ps: margin = 200-35-10 = 155 ps >> window.
  const auto out = ff.sample(10.0_ps, 200.0_ps, true, false);
  EXPECT_TRUE(out.captured_value);
  EXPECT_EQ(out.region, SampleRegion::kClean);
  EXPECT_DOUBLE_EQ(out.clk_to_q.value(), ff.params().t_clk_to_q.value());
  EXPECT_DOUBLE_EQ(out.setup_margin.value(), 155.0);
}

TEST(FlipFlop, ViolationRetainsOldValue) {
  const auto ff = typical();
  // Data arrives after the setup deadline.
  const auto out = ff.sample(180.0_ps, 200.0_ps, true, false);
  EXPECT_FALSE(out.captured_value);  // kept the old 0
  EXPECT_EQ(out.region, SampleRegion::kViolated);
  EXPECT_LT(out.setup_margin.value(), 0.0);
}

TEST(FlipFlop, ViolationWithOldOnePreservesOne) {
  const auto ff = typical();
  const auto out = ff.sample(180.0_ps, 200.0_ps, false, true);
  EXPECT_TRUE(out.captured_value);
  EXPECT_EQ(out.region, SampleRegion::kViolated);
}

TEST(FlipFlop, MetastableCapturesButSlowly) {
  const auto ff = typical();
  // Margin of 5 ps: inside the 10 ps window.
  const auto out = ff.sample(160.0_ps, 200.0_ps, true, false);
  EXPECT_TRUE(out.captured_value);
  EXPECT_EQ(out.region, SampleRegion::kMetastable);
  EXPECT_GT(out.clk_to_q.value(), ff.params().t_clk_to_q.value());
}

TEST(FlipFlop, ClkToQGrowsNonlinearlyTowardTheBoundary) {
  // The Fig. 2 behaviour: equal margin steps produce accelerating clk-to-q.
  const auto ff = typical();
  const auto at_margin = [&](double m) {
    return ff.sample(Picoseconds{200.0 - 35.0 - m}, 200.0_ps, true, false)
        .clk_to_q.value();
  };
  const double d8 = at_margin(8.0);
  const double d6 = at_margin(6.0);
  const double d4 = at_margin(4.0);
  const double d2 = at_margin(2.0);
  EXPECT_LT(d8, d6);
  EXPECT_LT(d6, d4);
  EXPECT_LT(d4, d2);
  // Accelerating: each 2 ps step hurts more than the previous one.
  EXPECT_GT(d4 - d6, d6 - d8);
  EXPECT_GT(d2 - d4, d4 - d6);
}

TEST(FlipFlop, ResolutionIsCapped) {
  FlipFlopParams p;
  p.max_resolution = Picoseconds{150.0};  // tight cap to make it reachable
  const FlipFlopTimingModel ff{p};
  // Margin of 1e-6 ps: tau*ln(w/m) ≈ 129 ps, so t0+extra exceeds the cap.
  const auto out =
      ff.sample(Picoseconds{200.0 - 35.0 - 1e-6}, 200.0_ps, true, false);
  EXPECT_DOUBLE_EQ(out.clk_to_q.value(), 150.0);
}

TEST(FlipFlop, ExactDeadlineCountsAsViolation) {
  const auto ff = typical();
  const auto out = ff.sample(165.0_ps, 200.0_ps, true, false);  // margin 0
  EXPECT_EQ(out.region, SampleRegion::kViolated);
}

TEST(FlipFlop, SetupMarginHelperMatchesSample) {
  const auto ff = typical();
  EXPECT_DOUBLE_EQ(ff.setup_margin(100.0_ps, 200.0_ps).value(), 65.0);
}

TEST(FlipFlop, DeepMetaResolverTakesOver) {
  auto ff = typical();
  int calls = 0;
  ff.set_deep_meta_resolver(
      [&calls](Picoseconds, bool, bool) {
        ++calls;
        return true;
      },
      2.0_ps);
  // Margin +1 ps: inside the deep band.
  const auto out =
      ff.sample(Picoseconds{200.0 - 35.0 - 1.0}, 200.0_ps, true, false);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(out.captured_value);
  EXPECT_EQ(out.region, SampleRegion::kMetastable);
  EXPECT_DOUBLE_EQ(out.clk_to_q.value(), ff.params().max_resolution.value());
  // Margin -1 ps: also inside the band (straddles zero).
  (void)ff.sample(Picoseconds{200.0 - 35.0 + 1.0}, 200.0_ps, true, false);
  EXPECT_EQ(calls, 2);
  // Far outside the band: resolver not consulted.
  (void)ff.sample(10.0_ps, 200.0_ps, true, false);
  EXPECT_EQ(calls, 2);
}

TEST(FlipFlop, RejectsUnphysicalParams) {
  FlipFlopParams p;
  p.tau = Picoseconds{-1.0};
  EXPECT_THROW(FlipFlopTimingModel{p}, std::logic_error);
  p = FlipFlopParams{};
  p.max_resolution = Picoseconds{1.0};  // below t_clk_to_q
  EXPECT_THROW(FlipFlopTimingModel{p}, std::logic_error);
}

TEST(FlipFlop, RegionNames) {
  EXPECT_STREQ(to_string(SampleRegion::kClean), "clean");
  EXPECT_STREQ(to_string(SampleRegion::kMetastable), "metastable");
  EXPECT_STREQ(to_string(SampleRegion::kViolated), "violated");
}

}  // namespace
}  // namespace psnt::analog
