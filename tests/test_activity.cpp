#include "cut/activity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"

namespace psnt::cut {
namespace {

using namespace psnt::literals;

double mean_activity(const ActivityTrace& t) {
  return std::accumulate(t.factors().begin(), t.factors().end(), 0.0) /
         static_cast<double>(t.cycles());
}

double peak_activity(const ActivityTrace& t) {
  return *std::max_element(t.factors().begin(), t.factors().end());
}

// --- stimulus traces ---------------------------------------------------------

ActivityTrace idle_trace(Picoseconds cycle, std::size_t n, double idle_level) {
  return ActivityTrace{cycle, std::vector<double>(n, idle_level)};
}

// `low` before `at_cycle`, `high` from it on.
ActivityTrace step_trace(Picoseconds cycle, std::size_t n, std::size_t at_cycle,
                         double low, double high) {
  std::vector<double> f(n, low);
  for (std::size_t i = std::min(at_cycle, n); i < n; ++i) f[i] = high;
  return ActivityTrace{cycle, std::move(f)};
}

// AR(1) background activity: level_{k+1} = mean + rho*(level_k - mean) +
// noise, with the innovation variance scaled so the stationary sigma equals
// `sigma`; every factor clamped to [0, 1.5].
ActivityTrace random_walk_trace(Picoseconds cycle, std::size_t n,
                                stats::Xoshiro256& rng, double mean,
                                double sigma, double correlation) {
  PSNT_CHECK(correlation >= 0.0 && correlation < 1.0,
             "correlation must be in [0,1)");
  std::vector<double> f(n);
  double level = mean;
  const double innovation_sigma =
      sigma * std::sqrt(1.0 - correlation * correlation);
  for (std::size_t i = 0; i < n; ++i) {
    level = mean + correlation * (level - mean) +
            rng.normal(0.0, innovation_sigma);
    f[i] = std::clamp(level, 0.0, 1.5);
  }
  return ActivityTrace{cycle, std::move(f)};
}

TEST(ActivityTrace, BasicAccessors) {
  ActivityTrace t{1250.0_ps, {0.1, 0.5, 0.9}};
  EXPECT_EQ(t.cycles(), 3u);
  EXPECT_DOUBLE_EQ(t.cycle().value(), 1250.0);
  EXPECT_DOUBLE_EQ(t.duration().value(), 3750.0);
  EXPECT_NEAR(mean_activity(t), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(peak_activity(t), 0.9);
}

TEST(ActivityTrace, ToCurrentScalesAffine) {
  ActivityTrace t{100.0_ps, {0.0, 1.0}};
  const auto profile = t.to_current(Ampere{0.5}, Ampere{2.0});
  EXPECT_DOUBLE_EQ(profile->at(50.0_ps).value(), 0.5);
  EXPECT_DOUBLE_EQ(profile->at(150.0_ps).value(), 2.5);
}

TEST(ActivityTrace, IdleIsFlat) {
  const auto t = idle_trace(100.0_ps, 50, 0.05);
  EXPECT_DOUBLE_EQ(mean_activity(t), 0.05);
  EXPECT_DOUBLE_EQ(peak_activity(t), 0.05);
}

TEST(ActivityTrace, StepSwitchesAtCycle) {
  const auto t = step_trace(100.0_ps, 10, 4, 0.1, 0.9);
  EXPECT_DOUBLE_EQ(t.factors()[3], 0.1);
  EXPECT_DOUBLE_EQ(t.factors()[4], 0.9);
  EXPECT_DOUBLE_EQ(t.factors()[9], 0.9);
}

TEST(ActivityTrace, BurstDutyCycle) {
  const auto t = ActivityTrace::burst(100.0_ps, 20, 10, 0.3, 0.1, 0.9);
  // Cycles 0-2 high, 3-9 low, repeating.
  EXPECT_DOUBLE_EQ(t.factors()[0], 0.9);
  EXPECT_DOUBLE_EQ(t.factors()[2], 0.9);
  EXPECT_DOUBLE_EQ(t.factors()[3], 0.1);
  EXPECT_DOUBLE_EQ(t.factors()[10], 0.9);
  EXPECT_THROW(ActivityTrace::burst(100.0_ps, 20, 0, 0.3, 0.1, 0.9),
               std::logic_error);
}

TEST(ActivityTrace, RandomWalkStationaryStats) {
  stats::Xoshiro256 rng(42);
  const auto t =
      random_walk_trace(100.0_ps, 20000, rng, 0.5, 0.1, 0.9);
  EXPECT_NEAR(mean_activity(t), 0.5, 0.03);
  // Every sample clamped to [0, 1.5].
  for (double f : t.factors()) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.5);
  }
  EXPECT_THROW(
      random_walk_trace(100.0_ps, 10, rng, 0.5, 0.1, 1.0),
      std::logic_error);
}

TEST(ActivityTrace, RandomWalkCorrelationSmoothes) {
  stats::Xoshiro256 rng_a(1), rng_b(1);
  const auto smooth =
      random_walk_trace(100.0_ps, 5000, rng_a, 0.5, 0.1, 0.95);
  const auto rough =
      random_walk_trace(100.0_ps, 5000, rng_b, 0.5, 0.1, 0.0);
  auto mean_abs_step = [](const ActivityTrace& t) {
    double acc = 0.0;
    for (std::size_t i = 1; i < t.cycles(); ++i) {
      acc += std::abs(t.factors()[i] - t.factors()[i - 1]);
    }
    return acc / static_cast<double>(t.cycles() - 1);
  };
  EXPECT_LT(mean_abs_step(smooth), mean_abs_step(rough) * 0.5);
}

TEST(PipelineCut, ProducesPlausibleActivity) {
  PipelineCut cut{PipelineCut::Config{}};
  stats::Xoshiro256 rng(7);
  const auto t = cut.run(20000, rng);
  EXPECT_EQ(t.cycles(), 20000u);
  // Mean between the stall floor and full-pipe activity.
  EXPECT_GT(mean_activity(t), 0.2);
  EXPECT_LT(mean_activity(t), 1.1);
  // Peak = clock floor + all five stages busy.
  EXPECT_NEAR(peak_activity(t), 0.05 + 1.0, 1e-9);
  // Stalls happen: some cycles sit at the miss floor.
  bool saw_stall = false;
  for (double f : t.factors()) {
    if (f == 0.08) saw_stall = true;
  }
  EXPECT_TRUE(saw_stall);
}

TEST(PipelineCut, DeterministicPerSeed) {
  PipelineCut cut{PipelineCut::Config{}};
  stats::Xoshiro256 a(9), b(9);
  EXPECT_EQ(cut.run(500, a).factors(), cut.run(500, b).factors());
}

TEST(PipelineCut, HigherMissRateLowersActivity) {
  PipelineCut::Config hungry;
  hungry.miss_rate = 0.0;
  hungry.mispredict_rate = 0.0;
  PipelineCut::Config starved;
  starved.miss_rate = 0.5;
  stats::Xoshiro256 a(3), b(3);
  const double busy = mean_activity(PipelineCut{hungry}.run(5000, a));
  const double stalled = mean_activity(PipelineCut{starved}.run(5000, b));
  EXPECT_GT(busy, stalled * 1.5);
}

}  // namespace
}  // namespace psnt::cut
