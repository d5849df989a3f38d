#include "stats/online_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace psnt::stats {
namespace {

TEST(OnlineStats, EmptyAccumulator) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.range(), 0.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  OnlineStats s;
  for (double x : xs) s.add(x);

  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());

  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_DOUBLE_EQ(s.range(), 15.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 3.0 + i * 0.01;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(2.0);
  a.add(4.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);

  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

}  // namespace
}  // namespace psnt::stats
