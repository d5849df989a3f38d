#include "stats/rng.h"

#include <gtest/gtest.h>

#include <set>

#include "rng_index.h"

namespace psnt::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01StaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(0.9, 1.1);
    EXPECT_GE(u, 0.9);
    EXPECT_LT(u, 1.1);
  }
}

TEST(Rng, UniformIndexCoversDomain) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(uniform_index(rng, 8));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, UniformIndexZeroDomain) {
  Xoshiro256 rng(1);
  EXPECT_EQ(uniform_index(rng, 0), 0u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Xoshiro256 rng(42);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, NormalScalesMeanAndSigma) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Xoshiro256 rng(77);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace psnt::stats
