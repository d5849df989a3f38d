// HistogramSketch property tests: the bounded-relative-error contract, exact
// merge, clamping at the trackable range edges, the zero bucket, and the
// equivalence of the span-tracking, memoizing sketch with a dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/histogram_sketch.h"
#include "stats/rng.h"

namespace psnt::serve {
namespace {

double exact_quantile(std::vector<double> sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// Core contract: for values inside the trackable range, every quantile
// estimate is within alpha relative error of the exact order statistic.
TEST(HistogramSketch, QuantileRelativeErrorBound) {
  const SketchConfig config{0.01, 0.5, 160};
  HistogramSketch sketch{config};
  stats::Xoshiro256 rng(42);

  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    // Voltage-shaped stream: mostly near nominal with droop excursions.
    const double v = rng.bernoulli(0.9) ? rng.uniform(0.9, 1.1)
                                        : rng.uniform(0.7, 1.3);
    values.push_back(v);
    sketch.add(v);
  }
  std::sort(values.begin(), values.end());

  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double exact = exact_quantile(values, q);
    const double est = sketch.quantile(q);
    EXPECT_LE(std::abs(est - exact) / exact, config.alpha)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(HistogramSketch, QuantileBoundHoldsAcrossAlphas) {
  stats::Xoshiro256 rng(7);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.uniform(0.6, 2.0));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  for (const double alpha : {0.005, 0.02, 0.05}) {
    HistogramSketch sketch{SketchConfig{alpha, 0.5, 512}};
    for (const double v : values) sketch.add(v);
    for (double q = 0.05; q < 1.0; q += 0.05) {
      const double exact = exact_quantile(sorted, q);
      EXPECT_LE(std::abs(sketch.quantile(q) - exact) / exact, alpha)
          << "alpha=" << alpha << " q=" << q;
    }
  }
}

// merge(a, b) must be bucket-identical to a sketch that saw both streams —
// the property the store's per-shard / per-window publication relies on.
TEST(HistogramSketch, MergeIsExact) {
  const SketchConfig config{0.01, 1e-3, 128};
  HistogramSketch a{config};
  HistogramSketch b{config};
  HistogramSketch both{config};
  stats::Xoshiro256 rng(3);
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.uniform(0.0, 3.0) - 0.05;  // some non-positive
    if (i % 2 == 0) {
      a.add(v);
    } else {
      b.add(v);
    }
    both.add(v);
  }

  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.zero_count(), both.zero_count());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  for (std::size_t i = 0; i < config.bucket_count; ++i) {
    EXPECT_EQ(a.bucket_count_at(i), both.bucket_count_at(i)) << "bucket " << i;
  }
  for (const double q : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), both.quantile(q));
  }
}

TEST(HistogramSketch, NonPositiveValuesLandInZeroBucket) {
  HistogramSketch sketch{SketchConfig{0.01, 1e-3, 64}};
  sketch.add(0.0);
  sketch.add(-2.5);
  sketch.add(1.0);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_EQ(sketch.zero_count(), 2u);
  EXPECT_DOUBLE_EQ(sketch.min(), -2.5);
  // The bottom quantiles report 0 (the zero bucket), clamped to min.
  EXPECT_LE(sketch.quantile(0.0), 0.0);
}

TEST(HistogramSketch, ClampsOutsideTrackableRange) {
  const SketchConfig config{0.01, 0.5, 32};  // deliberately tiny range
  HistogramSketch sketch{config};
  const double huge = sketch.max_trackable() * 100.0;
  sketch.add(0.01);  // below min_value -> bucket 0
  sketch.add(huge);  // above max_trackable -> last bucket
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_EQ(sketch.bucket_index(0.01), 0u);
  EXPECT_EQ(sketch.bucket_index(huge), config.bucket_count - 1);
  // Estimates stay inside the observed range even when buckets clamp.
  EXPECT_GE(sketch.quantile(0.0), 0.01);
  EXPECT_LE(sketch.quantile(1.0), huge);
}

TEST(HistogramSketch, EmptyAndReset) {
  HistogramSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  sketch.add(1.0);
  sketch.reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.sum(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
}

TEST(HistogramSketch, MeanMatchesExactSum) {
  HistogramSketch sketch{SketchConfig{0.02, 0.5, 64}};
  double sum = 0.0;
  stats::Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.8, 1.2);
    sum += v;
    sketch.add(v);
  }
  EXPECT_NEAR(sketch.mean(), sum / 1000.0, 1e-12);  // sum is exact, not bucketed
}

// The dense sketch: every bucket is touched by reset, copy and merge, and
// every positive add takes the log. Same arithmetic as HistogramSketch in
// the same order, so every observable must match bit for bit. bucket_index
// clamps before converting to an integer, as HistogramSketch does, so NaN
// and +inf inputs stay defined.
class DenseSketch {
 public:
  explicit DenseSketch(const SketchConfig& config)
      : config_(config),
        gamma_((1.0 + config.alpha) / (1.0 - config.alpha)),
        inv_log_gamma_(1.0 / std::log(gamma_)),
        inv_min_(1.0 / config.min_value),
        buckets_(config.bucket_count, 0) {}

  std::size_t bucket_index(double v) const {
    const double r = std::ceil(std::log(v * inv_min_) * inv_log_gamma_);
    if (!(r > 0.0)) return 0;
    const std::size_t last = buckets_.size() - 1;
    if (r >= static_cast<double>(last)) return last;
    return static_cast<std::size_t>(r);
  }

  void add(double v) {
    if (count_ == 0) {
      min_ = v;
      max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    if (v <= 0.0) {
      ++zero_count_;
      return;
    }
    ++buckets_[bucket_index(v)];
  }

  void merge(const DenseSketch& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    zero_count_ += other.zero_count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

  void reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    zero_count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
  }

  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1) + 0.5);
    std::uint64_t cumulative = zero_count_;
    double estimate = 0.0;
    if (rank >= cumulative) {
      std::size_t i = 0;
      for (; i < buckets_.size(); ++i) {
        cumulative += buckets_[i];
        if (rank < cumulative) break;
      }
      const std::size_t b = std::min(i, buckets_.size() - 1);
      estimate = config_.min_value *
                 std::pow(gamma_, static_cast<double>(b)) * 2.0 /
                 (1.0 + gamma_);
    }
    return std::clamp(estimate, min_, max_);
  }

  const SketchConfig& config() const { return config_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t zero_count() const { return zero_count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  SketchConfig config_;
  double gamma_;
  double inv_log_gamma_;
  double inv_min_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// NaN sums and extremes must match too, so reals compare by bit pattern.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// First mismatch between a sketch and its reference, or "" when equal.
std::string diff(const HistogramSketch& s, const DenseSketch& ref) {
  if (!(s.config() == ref.config())) return "config";
  if (s.count() != ref.count()) return "count";
  if (s.zero_count() != ref.zero_count()) return "zero_count";
  if (!same_bits(s.sum(), ref.sum())) return "sum";
  if (!same_bits(s.min(), ref.min())) return "min";
  if (!same_bits(s.max(), ref.max())) return "max";
  for (std::size_t i = 0; i < ref.buckets().size(); ++i) {
    if (s.bucket_count_at(i) != ref.buckets()[i]) {
      return "bucket " + std::to_string(i);
    }
  }
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    if (!same_bits(s.quantile(q), ref.quantile(q))) {
      return "quantile " + std::to_string(q);
    }
  }
  return "";
}

// A seeded mix of add, reset, copy-assign, copy-construct, move and merge on
// a pair of sketches, mirrored on dense references, checked after every
// step. A third sketch with another config makes copy-assignment take the
// full-copy path, in both directions.
void run_mirrored_ops(const SketchConfig& config, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "alpha=" << config.alpha
                                    << " buckets=" << config.bucket_count
                                    << " seed=" << seed);
  const SketchConfig foreign{config.alpha * 2.0, config.min_value * 0.5,
                             config.bucket_count / 2 + 3};
  HistogramSketch sketch[2] = {HistogramSketch{config}, HistogramSketch{config}};
  DenseSketch dense[2] = {DenseSketch{config}, DenseSketch{config}};
  HistogramSketch other{foreign};
  DenseSketch other_dense{foreign};

  const double top = HistogramSketch{config}.max_trackable();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Decoded-volt-like bin estimates that repeat, plus the edge cases.
  const double repeated[] = {0.93, 0.95, 0.97, 1.01, 1.01 * (1 + 1e-15)};
  const double edges[] = {0.0,
                          -0.0,
                          -1.0,
                          nan,
                          inf,
                          config.min_value * 0.25,
                          config.min_value,
                          top,
                          top * 10.0};
  stats::Xoshiro256 rng(seed);
  double alternate[2] = {repeated[0], repeated[3]};
  std::size_t phase = 0;

  for (int step = 0; step < 4000; ++step) {
    const std::size_t i = rng.uniform_index(2);
    const std::size_t j = 1 - i;
    const double u = rng.uniform01();
    std::string op;
    if (u < 0.60) {
      const double w = rng.uniform01();
      double v = 0.0;
      if (w < 0.35) {
        v = repeated[rng.uniform_index(std::size(repeated))];
      } else if (w < 0.60) {
        v = alternate[phase++ % 2];
      } else if (w < 0.75) {
        v = edges[rng.uniform_index(std::size(edges))];
      } else {
        v = rng.uniform(0.0, 2.0 * top);
      }
      // A run of repeats of one value, the memo's best case.
      const std::uint64_t run = rng.bernoulli(0.2) ? 1 + rng.uniform_index(6)
                                                   : 1;
      for (std::uint64_t r = 0; r < run; ++r) {
        sketch[i].add(v);
        dense[i].add(v);
      }
      op = "add";
    } else if (u < 0.66) {
      sketch[i].reset();
      dense[i].reset();
      op = "reset";
    } else if (u < 0.74) {
      sketch[i] = sketch[j];
      dense[i] = dense[j];
      op = "copy-assign";
    } else if (u < 0.78) {
      HistogramSketch copy(sketch[j]);
      sketch[i] = std::move(copy);
      dense[i] = dense[j];
      op = "copy-construct + move-assign";
    } else if (u < 0.81) {
      HistogramSketch moved(std::move(sketch[i]));
      sketch[i] = sketch[j];  // assigning into a moved-from sketch
      sketch[j] = std::move(moved);
      std::swap(dense[i], dense[j]);
      op = "move-construct + swap";
    } else if (u < 0.88) {
      if (sketch[i].config() == sketch[j].config()) {
        sketch[i].merge(sketch[j]);
        dense[i].merge(dense[j]);
        op = "merge";
      } else {
        EXPECT_THROW(sketch[i].merge(sketch[j]), std::logic_error);
        op = "mismatched merge";
      }
    } else if (u < 0.92) {
      for (int k = 0; k < 3; ++k) {
        const double v = rng.uniform(0.0, 2.0);
        other.add(v);
        other_dense.add(v);
      }
      if (rng.bernoulli(0.2)) {
        other.reset();
        other_dense.reset();
      }
      sketch[i] = other;
      dense[i] = other_dense;
      op = "copy-assign from another config";
    } else if (u < 0.96) {
      // Back to the pair's config, through the full-copy path whenever
      // sketch i holds the other config.
      if (sketch[j].config() == config) {
        sketch[i] = sketch[j];
        dense[i] = dense[j];
      } else {
        HistogramSketch fresh{config};
        DenseSketch fresh_dense{config};
        fresh.add(repeated[1]);
        fresh_dense.add(repeated[1]);
        sketch[i] = fresh;
        dense[i] = fresh_dense;
      }
      op = "copy-assign back";
    } else {
      alternate[0] = repeated[rng.uniform_index(std::size(repeated))];
      alternate[1] = rng.uniform(0.5, 1.5);
      op = "new alternation";
    }
    for (std::size_t k = 0; k < 2; ++k) {
      ASSERT_EQ(diff(sketch[k], dense[k]), "")
          << "step " << step << " (" << op << ") sketch " << k;
    }
  }
}

TEST(HistogramSketch, SpanTrackingAndMemoMatchDenseReference) {
  for (const SketchConfig& config :
       {SketchConfig{0.005, 0.5, 160}, SketchConfig{0.025, 0.01, 288},
        SketchConfig{0.01, 0.5, 32}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      run_mirrored_ops(config, seed);
    }
  }
}

}  // namespace
}  // namespace psnt::serve
