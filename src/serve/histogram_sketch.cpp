#include "serve/histogram_sketch.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace psnt::serve {

HistogramSketch::HistogramSketch(const SketchConfig& config)
    : config_(config) {
  PSNT_CHECK(config.alpha > 0.0 && config.alpha < 1.0,
             "sketch alpha must be in (0, 1)");
  PSNT_CHECK(config.min_value > 0.0, "sketch min_value must be positive");
  PSNT_CHECK(config.bucket_count > 0, "sketch needs at least one bucket");
  gamma_ = (1.0 + config.alpha) / (1.0 - config.alpha);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  inv_min_ = 1.0 / config.min_value;
  buckets_.assign(config.bucket_count, 0);
  lo_ = buckets_.size();
}

HistogramSketch& HistogramSketch::operator=(const HistogramSketch& other) {
  if (this == &other) return *this;
  if (config_ == other.config_ && buckets_.size() == other.buckets_.size()) {
    // Both sketches are zero outside their spans: clearing ours and copying
    // theirs leaves the buckets equal.
    if (lo_ < hi_) {
      std::fill(buckets_.begin() + static_cast<std::ptrdiff_t>(lo_),
                buckets_.begin() + static_cast<std::ptrdiff_t>(hi_), 0);
    }
    if (other.lo_ < other.hi_) {
      std::copy(other.buckets_.begin() + static_cast<std::ptrdiff_t>(other.lo_),
                other.buckets_.begin() + static_cast<std::ptrdiff_t>(other.hi_),
                buckets_.begin() + static_cast<std::ptrdiff_t>(other.lo_));
    }
  } else {
    buckets_ = other.buckets_;
  }
  config_ = other.config_;
  gamma_ = other.gamma_;
  inv_log_gamma_ = other.inv_log_gamma_;
  inv_min_ = other.inv_min_;
  lo_ = other.lo_;
  hi_ = other.hi_;
  last_v_ = other.last_v_;
  last_bucket_ = other.last_bucket_;
  count_ = other.count_;
  zero_count_ = other.zero_count_;
  sum_ = other.sum_;
  min_ = other.min_;
  max_ = other.max_;
  return *this;
}

std::size_t HistogramSketch::bucket_index(double v) const {
  // ceil(log_gamma(v / min_value)), clamped into the fixed bucket range in
  // floating point, so NaN (bucket 0) and +inf (the last bucket) never reach
  // an out-of-range integer conversion.
  const double r = std::ceil(std::log(v * inv_min_) * inv_log_gamma_);
  if (!(r > 0.0)) return 0;
  const std::size_t last = buckets_.size() - 1;
  if (r >= static_cast<double>(last)) return last;
  return static_cast<std::size_t>(r);
}

void HistogramSketch::add(double v) {
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
  if (v != last_v_) {
    last_v_ = v;
    last_bucket_ = bucket_index(v);
  }
  ++buckets_[last_bucket_];
  lo_ = std::min(lo_, last_bucket_);
  hi_ = std::max(hi_, last_bucket_ + 1);
}

void HistogramSketch::merge(const HistogramSketch& other) {
  PSNT_CHECK(config_ == other.config_,
             "cannot merge sketches with different configs");
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
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
}

void HistogramSketch::reset() {
  if (lo_ < hi_) {
    std::fill(buckets_.begin() + static_cast<std::ptrdiff_t>(lo_),
              buckets_.begin() + static_cast<std::ptrdiff_t>(hi_), 0);
  }
  lo_ = buckets_.size();
  hi_ = 0;
  count_ = 0;
  zero_count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double HistogramSketch::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double HistogramSketch::min() const { return count_ ? min_ : 0.0; }
double HistogramSketch::max() const { return count_ ? max_ : 0.0; }

double HistogramSketch::max_trackable() const {
  return config_.min_value *
         std::pow(gamma_, static_cast<double>(buckets_.size()) - 1.0);
}

double HistogramSketch::bucket_estimate(std::size_t i) const {
  // Harmonic midpoint of (min·gamma^(i-1), min·gamma^i]: relative error to
  // any value in the bucket is ≤ (gamma-1)/(gamma+1) = alpha.
  return config_.min_value * std::pow(gamma_, static_cast<double>(i)) * 2.0 /
         (1.0 + gamma_);
}

double HistogramSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile over the ingested multiset (nearest-rank on the
  // zero-indexed order statistic, matching a sorted-vector reference).
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
    estimate = bucket_estimate(std::min(i, buckets_.size() - 1));
  }
  // The true order statistic lies within the observed extremes, so clamping
  // can only tighten the estimate (and repairs clamped edge buckets).
  return std::clamp(estimate, min_, max_);
}

}  // namespace psnt::serve
