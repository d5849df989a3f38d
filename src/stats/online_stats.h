// Streaming statistics (Welford): count, mean, variance and extremes of a
// series without storing it, mergeable across accumulators.
//
// Used for the serving store's per-site, windowed and global stats. Distributions (quantiles) live in
// serve::HistogramSketch.
#pragma once

#include <cstddef>
#include <limits>

namespace psnt::stats {

class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double range() const { return n_ ? max_ - min_ : 0.0; }

  // Merges another accumulator (parallel Welford combine).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace psnt::stats
