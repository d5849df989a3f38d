// Log-bucketed histogram sketch with bounded relative quantile error.
//
// The serving layer's distribution summary (DESIGN.md §13): a DDSketch-style
// fixed-memory sketch whose buckets grow geometrically by
// gamma = (1 + alpha) / (1 - alpha). Bucket i covers
// (min_value·gamma^(i-1), min_value·gamma^i], so reporting the bucket's
// harmonic midpoint min_value·gamma^i·2/(1+gamma) answers any quantile with
// relative error ≤ alpha for values inside the trackable range
// [min_value, max_trackable()]. Values below clamp into bucket 0, values
// above into the last bucket, and non-positive values land in a dedicated
// zero bucket — the sketch never grows, never allocates after construction,
// and never loses a count.
//
// Two sketches with the same SketchConfig merge by bucket-wise addition,
// which is exact: merge(a, b) holds the identical counts to a sketch that
// ingested both streams. That property is what lets the store publish
// per-shard / per-window sketches and have the query side combine them
// without widening the error bound.
//
// Ingest cost: add() remembers the last positive value and its bucket, so a
// stream that repeats values (decoded volts are bin estimates; a batch's
// latency is constant) skips the log. Each sketch also tracks its occupied
// bucket span [lo, hi): reset() zeroes only that span, and copy-assignment
// between sketches of one config clears the old span and copies the new
// one — a 160-bucket window slot holding a few buckets costs a few words,
// not 1.3 KB. merge() and quantile() walk every bucket.
//
// Thread-compatibility: none. One writer per instance; snapshots are plain
// copies taken by that writer (the store's snapshot publication, store.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psnt::serve {

struct SketchConfig {
  // Target relative accuracy of quantile estimates, 0 < alpha < 1.
  double alpha = 0.01;
  // Lower edge of the trackable range; positive values at or below it share
  // bucket 0.
  double min_value = 1e-3;
  // Fixed bucket count — the sketch's whole memory footprint.
  std::size_t bucket_count = 128;

  friend bool operator==(const SketchConfig&, const SketchConfig&) = default;
};

class HistogramSketch {
 public:
  HistogramSketch() : HistogramSketch(SketchConfig{}) {}
  explicit HistogramSketch(const SketchConfig& config);

  HistogramSketch(const HistogramSketch&) = default;
  HistogramSketch(HistogramSketch&&) noexcept = default;
  // Touches only the two occupied spans when both sketches share a config
  // and bucket array size; a full copy otherwise.
  HistogramSketch& operator=(const HistogramSketch& other);
  HistogramSketch& operator=(HistogramSketch&&) noexcept = default;

  void add(double v);
  // Bucket-wise addition; both sketches must share one SketchConfig.
  void merge(const HistogramSketch& other);
  void reset();

  [[nodiscard]] const SketchConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t zero_count() const { return zero_count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  // Observed extremes (exact, not bucketed); 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // Quantile estimate, q in [0, 1]; 0 when empty. Relative error ≤ alpha
  // for values within [min_value, max_trackable()]; estimates are clamped
  // to the observed [min, max] so edge quantiles stay sane.
  [[nodiscard]] double quantile(double q) const;

  // Largest value bucketed without clamping: min_value·gamma^(buckets-1).
  [[nodiscard]] double max_trackable() const;
  // Harmonic midpoint reported for bucket i.
  [[nodiscard]] double bucket_estimate(std::size_t i) const;
  [[nodiscard]] std::size_t bucket_index(double v) const;
  [[nodiscard]] std::uint64_t bucket_count_at(std::size_t i) const {
    return buckets_[i];
  }

 private:
  SketchConfig config_;
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  double inv_min_ = 0.0;
  std::vector<std::uint64_t> buckets_;
  // Occupied span: every bucket outside [lo_, hi_) is zero; lo_ = size,
  // hi_ = 0 while no bucket is.
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  // add()'s memo of bucket_index(last_v_); 0 matches no positive value.
  double last_v_ = 0.0;
  std::size_t last_bucket_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;  // non-positive values
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace psnt::serve
