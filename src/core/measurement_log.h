// Aggregation of measurement series (the data the CNTR "gives to the
// output" for off-chip analysis).
//
// Iterated measures produce a stream of thermometer words; this log keeps
// the summary a bring-up engineer actually reads: reading histogram, worst
// and best decoded bins, out-of-range fractions, and the voltage trajectory
// envelope.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/measurement.h"

namespace psnt::core {

class MeasurementLog {
 public:
  explicit MeasurementLog(std::size_t word_width);

  void record(const Measurement& m);
  void record_all(const std::vector<Measurement>& ms);

  [[nodiscard]] std::size_t size() const { return total_; }
  [[nodiscard]] std::size_t word_width() const {
    return count_histogram_.size() - 1;
  }

  // Occurrences of each thermometer count 0..width.
  [[nodiscard]] const std::vector<std::uint64_t>& count_histogram() const {
    return count_histogram_;
  }
  [[nodiscard]] std::size_t underflows() const { return underflows_; }
  [[nodiscard]] std::size_t overflows() const { return overflows_; }
  [[nodiscard]] double out_of_range_fraction() const;

  // Lowest / highest decoded estimates seen (nullopt when empty).
  [[nodiscard]] std::optional<Measurement> worst() const { return worst_; }
  [[nodiscard]] std::optional<Measurement> best() const { return best_; }

  // Measurements whose raw word carried bubble errors.
  [[nodiscard]] std::size_t bubbled_words() const { return bubbled_; }

 private:
  std::vector<std::uint64_t> count_histogram_;  // width+1 buckets
  std::size_t total_ = 0;
  std::size_t underflows_ = 0;
  std::size_t overflows_ = 0;
  std::size_t bubbled_ = 0;
  std::optional<Measurement> worst_;
  std::optional<Measurement> best_;
};

}  // namespace psnt::core
