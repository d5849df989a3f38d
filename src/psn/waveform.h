// Uniformly sampled analog waveforms.
//
// The PDN solver produces rail-voltage waveforms; the sensor consumes them
// through analog::SampledRail. A Waveform is immutable-by-convention sampled
// data plus the statistics the experiments need (droop depth, peak-to-peak,
// rms ripple).
#pragma once

#include <functional>
#include <vector>

#include "analog/rail.h"
#include "util/units.h"

namespace psnt::psn {

class Waveform {
 public:
  Waveform(Picoseconds start, Picoseconds period, std::vector<double> samples);

  [[nodiscard]] Picoseconds start() const { return start_; }
  [[nodiscard]] Picoseconds period() const { return period_; }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] Picoseconds duration() const {
    return period_ * static_cast<double>(size() == 0 ? 0 : size() - 1);
  }
  [[nodiscard]] Picoseconds end() const { return start_ + duration(); }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  // Linear interpolation, clamped at the ends.
  [[nodiscard]] double value_at(Picoseconds t) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double peak_to_peak() const { return max() - min(); }
  // RMS of the deviation from the mean (ripple).
  [[nodiscard]] double rms_ripple() const;
  // Time at which the global minimum is reached (the droop bottom).
  [[nodiscard]] Picoseconds time_of_min() const;

  // Pointwise transformation.
  [[nodiscard]] Waveform map(const std::function<double(double)>& f) const;

  // Renders to a rail source the simulator can sample.
  [[nodiscard]] analog::SampledRail to_rail() const;

  // --- constructors for synthetic shapes -----------------------------------
  static Waveform constant(Picoseconds start, Picoseconds period,
                           std::size_t n, double value);

 private:
  Picoseconds start_;
  Picoseconds period_;
  std::vector<double> samples_;
};

}  // namespace psnt::psn
