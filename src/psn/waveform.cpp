#include "psn/waveform.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"

namespace psnt::psn {

Waveform::Waveform(Picoseconds start, Picoseconds period,
                   std::vector<double> samples)
    : start_(start), period_(period), samples_(std::move(samples)) {
  PSNT_CHECK(period_.value() > 0.0, "waveform period must be positive");
  PSNT_CHECK(!samples_.empty(), "waveform needs at least one sample");
}

double Waveform::value_at(Picoseconds t) const {
  const double pos = (t - start_).value() / period_.value();
  if (pos <= 0.0) return samples_.front();
  const auto last = static_cast<double>(samples_.size() - 1);
  if (pos >= last) return samples_.back();
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
}

double Waveform::min() const {
  return *std::min_element(samples_.begin(), samples_.end());
}

double Waveform::max() const {
  return *std::max_element(samples_.begin(), samples_.end());
}

double Waveform::mean() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Waveform::rms_ripple() const {
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

Picoseconds Waveform::time_of_min() const {
  const auto it = std::min_element(samples_.begin(), samples_.end());
  const auto idx = static_cast<double>(std::distance(samples_.begin(), it));
  return start_ + period_ * idx;
}

Waveform Waveform::map(const std::function<double(double)>& f) const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (double s : samples_) out.push_back(f(s));
  return Waveform{start_, period_, std::move(out)};
}

analog::SampledRail Waveform::to_rail() const {
  return analog::SampledRail{start_, period_, samples_};
}

Waveform Waveform::constant(Picoseconds start, Picoseconds period,
                            std::size_t n, double value) {
  return Waveform{start, period, std::vector<double>(n, value)};
}

}  // namespace psnt::psn
