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

Waveform Waveform::add(const Waveform& other) const {
  PSNT_CHECK(size() == other.size() &&
                 start_.value() == other.start_.value() &&
                 period_.value() == other.period_.value(),
             "waveform add requires identical sampling grids");
  std::vector<double> out(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    out[i] = samples_[i] + other.samples_[i];
  }
  return Waveform{start_, period_, std::move(out)};
}

analog::SampledRail Waveform::to_rail() const {
  return analog::SampledRail{start_, period_, samples_};
}

Waveform Waveform::constant(Picoseconds start, Picoseconds period,
                            std::size_t n, double value) {
  return Waveform{start, period, std::vector<double>(n, value)};
}

Waveform Waveform::sine(Picoseconds start, Picoseconds period, std::size_t n,
                        double offset, double amplitude, double freq_ghz,
                        double phase_rad) {
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t_ns =
        (start.value() + period.value() * static_cast<double>(i)) * 1e-3;
    samples[i] =
        offset + amplitude * std::sin(2.0 * M_PI * freq_ghz * t_ns + phase_rad);
  }
  return Waveform{start, period, std::move(samples)};
}

Waveform Waveform::damped_droop(Picoseconds start, Picoseconds period,
                                std::size_t n, double offset, double depth,
                                double freq_ghz, Picoseconds decay,
                                Picoseconds t_event) {
  // Normalise so the *actual* first trough reaches `depth` below offset. With
  // envelope e^(-t/tau), the trough of e^(-t/tau)*sin(w t) sits where
  // tan(w t) = w*tau, earlier than the quarter period.
  const double omega_per_ps = 2.0 * M_PI * freq_ghz * 1e-3;
  const double t_trough_ps = std::atan(omega_per_ps * decay.value()) /
                             omega_per_ps;
  const double trough_gain = std::exp(-t_trough_ps / decay.value()) *
                             std::sin(omega_per_ps * t_trough_ps);
  const double amplitude = trough_gain > 1e-12 ? depth / trough_gain : depth;

  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Picoseconds t{start.value() + period.value() * static_cast<double>(i)};
    if (t < t_event) {
      samples[i] = offset;
      continue;
    }
    const double dt_ps = (t - t_event).value();
    const double dt_ns = dt_ps * 1e-3;
    samples[i] = offset - amplitude * std::exp(-dt_ps / decay.value()) *
                              std::sin(2.0 * M_PI * freq_ghz * dt_ns);
  }
  return Waveform{start, period, std::move(samples)};
}

Waveform Waveform::from_function(Picoseconds start, Picoseconds period,
                                 std::size_t n,
                                 const std::function<double(Picoseconds)>& f) {
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i] =
        f(Picoseconds{start.value() + period.value() * static_cast<double>(i)});
  }
  return Waveform{start, period, std::move(samples)};
}

}  // namespace psnt::psn
