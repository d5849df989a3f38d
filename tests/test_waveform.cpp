#include "psn/waveform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

namespace psnt::psn {
namespace {

using namespace psnt::literals;

// --- synthetic shapes --------------------------------------------------------

Waveform from_function(Picoseconds start, Picoseconds period, std::size_t n,
                       const std::function<double(Picoseconds)>& f) {
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i] =
        f(Picoseconds{start.value() + period.value() * static_cast<double>(i)});
  }
  return Waveform{start, period, std::move(samples)};
}

// value(t) = offset + amplitude * sin(2*pi*freq_ghz*t_ns)
Waveform sine(Picoseconds start, Picoseconds period, std::size_t n,
              double offset, double amplitude, double freq_ghz) {
  return from_function(start, period, n, [&](Picoseconds t) {
    const double t_ns = t.value() * 1e-3;
    return offset + amplitude * std::sin(2.0 * M_PI * freq_ghz * t_ns);
  });
}

// Damped sinusoid starting at t_event, the canonical "first droop" shape:
// offset before it, then offset - a * exp(-(t-t_event)/decay) *
// sin(2*pi*f*(t-t_event)), with `a` normalised so the first trough sits
// `depth` below offset. With envelope e^(-t/tau) that trough lies where
// tan(w t) = w*tau, earlier than the quarter period.
Waveform damped_droop(Picoseconds start, Picoseconds period, std::size_t n,
                      double offset, double depth, double freq_ghz,
                      Picoseconds decay, Picoseconds t_event) {
  const double omega_per_ps = 2.0 * M_PI * freq_ghz * 1e-3;
  const double t_trough_ps =
      std::atan(omega_per_ps * decay.value()) / omega_per_ps;
  const double trough_gain = std::exp(-t_trough_ps / decay.value()) *
                             std::sin(omega_per_ps * t_trough_ps);
  const double amplitude = trough_gain > 1e-12 ? depth / trough_gain : depth;
  return from_function(start, period, n, [&](Picoseconds t) {
    if (t < t_event) return offset;
    const double dt_ps = (t - t_event).value();
    const double dt_ns = dt_ps * 1e-3;
    return offset - amplitude * std::exp(-dt_ps / decay.value()) *
                        std::sin(2.0 * M_PI * freq_ghz * dt_ns);
  });
}

TEST(Waveform, InterpolatesAndClamps) {
  Waveform w{0.0_ps, 100.0_ps, {1.0, 0.9, 1.1}};
  EXPECT_DOUBLE_EQ(w.value_at(0.0_ps), 1.0);
  EXPECT_DOUBLE_EQ(w.value_at(50.0_ps), 0.95);
  EXPECT_DOUBLE_EQ(w.value_at(150.0_ps), 1.0);
  EXPECT_DOUBLE_EQ(w.value_at(-50.0_ps), 1.0);
  EXPECT_DOUBLE_EQ(w.value_at(9999.0_ps), 1.1);
}

TEST(Waveform, BasicStats) {
  Waveform w{0.0_ps, 10.0_ps, {1.0, 0.8, 1.2, 1.0}};
  EXPECT_DOUBLE_EQ(w.min(), 0.8);
  EXPECT_DOUBLE_EQ(w.max(), 1.2);
  EXPECT_DOUBLE_EQ(w.mean(), 1.0);
  EXPECT_DOUBLE_EQ(w.peak_to_peak(), 0.4);
  EXPECT_DOUBLE_EQ(w.time_of_min().value(), 10.0);
  EXPECT_NEAR(w.rms_ripple(), std::sqrt(0.08 / 4.0), 1e-12);
}

TEST(Waveform, DurationAndEnd) {
  Waveform w{100.0_ps, 10.0_ps, {0, 0, 0, 0, 0}};
  EXPECT_DOUBLE_EQ(w.duration().value(), 40.0);
  EXPECT_DOUBLE_EQ(w.end().value(), 140.0);
}

TEST(Waveform, MapTransformsEverySample) {
  Waveform a{0.0_ps, 10.0_ps, {1.0, 2.0}};
  const Waveform scaled = a.map([](double v) { return v * 10.0; });
  EXPECT_DOUBLE_EQ(scaled.samples()[1], 20.0);
}

TEST(Waveform, ConstantFactory) {
  const Waveform w = Waveform::constant(0.0_ps, 10.0_ps, 100, 1.0);
  EXPECT_EQ(w.size(), 100u);
  EXPECT_DOUBLE_EQ(w.peak_to_peak(), 0.0);
  EXPECT_DOUBLE_EQ(w.rms_ripple(), 0.0);
}

TEST(Waveform, SineHasExpectedAmplitudeAndPeriod) {
  // 0.1 GHz → 10 ns period; sample for 2 periods at 10 ps.
  const Waveform w = sine(0.0_ps, 10.0_ps, 2001, 1.0, 0.05, 0.1);
  EXPECT_NEAR(w.max(), 1.05, 1e-4);
  EXPECT_NEAR(w.min(), 0.95, 1e-4);
  EXPECT_NEAR(w.mean(), 1.0, 1e-3);
  // Quarter period (2.5 ns) hits the crest.
  EXPECT_NEAR(w.value_at(2500.0_ps), 1.05, 1e-6);
}

TEST(Waveform, DampedDroopShape) {
  // 0.05 GHz (20 ns ring), 5 ns decay, event at 10 ns, 80 mV deep.
  const Waveform w = damped_droop(0.0_ps, 10.0_ps, 6000, 1.0, 0.08, 0.05,
                                 5000.0_ps, 10000.0_ps);
  // Flat before the event.
  EXPECT_DOUBLE_EQ(w.value_at(5000.0_ps), 1.0);
  // The first trough is `depth` below nominal by construction; the decay
  // envelope pulls it earlier than the quarter period: at
  // t_event + atan(w*tau)/w ≈ 10 + 3.2 ns.
  EXPECT_NEAR(w.min(), 0.92, 2e-3);
  EXPECT_NEAR(w.time_of_min().value(), 13200.0, 300.0);
  // Rings back above nominal, then decays toward it.
  EXPECT_GT(w.max(), 1.0);
  EXPECT_NEAR(w.samples().back(), 1.0, 0.01);
}

TEST(Waveform, FromFunction) {
  const Waveform w = from_function(
      0.0_ps, 1.0_ps, 11, [](Picoseconds t) { return t.value() * 2.0; });
  EXPECT_DOUBLE_EQ(w.samples()[5], 10.0);
}

TEST(Waveform, ToRailRoundTrips) {
  const Waveform w = sine(0.0_ps, 10.0_ps, 500, 1.0, 0.05, 0.2);
  const analog::SampledRail rail = w.to_rail();
  for (double t = 0.0; t < 4000.0; t += 333.0) {
    EXPECT_NEAR(rail.at(Picoseconds{t}).value(), w.value_at(Picoseconds{t}),
                1e-12);
  }
}

TEST(Waveform, RejectsBadConstruction) {
  EXPECT_THROW(Waveform(0.0_ps, 0.0_ps, {1.0}), std::logic_error);
  EXPECT_THROW(Waveform(0.0_ps, 1.0_ps, {}), std::logic_error);
}

}  // namespace
}  // namespace psnt::psn
