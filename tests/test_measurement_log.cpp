#include "core/measurement_log.h"

#include <gtest/gtest.h>

#include "analog/rail.h"
#include "calib/fit.h"
#include "core/thermometer.h"
#include "thermo_words.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

Measurement make_measurement(std::size_t ones, double lo, double hi) {
  Measurement m;
  m.word = ThermoWord::of_count(ones, 7);
  if (ones > 0) m.bin.lo = Volt{lo};
  if (ones < 7) m.bin.hi = Volt{hi};
  return m;
}

TEST(MeasurementLog, StartsEmpty) {
  MeasurementLog log{7};
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.word_width(), 7u);
  EXPECT_FALSE(log.worst().has_value());
  EXPECT_DOUBLE_EQ(log.out_of_range_fraction(), 0.0);
}

TEST(MeasurementLog, HistogramCountsReadings) {
  MeasurementLog log{7};
  log.record(make_measurement(3, 0.93, 0.96));
  log.record(make_measurement(3, 0.93, 0.96));
  log.record(make_measurement(5, 0.99, 1.02));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count_histogram()[3], 2u);
  EXPECT_EQ(log.count_histogram()[5], 1u);
  EXPECT_EQ(log.count_histogram()[0], 0u);
}

TEST(MeasurementLog, TracksOutOfRange) {
  MeasurementLog log{7};
  log.record(make_measurement(0, 0.0, 0.83));   // underflow
  log.record(make_measurement(7, 1.05, 0.0));   // overflow
  log.record(make_measurement(4, 0.96, 0.99));
  EXPECT_EQ(log.underflows(), 1u);
  EXPECT_EQ(log.overflows(), 1u);
  EXPECT_NEAR(log.out_of_range_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(MeasurementLog, WorstAndBestByEstimate) {
  MeasurementLog log{7};
  log.record(make_measurement(2, 0.896, 0.929));
  log.record(make_measurement(6, 1.021, 1.053));
  log.record(make_measurement(4, 0.9605, 0.992));
  ASSERT_TRUE(log.worst() && log.best());
  EXPECT_EQ(log.worst()->word.count_ones(), 2u);
  EXPECT_EQ(log.best()->word.count_ones(), 6u);
}

TEST(MeasurementLog, CountsBubbledWords) {
  MeasurementLog log{7};
  Measurement m;
  m.word = thermo_word("0101111");
  m.bin.lo = Volt{0.99};
  m.bin.hi = Volt{1.02};
  log.record(m);
  EXPECT_EQ(log.bubbled_words(), 1u);
  // The bubbled word still lands in the popcount-5 bucket.
  EXPECT_EQ(log.count_histogram()[5], 1u);
}

TEST(MeasurementLog, RejectsWidthMismatch) {
  MeasurementLog log{7};
  Measurement m;
  m.word = ThermoWord::of_count(2, 5);
  EXPECT_THROW(log.record(m), std::logic_error);
  EXPECT_THROW(MeasurementLog{0}, std::logic_error);
}

TEST(MeasurementLog, EndToEndWithIteratedMeasures) {
  auto thermometer = calib::make_paper_thermometer(calib::calibrated().model);
  analog::CallbackRail vdd{[](Picoseconds t) {
    // Saw-tooth between 0.95 and 1.00 V.
    const double phase = std::fmod(t.value(), 40000.0) / 40000.0;
    return Volt{0.95 + 0.05 * phase};
  }};
  MeasurementLog log{7};
  log.record_all(thermometer.iterate_vdd(analog::RailPair{&vdd, nullptr},
                                         0.0_ps, 7000.0_ps, 40,
                                         core::DelayCode{3}));
  EXPECT_EQ(log.size(), 40u);
  EXPECT_EQ(log.underflows() + log.overflows(), 0u);
  // Readings concentrate in the 0.95–1.00 V bins (counts 3..5).
  const auto& h = log.count_histogram();
  EXPECT_EQ(h[0] + h[1] + h[7], 0u);
  EXPECT_GT(h[3] + h[4] + h[5], 30u);
  EXPECT_LT(log.worst()->bin.estimate().value(),
            log.best()->bin.estimate().value());
}

}  // namespace
}  // namespace psnt::core
