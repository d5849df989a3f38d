#include "core/measurement_log.h"

#include "util/error.h"

namespace psnt::core {

MeasurementLog::MeasurementLog(std::size_t word_width)
    : count_histogram_(word_width + 1, 0) {
  PSNT_CHECK(word_width > 0, "word width must be positive");
}

void MeasurementLog::record(const Measurement& m) {
  PSNT_CHECK(m.word.width() == word_width(),
             "measurement width does not match the log");
  const std::size_t count = m.word.bubble_corrected().count_ones();
  ++count_histogram_[count];
  ++total_;
  if (count == 0) ++underflows_;
  if (count == word_width()) ++overflows_;
  if (!m.word.is_valid_thermometer()) ++bubbled_;

  const double est = m.bin.estimate().value();
  if (!worst_ || est < worst_->bin.estimate().value()) worst_ = m;
  if (!best_ || est > best_->bin.estimate().value()) best_ = m;
}

void MeasurementLog::record_all(const std::vector<Measurement>& ms) {
  for (const auto& m : ms) record(m);
}

double MeasurementLog::out_of_range_fraction() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(underflows_ + overflows_) /
         static_cast<double>(total_);
}

}  // namespace psnt::core
