#include "core/thermometer.h"

#include "util/error.h"

namespace psnt::core {

Measurement NoiseThermometer::measure_vdd(const analog::RailPair& rails,
                                          Picoseconds start, DelayCode code) {
  MeasureRequest req;
  req.start = start;
  req.target = SenseTarget::kVdd;
  req.code = code;
  return engine_.measure(req, rails);
}

std::vector<Measurement> NoiseThermometer::iterate_vdd(
    const analog::RailPair& rails, Picoseconds start, Picoseconds interval,
    std::size_t count, DelayCode code) {
  PSNT_CHECK(interval.value() > 0.0, "iteration interval must be positive");
  std::vector<Measurement> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(
        measure_vdd(rails, start + interval * static_cast<double>(k), code));
  }
  return out;
}

}  // namespace psnt::core
