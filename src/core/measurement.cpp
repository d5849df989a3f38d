#include "core/measurement.h"

#include <sstream>

namespace psnt::core {

std::string DelayCode::to_string() const {
  std::string s(3, '0');
  for (int b = 0; b < 3; ++b) {
    if (value_ & (1u << b)) s[static_cast<std::size_t>(2 - b)] = '1';
  }
  return s;
}

Volt VoltageBin::estimate() const {
  if (lo && hi) return Volt{0.5 * (lo->value() + hi->value())};
  if (lo) return *lo;
  if (hi) return *hi;
  return Volt{0.0};
}

Measurement assemble_measurement(const RawSample& raw, const VoltageBin& bin) {
  Measurement m;
  m.timestamp = raw.timestamp;
  m.target = raw.target;
  m.code = raw.code;
  m.word = raw.word;
  m.bin = bin;
  return m;
}

std::string VoltageBin::to_string() const {
  std::ostringstream os;
  if (lo && hi) {
    os << "[" << lo->value() << " V, " << hi->value() << " V)";
  } else if (hi) {
    os << "below " << hi->value() << " V";
  } else if (lo) {
    os << "at or above " << lo->value() << " V";
  } else {
    os << "(unbounded)";
  }
  return os.str();
}

}  // namespace psnt::core
