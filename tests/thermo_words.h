// Word literals for tests: thermo_word("0011111") parses a thermometer word
// printed MSB first (s[0] is the highest-threshold cell), as the paper
// prints its words.
#pragma once

#include <string>

#include "core/thermo_code.h"
#include "util/error.h"

namespace psnt::core {

inline ThermoWord thermo_word(const std::string& s) {
  PSNT_CHECK(!s.empty() && s.size() <= ThermoWord::kMaxBits,
             "bad thermometer string");
  ThermoWord word{0, s.size()};
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[s.size() - 1 - i];
    PSNT_CHECK(c == '0' || c == '1', "thermometer string must be binary");
    word.set_bit(i, c == '1');
  }
  return word;
}

}  // namespace psnt::core
