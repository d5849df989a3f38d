#include "core/thermo_code.h"

#include <bit>

#include "util/error.h"

namespace psnt::core {

ThermoWord::ThermoWord(std::uint32_t bits, std::size_t width)
    : bits_(bits), width_(static_cast<std::uint8_t>(width)) {
  PSNT_CHECK(width > 0 && width <= kMaxBits, "thermometer width out of range");
  PSNT_CHECK(width == kMaxBits || (bits >> width) == 0,
             "bits set beyond the declared width");
}

ThermoWord ThermoWord::of_count(std::size_t ones, std::size_t width) {
  PSNT_CHECK(ones <= width, "population count exceeds width");
  const std::uint32_t bits =
      ones == 0 ? 0u
                : (ones >= 32 ? ~0u : ((1u << ones) - 1u));
  return ThermoWord{bits, width};
}

bool ThermoWord::bit(std::size_t i) const {
  PSNT_CHECK(i < width_, "bit index out of range");
  return (bits_ >> i) & 1u;
}

void ThermoWord::set_bit(std::size_t i, bool value) {
  PSNT_CHECK(i < width_, "bit index out of range");
  if (value) {
    bits_ |= (1u << i);
  } else {
    bits_ &= ~(1u << i);
  }
}

std::size_t ThermoWord::count_ones() const {
  return static_cast<std::size_t>(std::popcount(bits_));
}

bool ThermoWord::is_valid_thermometer() const {
  // Ones contiguous from bit 0  ⇔  bits+1 is a power of two.
  return std::has_single_bit(bits_ + 1u) ||
         bits_ == ~0u;  // width 32 all-ones wraps
}

ThermoWord ThermoWord::bubble_corrected() const {
  return of_count(count_ones(), width_);
}

std::string ThermoWord::to_string() const {
  std::string s(width_, '0');
  for (std::size_t i = 0; i < width_; ++i) {
    if (bit(i)) s[width_ - 1 - i] = '1';
  }
  return s;
}

}  // namespace psnt::core
