#include "core/encoder.h"

namespace psnt::core {

EncodedWord Encoder::encode(const ThermoWord& word) const {
  EncodedWord out;
  out.bubble_errors = static_cast<std::uint8_t>(word.bubble_error_count());

  std::size_t count = 0;
  switch (policy_) {
    case BubblePolicy::kMajority:
      count = word.count_ones();
      break;
    case BubblePolicy::kReject:
      count = word.count_ones();
      out.valid = word.is_valid_thermometer();
      break;
    case BubblePolicy::kFirstZero:
      while (count < word.width() && word.bit(count)) ++count;
      break;
  }

  out.count = static_cast<std::uint8_t>(count);
  out.binary = out.count;
  out.underflow = count == 0;
  out.overflow = count == word.width();
  return out;
}

}  // namespace psnt::core
