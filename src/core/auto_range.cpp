#include "core/auto_range.h"

#include "util/error.h"

namespace psnt::core {

AutoRangeController::AutoRangeController(AutoRangeConfig config)
    : config_(config), code_(config.initial) {
  PSNT_CHECK(config_.edge_patience >= 1, "edge patience must be >= 1");
}

void AutoRangeController::step_up() {
  if (code_.value() < DelayCode::kCount - 1) {
    code_ = DelayCode{static_cast<std::uint8_t>(code_.value() + 1)};
    ++steps_;
  }
}

void AutoRangeController::step_down() {
  if (code_.value() > 0) {
    code_ = DelayCode{static_cast<std::uint8_t>(code_.value() - 1)};
    ++steps_;
  }
}

DelayCode AutoRangeController::observe(const EncodedWord& reading,
                                       std::size_t word_width) {
  PSNT_CHECK(word_width > 0, "word width must be positive");

  // Hard saturation: react immediately.
  if (reading.underflow) {
    consecutive_low_ = 0;
    consecutive_high_ = 0;
    step_up();
    return code_;
  }
  if (reading.overflow) {
    consecutive_low_ = 0;
    consecutive_high_ = 0;
    step_down();
    return code_;
  }

  // Soft edges: only act after sustained pressure.
  const auto count = static_cast<std::uint32_t>(reading.count);
  const auto full = static_cast<std::uint32_t>(word_width);
  if (count <= 1) {
    consecutive_high_ = 0;
    if (++consecutive_low_ >= config_.edge_patience) {
      consecutive_low_ = 0;
      step_up();
    }
  } else if (count + 1 >= full) {
    consecutive_low_ = 0;
    if (++consecutive_high_ >= config_.edge_patience) {
      consecutive_high_ = 0;
      step_down();
    }
  } else {
    consecutive_low_ = 0;
    consecutive_high_ = 0;
  }
  return code_;
}

}  // namespace psnt::core
