// Internal Delay-Code policy (CNTR's autonomous mode).
//
// Sec. III-B: "The control can receive from the external circuits the Delay
// Code or can define and set them internally according to a policy not
// reported for sake of brevity." This module supplies a concrete such
// policy: a saturating up/down stepper with hysteresis.
//
//   * reading underflows (all errors)  → the rail is below the window:
//     step the code UP (larger skew → lower window).
//   * reading overflows (no errors)    → the rail is above the window:
//     step the code DOWN.
//   * in-range readings in an edge bin (a count of 1, or one short of full
//     scale) are tolerated for `edge_patience` consecutive measures before
//     stepping, to avoid hunting on a rail that merely rings across the
//     window edge.
//
// The controller is deliberately stateless about absolute voltages — it only
// sees the encoded word, exactly like the real CNTR block would.
#pragma once

#include <cstdint>

#include "core/encoder.h"
#include "core/measurement.h"

namespace psnt::core {

struct AutoRangeConfig {
  DelayCode initial{3};
  // Consecutive edge-bin readings tolerated before a proactive step.
  std::uint32_t edge_patience = 3;
};

class AutoRangeController {
 public:
  AutoRangeController() : AutoRangeController(AutoRangeConfig{}) {}
  explicit AutoRangeController(AutoRangeConfig config);

  [[nodiscard]] DelayCode code() const { return code_; }
  [[nodiscard]] std::uint64_t steps_taken() const { return steps_; }

  // Feeds one encoded reading; returns the code to use for the NEXT measure.
  DelayCode observe(const EncodedWord& reading, std::size_t word_width);

 private:
  void step_up();
  void step_down();

  AutoRangeConfig config_;
  DelayCode code_;
  std::uint32_t consecutive_low_ = 0;
  std::uint32_t consecutive_high_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace psnt::core
