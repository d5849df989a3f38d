// ENC block (Fig. 6): encodes the FF-array output vector into the noise word
// OUTE handed to the controller.
//
// A flash-style thermometer-to-binary encoder with selectable bubble policy:
//   kReject      — invalid words flag an encode error and keep the raw count
//   kMajority    — population count (inherently bubble-tolerant), the default
//   kFirstZero   — count up to the first zero (classic ripple encoder;
//                  under-reads on bubbles, included as the ablation baseline)
#pragma once

#include <cstdint>

#include "core/thermo_code.h"

namespace psnt::core {

enum class BubblePolicy : std::uint8_t {
  kReject,
  kMajority,
  kFirstZero,
};

struct EncodedWord {
  std::uint8_t count = 0;        // thermometer reading 0..N
  std::uint8_t binary = 0;       // same value, as the OUTE bus contents
  bool valid = true;             // false when kReject saw a bubble
  std::uint8_t bubble_errors = 0;
  // Range flags, paired by the encoded count (a word bit is 1 = "no error",
  // thermo_code.h). The reading saturates LOW when every cell errored and
  // HIGH when none did — tests/test_encoder.cpp pins this pairing against
  // the decode path's below_range()/above_range().
  bool underflow = false;  // count == 0 (every cell in error): value below range
  bool overflow = false;   // count == width (no cell in error): value above range
};

class Encoder {
 public:
  explicit Encoder(BubblePolicy policy = BubblePolicy::kMajority)
      : policy_(policy) {}

  [[nodiscard]] BubblePolicy policy() const { return policy_; }

  [[nodiscard]] EncodedWord encode(const ThermoWord& word) const;

 private:
  BubblePolicy policy_;
};

}  // namespace psnt::core
