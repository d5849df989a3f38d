#include "core/streaming_encoder.h"

#include <bit>

#include "util/error.h"

namespace psnt::core {
namespace {

// Canonical thermometer masks by population count: kCanonical[k] is the word
// with the k low bits set (ThermoWord::of_count without the object). Indexed
// up to kMaxBits inclusive.
constexpr std::array<std::uint32_t, ThermoWord::kMaxBits + 1> make_canonical() {
  std::array<std::uint32_t, ThermoWord::kMaxBits + 1> table{};
  for (std::size_t k = 0; k <= ThermoWord::kMaxBits; ++k) {
    table[k] = k == 0 ? 0u : (k >= 32 ? ~0u : ((1u << k) - 1u));
  }
  return table;
}

constexpr auto kCanonical = make_canonical();

}  // namespace

EncodedWord StreamingEncoder::encode(const ThermoWord& word) {
  const std::uint32_t bits = word.raw();
  const auto ones = static_cast<std::size_t>(std::popcount(bits));

  EncodedWord out;
  // popcount(bits ^ canonical-with-same-popcount): exactly
  // ThermoWord::bubble_error_count(), without materializing the canonical
  // word per call.
  out.bubble_errors =
      static_cast<std::uint8_t>(std::popcount(bits ^ kCanonical[ones]));

  std::size_t count = ones;
  switch (policy_) {
    case BubblePolicy::kMajority:
      break;
    case BubblePolicy::kReject:
      out.valid = word.is_valid_thermometer();
      break;
    case BubblePolicy::kFirstZero:
      // Ripple count = run of trailing ones. Bits beyond the width are zero
      // by ThermoWord's invariant, so this never overcounts.
      count = static_cast<std::size_t>(std::countr_one(bits));
      break;
  }

  out.count = static_cast<std::uint8_t>(count);
  out.binary = out.count;
  out.underflow = count == 0;
  out.overflow = count == word.width();

  ++stats_.words;
  if (out.underflow) ++stats_.underflows;
  if (out.overflow) ++stats_.overflows;
  if (out.bubble_errors > 0) {
    ++stats_.bubbled_words;
    stats_.bubble_errors += out.bubble_errors;
  }
  if (!out.valid) ++stats_.rejected;
  return out;
}

void StreamingEncoder::encode_span(const ThermoWord* words, std::size_t count,
                                   EncodedWord* out) {
  for (std::size_t i = 0; i < count; ++i) out[i] = encode(words[i]);
}

DecodeLadder::DecodeLadder(const SensorArray& array, const PulseGenerator& pg)
    : bits_(array.bits()) {
  for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
    ladders_[c] = array.sorted_thresholds(pg.skew(DelayCode{c}));
    // Resolve every possible popcount's bin now; the doubles land in the
    // memo untouched, so the table read is bit-identical to the indexed
    // ladder lookup it replaces.
    const auto& thr = ladders_[c];
    bins_[c].resize(bits_ + 1);
    for (std::size_t k = 0; k <= bits_; ++k) {
      VoltageBin bin;
      if (k > 0) bin.lo = thr[k - 1];
      if (k < thr.size()) bin.hi = thr[k];
      bins_[c][k] = bin;
    }
  }
}

VoltageBin DecodeLadder::decode(const ThermoWord& word, DelayCode code) const {
  PSNT_CHECK(word.width() == bits_, "word width does not match the ladder");
  // Same reading SensorArray::decode derives via
  // bubble_corrected().count_ones(): correction preserves the popcount.
  return bins_[code.value()][word.count_ones()];
}

void DecodeLadder::decode_span(const ThermoWord* words, const DelayCode* codes,
                               std::size_t count, VoltageBin* out) const {
  for (std::size_t i = 0; i < count; ++i) {
    PSNT_CHECK(words[i].width() == bits_,
               "word width does not match the ladder");
    out[i] = bins_[codes[i].value()][words[i].count_ones()];
  }
}

VoltageBin DecodeLadder::decode_gnd(const ThermoWord& word, DelayCode code,
                                    Volt v_nominal) const {
  const VoltageBin vdd_bin = decode(word, code);
  VoltageBin gnd;
  if (vdd_bin.hi) gnd.lo = v_nominal - *vdd_bin.hi;
  if (vdd_bin.lo) gnd.hi = v_nominal - *vdd_bin.lo;
  return gnd;
}

}  // namespace psnt::core
