// Streaming ENC: the drain-pass half of the capture/decode split.
//
// The paper's readout (Fig. 6) captures the FF-array vector first and encodes
// it downstream (ENC → OUTE). StreamingEncoder is that downstream block for
// software consumers that move raw words in bulk and keep ENC tallies — the
// fleet aggregator: it batch-encodes spans of ThermoWords bit-identically to
// core::Encoder while amortizing the bubble bookkeeping (canonical masks
// come from a precomputed table instead of a per-word ThermoWord round-trip)
// and keeping running under/overflow + bubble statistics so telemetry needs
// no second pass. The scan grid's drain keeps no ENC tallies: it reads the
// DecodeLadder alone.
//
// DecodeLadder is the matching voltage-conversion half: the eight per-code
// converter ladders (one sorted_thresholds() solve per DelayCode), computed
// once up front and immutable afterwards, so one can be shared read-only
// across threads — which is what lets the grid decode on the aggregator
// while workers keep capturing. decode() reads the same sorted ladder
// SensorArray::decode does, so bins are bit-identical to it; a
// BehavioralEngine decodes through one DecodeLadder per array.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/encoder.h"
#include "core/measurement.h"
#include "core/pulse_gen.h"
#include "core/sensor_array.h"

namespace psnt::core {

// Running tallies over every word an encoder instance has seen. Cheap enough
// to keep always-on (a handful of adds per word).
struct StreamingEncodeStats {
  std::uint64_t words = 0;
  std::uint64_t underflows = 0;     // encoded count == 0
  std::uint64_t overflows = 0;      // encoded count == width
  std::uint64_t bubbled_words = 0;  // words with >= 1 bubble error
  std::uint64_t bubble_errors = 0;  // total bubble-error bits
  std::uint64_t rejected = 0;       // kReject policy: invalid words
};

class StreamingEncoder {
 public:
  explicit StreamingEncoder(BubblePolicy policy = BubblePolicy::kMajority)
      : policy_(policy) {}

  // Bit-identical to Encoder{policy}.encode(word); also feeds stats().
  EncodedWord encode(const ThermoWord& word);

  // Encodes `count` words into `out` (caller-sized). The batch entry point
  // the drain pass uses; equivalent to calling encode() per word.
  void encode_span(const ThermoWord* words, std::size_t count,
                   EncodedWord* out);

  [[nodiscard]] const StreamingEncodeStats& stats() const { return stats_; }

 private:
  BubblePolicy policy_;
  StreamingEncodeStats stats_;
};

// Immutable per-code converter ladders for one sensor array + pulse
// generator. All eight DelayCode skews are solved in the constructor; after
// that every decode is a table lookup, safe to share across threads.
class DecodeLadder {
 public:
  DecodeLadder() = default;
  DecodeLadder(const SensorArray& array, const PulseGenerator& pg);

  [[nodiscard]] std::size_t bits() const { return bits_; }
  [[nodiscard]] bool empty() const { return bits_ == 0; }
  [[nodiscard]] const std::vector<Volt>& thresholds(DelayCode code) const {
    return ladders_[code.value()];
  }

  // Bit-identical to SensorArray::decode at pg.skew(code).
  [[nodiscard]] VoltageBin decode(const ThermoWord& word, DelayCode code) const;
  // Bulk form of decode(): converts `count` parallel (word, code) pairs into
  // `out` (caller-sized). One bounds check up front instead of per word —
  // the drain pass runs this over each batch it pops off a shard ring.
  void decode_span(const ThermoWord* words, const DelayCode* codes,
                   std::size_t count, VoltageBin* out) const;
  // GND-n view, mirroring SensorArray::decode_gnd.
  [[nodiscard]] VoltageBin decode_gnd(const ThermoWord& word, DelayCode code,
                                      Volt v_nominal) const;

 private:
  std::size_t bits_ = 0;
  std::array<std::vector<Volt>, DelayCode::kCount> ladders_;
  // Fully-resolved bins, indexed [code][popcount]: a word's bin is a pure
  // function of its ones count, and there are only bits_+1 counts per code,
  // so decode_span reduces to popcount + one table read per word.
  std::array<std::vector<VoltageBin>, DelayCode::kCount> bins_;
};

}  // namespace psnt::core
