// Versioned binary wire format for core::RawSample streams (DESIGN.md §15).
//
// The fleet layer moves the capture/encode split (Fig. 6) across process
// boundaries: worker processes ship the FF-array capture records — exactly
// core::RawSample, already a wire-sized value — and the aggregator's drain
// pass owns ENC + voltage conversion, unchanged. This header defines the one
// serialization both sides speak:
//
//   * every multi-byte field is little-endian ON THE WIRE regardless of host
//     order (encode/decode go through explicit byte shifts, so big-endian
//     hosts interoperate);
//   * samples travel in *framed spans*: a fixed 16-byte header (magic,
//     protocol version, frame type, payload length, payload CRC32) followed
//     by the payload, so a reader can (a) reject garbage before touching it
//     and (b) pop whole spans into the existing drain path with zero
//     per-sample dispatch;
//   * decode is zero-copy in the sense that a parsed frame exposes the
//     payload bytes in place — decode_samples() walks them straight into the
//     caller's RawSample span without intermediate buffers.
//
// Robustness contract (tests/test_wire_format.cpp): truncated input, flipped
// bits (CRC), unknown versions, oversized lengths and arbitrary garbage all
// surface as a clean WireError — never a crash, never a silently corrupted
// sample. A parser that has reported an error stays in the error state until
// reset(): stream framing has no resync point by design (the transports
// below it are reliable byte streams; a framing error means the peer is
// broken, and the connection-level remedy — drop + quarantine — belongs to
// the resilience layer, not here).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/measurement.h"

namespace psnt::net {

// Bumped whenever the sample record or frame layout changes; a decoder
// rejects every other version (kBadVersion), which is what lets a mixed
// fleet fail fast instead of misinterpreting bytes.
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint32_t kWireMagic = 0x50534E54u;  // "PSNT"

// Frame vocabulary. Data frames carry RawSample spans; control frames carry
// the tiny fixed payloads defined below.
// Values 1 and 5 are unassigned and parse as kBadType.
enum class FrameType : std::uint8_t {
  kAssign = 2,      // coordinator → worker: run this assignment
  kSampleSpan = 3,  // worker → aggregator: SpanHeader + K samples
  kDone = 4,        // worker → aggregator: assignment complete
  kShutdown = 6,    // coordinator → worker: exit cleanly
};
[[nodiscard]] const char* to_string(FrameType type);

// Why a decode failed. kTruncated is also the benign "need more bytes"
// parser state — a connection that dies mid-frame ends in kTruncated, which
// the fleet counts but does not treat as corruption (complete frames before
// the cut were CRC-clean and stay accepted).
enum class WireError : std::uint8_t {
  kTruncated = 1,   // fewer bytes than the header/payload announces
  kBadMagic,        // stream does not start with kWireMagic
  kBadVersion,      // protocol version mismatch
  kBadType,         // unknown FrameType
  kBadLength,       // payload length exceeds kMaxPayloadBytes
  kBadCrc,          // payload checksum mismatch (bit rot / garbage)
  kBadPayload,      // CRC-clean payload violates the record layout
};
[[nodiscard]] const char* to_string(WireError error);

// Frame header layout (16 bytes on the wire):
//   u32 magic | u8 version | u8 type | u16 reserved | u32 payload_len
//   | u32 payload_crc32
inline constexpr std::size_t kFrameHeaderBytes = 16;
// Hard ceiling on a single frame's payload: bounds memory against garbage
// length fields (a random u32 would otherwise ask for up to 4 GiB).
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;

// One core::RawSample on the wire (23 bytes, field-by-field little-endian):
//   u32 site_id | u32 sample_index | u64 timestamp_ps (f64 bit pattern)
//   | u8 target | u8 code | u8 word_width | u32 word_bits
inline constexpr std::size_t kSampleWireBytes = 23;

// IEEE CRC32 (reflected, poly 0xEDB88320) over `size` bytes.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

// --- sample codec ---------------------------------------------------------

// Serializes one sample into exactly kSampleWireBytes at `out`.
void encode_sample(const core::RawSample& sample, std::uint8_t* out);

// Decodes one sample from exactly kSampleWireBytes at `in`. Validates the
// layout invariants (target ∈ {vdd,gnd}, code < 8, width ≤ 32, no word bits
// above the width, finite timestamp) and returns kBadPayload on violation —
// a corrupted record can be *rejected*, never published as a
// plausible-looking sample.
[[nodiscard]] std::optional<WireError> decode_sample(const std::uint8_t* in,
                                                     core::RawSample& out);

// --- control-frame payloads ----------------------------------------------

// kSampleSpan payload prefix (16 bytes): who sent the span, its per-worker
// sequence number, and the sender's CLOCK_MONOTONIC nanosecond timestamp at
// flush time — the aggregator derives flush→drain latency from it (on one
// host CLOCK_MONOTONIC is shared across processes).
struct SpanHeader {
  std::uint32_t worker = 0;
  std::uint32_t seq = 0;
  std::uint64_t send_ns = 0;
};
inline constexpr std::size_t kSpanHeaderBytes = 16;
// Most samples one kSampleSpan frame can carry under kMaxPayloadBytes
// (45,589). A larger span would exceed the parser's length ceiling
// (kBadLength), so senders must flush at or below this bound.
inline constexpr std::size_t kMaxSpanSamples =
    (kMaxPayloadBytes - kSpanHeaderBytes) / kSampleWireBytes;

struct AssignPayload {
  std::uint32_t worker = 0;        // logical worker index to impersonate
  std::uint32_t first_sample = 0;  // schedule row to start at
  std::uint32_t sample_count = 0;
};

struct DonePayload {
  std::uint32_t worker = 0;
  std::uint64_t produced = 0;
};

// --- frame writer ---------------------------------------------------------

// Builds framed messages into a caller-owned byte buffer (appended, so one
// buffer can batch many frames before a single flush — the buffered network
// send pattern the ring→socket bridge uses).
class FrameWriter {
 public:
  // Appends a kSampleSpan frame: header + SpanHeader + count samples.
  static void append_sample_span(std::vector<std::uint8_t>& out,
                                 const SpanHeader& span,
                                 const core::RawSample* samples,
                                 std::size_t count);
  static void append_assign(std::vector<std::uint8_t>& out,
                            const AssignPayload& payload);
  static void append_done(std::vector<std::uint8_t>& out,
                          const DonePayload& payload);
  static void append_shutdown(std::vector<std::uint8_t>& out);
};

// --- frame parser ---------------------------------------------------------

// One parsed frame: type plus a view of the payload bytes inside the
// parser's buffer. Valid until the next next()/feed()/reset() call.
struct Frame {
  FrameType type = FrameType::kSampleSpan;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

// Incremental stream parser: feed() arbitrary byte chunks as they arrive,
// next() yields complete CRC-verified frames. Errors are sticky (see file
// comment); bytes_pending() reports the unconsumed tail (a non-zero value at
// connection EOF means the peer died mid-frame).
class FrameParser {
 public:
  void feed(const std::uint8_t* data, std::size_t size);

  // nullopt: no complete frame buffered (and no error). Frames are yielded
  // in stream order; the payload view stays valid until the next call into
  // the parser.
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool failed() const { return error_.has_value(); }
  [[nodiscard]] std::optional<WireError> error() const { return error_; }
  [[nodiscard]] std::size_t bytes_pending() const {
    return buffer_.size() - consumed_;
  }
  void reset();

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  std::optional<WireError> error_;
};

// --- typed payload decoders ----------------------------------------------
// Each validates the payload size (and field ranges where they exist) and
// returns kBadPayload on mismatch.

[[nodiscard]] std::optional<WireError> decode_span_header(const Frame& frame,
                                                          SpanHeader& out);
// Number of samples in a span frame (after the SpanHeader prefix); errors
// when the remainder is not a whole number of records.
[[nodiscard]] std::optional<WireError> span_sample_count(const Frame& frame,
                                                         std::size_t& out);
// Decodes sample `index` of a span frame into `out`.
[[nodiscard]] std::optional<WireError> decode_span_sample(
    const Frame& frame, std::size_t index, core::RawSample& out);

[[nodiscard]] std::optional<WireError> decode_assign(const Frame& frame,
                                                     AssignPayload& out);
[[nodiscard]] std::optional<WireError> decode_done(const Frame& frame,
                                                   DonePayload& out);

}  // namespace psnt::net
