#include "net/wire.h"

#include <array>
#include <cmath>
#include <cstring>

namespace psnt::net {

namespace {

// --- little-endian primitives --------------------------------------------
// Field-by-field shifts instead of memcpy of host-order structs: the wire
// stays little-endian on any host, and there is no padding to leak.

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

void put_f64(std::uint8_t* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         (static_cast<std::uint64_t>(get_u32(in + 4)) << 32);
}

double get_f64(const std::uint8_t* in) {
  const std::uint64_t bits = get_u64(in);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// --- CRC32 tables (IEEE reflected, slicing-by-8, built at compile time) ---
// tables[0] is the bytewise table; tables[k][b] advances the CRC of byte b
// through k further zero bytes, so eight bytes fold in with eight lookups
// and no serial dependency between them.

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Appends a frame of `type` with `payload_size` payload bytes filled by
// `fill(payload_ptr)`; computes the CRC after fill so every append shares
// one header path.
template <typename Fill>
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::size_t payload_size, Fill&& fill) {
  const std::size_t base = out.size();
  out.resize(base + kFrameHeaderBytes + payload_size);
  std::uint8_t* header = out.data() + base;
  std::uint8_t* payload = header + kFrameHeaderBytes;
  fill(payload);
  put_u32(header, kWireMagic);
  header[4] = kWireVersion;
  header[5] = static_cast<std::uint8_t>(type);
  put_u16(header + 6, 0);  // reserved
  put_u32(header + 8, static_cast<std::uint32_t>(payload_size));
  put_u32(header + 12, crc32(payload, payload_size));
}

bool known_frame_type(std::uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kAssign:
    case FrameType::kSampleSpan:
    case FrameType::kDone:
    case FrameType::kShutdown:
      return true;
  }
  return false;
}

std::optional<WireError> check_payload_size(const Frame& frame,
                                            std::size_t expected) {
  if (frame.payload_size != expected) return WireError::kBadPayload;
  return std::nullopt;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ get_u32(data);
    const std::uint32_t hi = get_u32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void encode_sample(const core::RawSample& sample, std::uint8_t* out) {
  put_u32(out, sample.site_id);
  put_u32(out + 4, sample.sample_index);
  put_f64(out + 8, sample.timestamp.value());
  out[16] = static_cast<std::uint8_t>(sample.target);
  out[17] = sample.code.value();
  out[18] = static_cast<std::uint8_t>(sample.word.width());
  put_u32(out + 19, sample.word.raw());
}

std::optional<WireError> decode_sample(const std::uint8_t* in,
                                       core::RawSample& out) {
  const std::uint8_t target = in[16];
  const std::uint8_t code = in[17];
  const std::uint8_t width = in[18];
  const std::uint32_t bits = get_u32(in + 19);
  if (target > static_cast<std::uint8_t>(core::SenseTarget::kGnd)) {
    return WireError::kBadPayload;
  }
  if (code >= core::DelayCode::kCount) return WireError::kBadPayload;
  if (width == 0 || width > core::ThermoWord::kMaxBits) {
    return WireError::kBadPayload;
  }
  // Bits above the declared width would survive a ThermoWord round-trip as
  // phantom cells; reject rather than silently mask.
  if (width < 32 && (bits >> width) != 0) return WireError::kBadPayload;
  // The timestamp keys the store's rollup windows (WindowRing::epoch_of);
  // NaN or inf there has no window to land in.
  const double timestamp = get_f64(in + 8);
  if (!std::isfinite(timestamp)) return WireError::kBadPayload;
  out.site_id = get_u32(in);
  out.sample_index = get_u32(in + 4);
  out.timestamp = Picoseconds{timestamp};
  out.target = static_cast<core::SenseTarget>(target);
  out.code = core::DelayCode{code};
  out.word = core::ThermoWord{bits, width};
  return std::nullopt;
}

void FrameWriter::append_sample_span(std::vector<std::uint8_t>& out,
                                     const SpanHeader& span,
                                     const core::RawSample* samples,
                                     std::size_t count) {
  const std::size_t payload_size =
      kSpanHeaderBytes + count * kSampleWireBytes;
  append_frame(out, FrameType::kSampleSpan, payload_size,
               [&](std::uint8_t* payload) {
                 put_u32(payload, span.worker);
                 put_u32(payload + 4, span.seq);
                 put_u64(payload + 8, span.send_ns);
                 for (std::size_t i = 0; i < count; ++i) {
                   encode_sample(samples[i],
                                 payload + kSpanHeaderBytes +
                                     i * kSampleWireBytes);
                 }
               });
}

void FrameWriter::append_assign(std::vector<std::uint8_t>& out,
                                const AssignPayload& payload) {
  append_frame(out, FrameType::kAssign, 12, [&](std::uint8_t* p) {
    put_u32(p, payload.worker);
    put_u32(p + 4, payload.first_sample);
    put_u32(p + 8, payload.sample_count);
  });
}

void FrameWriter::append_done(std::vector<std::uint8_t>& out,
                              const DonePayload& payload) {
  append_frame(out, FrameType::kDone, 12, [&](std::uint8_t* p) {
    put_u32(p, payload.worker);
    put_u64(p + 4, payload.produced);
  });
}

void FrameWriter::append_shutdown(std::vector<std::uint8_t>& out) {
  append_frame(out, FrameType::kShutdown, 0, [](std::uint8_t*) {});
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  if (error_) return;
  // Compact before growing: consumed frames would otherwise pin the buffer
  // front forever on a long-lived connection.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameParser::next() {
  if (error_) return std::nullopt;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* header = buffer_.data() + consumed_;
  if (get_u32(header) != kWireMagic) {
    error_ = WireError::kBadMagic;
    return std::nullopt;
  }
  if (header[4] != kWireVersion) {
    error_ = WireError::kBadVersion;
    return std::nullopt;
  }
  if (!known_frame_type(header[5])) {
    error_ = WireError::kBadType;
    return std::nullopt;
  }
  const std::uint32_t payload_len = get_u32(header + 8);
  if (payload_len > kMaxPayloadBytes) {
    error_ = WireError::kBadLength;
    return std::nullopt;
  }
  if (avail < kFrameHeaderBytes + payload_len) return std::nullopt;
  const std::uint8_t* payload = header + kFrameHeaderBytes;
  if (crc32(payload, payload_len) != get_u32(header + 12)) {
    error_ = WireError::kBadCrc;
    return std::nullopt;
  }
  consumed_ += kFrameHeaderBytes + payload_len;
  Frame frame;
  frame.type = static_cast<FrameType>(header[5]);
  frame.payload = payload;
  frame.payload_size = payload_len;
  return frame;
}

std::optional<WireError> decode_span_header(const Frame& frame,
                                            SpanHeader& out) {
  if (frame.type != FrameType::kSampleSpan ||
      frame.payload_size < kSpanHeaderBytes) {
    return WireError::kBadPayload;
  }
  out.worker = get_u32(frame.payload);
  out.seq = get_u32(frame.payload + 4);
  out.send_ns = get_u64(frame.payload + 8);
  return std::nullopt;
}

std::optional<WireError> span_sample_count(const Frame& frame,
                                           std::size_t& out) {
  if (frame.type != FrameType::kSampleSpan ||
      frame.payload_size < kSpanHeaderBytes) {
    return WireError::kBadPayload;
  }
  const std::size_t body = frame.payload_size - kSpanHeaderBytes;
  if (body % kSampleWireBytes != 0) return WireError::kBadPayload;
  out = body / kSampleWireBytes;
  return std::nullopt;
}

std::optional<WireError> decode_span_sample(const Frame& frame,
                                            std::size_t index,
                                            core::RawSample& out) {
  std::size_t count = 0;
  if (auto err = span_sample_count(frame, count)) return err;
  if (index >= count) return WireError::kBadPayload;
  return decode_sample(
      frame.payload + kSpanHeaderBytes + index * kSampleWireBytes, out);
}

std::optional<WireError> decode_assign(const Frame& frame,
                                       AssignPayload& out) {
  if (frame.type != FrameType::kAssign) return WireError::kBadPayload;
  if (auto err = check_payload_size(frame, 12)) return err;
  out.worker = get_u32(frame.payload);
  out.first_sample = get_u32(frame.payload + 4);
  out.sample_count = get_u32(frame.payload + 8);
  return std::nullopt;
}

std::optional<WireError> decode_done(const Frame& frame, DonePayload& out) {
  if (frame.type != FrameType::kDone) return WireError::kBadPayload;
  if (auto err = check_payload_size(frame, 12)) return err;
  out.worker = get_u32(frame.payload);
  out.produced = get_u64(frame.payload + 4);
  return std::nullopt;
}

}  // namespace psnt::net
