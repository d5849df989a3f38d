// Wire-format robustness and round-trip property tests (DESIGN.md §15).
//
// The contract under test: arbitrary bytes — truncations, flipped bits,
// foreign versions, oversized lengths, pure garbage — surface as a clean
// WireError and NEVER as a crash or a silently corrupted sample; and every
// well-formed RawSample survives encode→frame→parse→decode bit-for-bit,
// across all 8 DelayCodes and both sense targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "net/wire.h"
#include "rng_index.h"
#include "stats/rng.h"

namespace psnt::net {
namespace {

core::RawSample make_sample(std::uint32_t site, std::uint32_t index,
                            double t_ps, core::SenseTarget target,
                            std::uint8_t code, std::uint32_t bits,
                            std::size_t width) {
  core::RawSample s;
  s.site_id = site;
  s.sample_index = index;
  s.timestamp = Picoseconds{t_ps};
  s.target = target;
  s.code = core::DelayCode{code};
  s.word = core::ThermoWord{bits, width};
  return s;
}

std::vector<core::RawSample> span_back(const std::vector<std::uint8_t>& bytes,
                                       SpanHeader& header) {
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  auto frame = parser.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(frame->type, FrameType::kSampleSpan);
  EXPECT_FALSE(decode_span_header(*frame, header).has_value());
  std::size_t n = 0;
  EXPECT_FALSE(span_sample_count(*frame, n).has_value());
  std::vector<core::RawSample> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FALSE(decode_span_sample(*frame, i, out[i]).has_value());
  }
  return out;
}

void expect_samples_equal(const core::RawSample& a, const core::RawSample& b) {
  EXPECT_EQ(a.site_id, b.site_id);
  EXPECT_EQ(a.sample_index, b.sample_index);
  EXPECT_EQ(a.timestamp.value(), b.timestamp.value());
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.code.value(), b.code.value());
  EXPECT_EQ(a.word, b.word);
}

// --- round-trip properties -------------------------------------------------

TEST(WireFormat, SampleRoundTripsAcrossAllDelayCodes) {
  // Every code, both targets, widths from empty to full, random word bits
  // masked to the width: the full RawSample value space shape.
  stats::Xoshiro256 rng(7);
  for (std::uint8_t code = 0; code < core::DelayCode::kCount; ++code) {
    for (const auto target : {core::SenseTarget::kVdd,
                              core::SenseTarget::kGnd}) {
      for (std::size_t width : {std::size_t{1}, std::size_t{7},
                                std::size_t{17}, std::size_t{32}}) {
        const std::uint32_t mask =
            width >= 32 ? 0xffffffffu : ((1u << width) - 1u);
        const auto bits = static_cast<std::uint32_t>(rng.next()) & mask;
        const auto sample =
            make_sample(rng.next() & 0xffffu, rng.next() & 0xffffu,
                        static_cast<double>(rng.next() % 1000000),
                        target, code, bits, width);
        std::uint8_t wire[kSampleWireBytes];
        encode_sample(sample, wire);
        core::RawSample back;
        ASSERT_FALSE(decode_sample(wire, back).has_value())
            << "code " << int(code) << " width " << width;
        expect_samples_equal(sample, back);
      }
    }
  }
}

TEST(WireFormat, SpanFrameRoundTripsWithHeader) {
  std::vector<core::RawSample> samples;
  for (std::uint32_t k = 0; k < 37; ++k) {
    samples.push_back(make_sample(4, k, 1000.0 * k, core::SenseTarget::kVdd,
                                  static_cast<std::uint8_t>(k % 8),
                                  (1u << (k % 20)) - 1u, 20));
  }
  std::vector<std::uint8_t> bytes;
  const SpanHeader sent{/*worker=*/9, /*seq=*/41, /*send_ns=*/123456789ull};
  FrameWriter::append_sample_span(bytes, sent, samples.data(), samples.size());

  SpanHeader header;
  const auto back = span_back(bytes, header);
  EXPECT_EQ(header.worker, sent.worker);
  EXPECT_EQ(header.seq, sent.seq);
  EXPECT_EQ(header.send_ns, sent.send_ns);
  ASSERT_EQ(back.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_samples_equal(samples[i], back[i]);
  }

  // kMaxSpanSamples is the largest span that fits one frame.
  const std::size_t span_payload =
      kSpanHeaderBytes + kMaxSpanSamples * kSampleWireBytes;
  EXPECT_LE(span_payload, kMaxPayloadBytes);
  EXPECT_GT(span_payload + kSampleWireBytes, kMaxPayloadBytes);
}

TEST(WireFormat, ParserReassemblesByteAtATimeFeeds) {
  // Stream fragmentation is arbitrary; framing must not care. Feed three
  // batched frames one byte at a time.
  std::vector<std::uint8_t> bytes;
  FrameWriter::append_shutdown(bytes);
  const auto sample = make_sample(1, 2, 3.0, core::SenseTarget::kGnd, 5,
                                  0x7fu, 8);
  FrameWriter::append_sample_span(bytes, SpanHeader{1, 0, 99}, &sample, 1);
  FrameWriter::append_done(bytes, DonePayload{1, 64});

  FrameParser parser;
  std::vector<FrameType> seen;
  for (const std::uint8_t byte : bytes) {
    parser.feed(&byte, 1);
    while (auto frame = parser.next()) seen.push_back(frame->type);
    ASSERT_FALSE(parser.failed());
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], FrameType::kShutdown);
  EXPECT_EQ(seen[1], FrameType::kSampleSpan);
  EXPECT_EQ(seen[2], FrameType::kDone);
  EXPECT_EQ(parser.bytes_pending(), 0u);
}

TEST(WireFormat, ControlPayloadsRoundTrip) {
  std::vector<std::uint8_t> bytes;
  FrameWriter::append_assign(bytes, AssignPayload{2, 128, 512});
  FrameWriter::append_done(bytes, DonePayload{5, 0x1'0000'0007ull});
  FrameWriter::append_shutdown(bytes);

  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());

  auto f1 = parser.next();
  ASSERT_TRUE(f1 && f1->type == FrameType::kAssign);
  AssignPayload assign;
  ASSERT_FALSE(decode_assign(*f1, assign).has_value());
  EXPECT_EQ(assign.worker, 2u);
  EXPECT_EQ(assign.first_sample, 128u);
  EXPECT_EQ(assign.sample_count, 512u);

  auto f2 = parser.next();
  ASSERT_TRUE(f2 && f2->type == FrameType::kDone);
  DonePayload done;
  ASSERT_FALSE(decode_done(*f2, done).has_value());
  EXPECT_EQ(done.worker, 5u);
  EXPECT_EQ(done.produced, 0x1'0000'0007ull);  // all 64 bits survive

  auto f3 = parser.next();
  ASSERT_TRUE(f3 && f3->type == FrameType::kShutdown);
  EXPECT_EQ(f3->payload_size, 0u);
}

// --- robustness: every corruption is a clean error -------------------------

std::vector<std::uint8_t> one_span_frame() {
  std::vector<std::uint8_t> bytes;
  const auto sample = make_sample(3, 9, 5000.0, core::SenseTarget::kVdd, 4,
                                  0x1fu, 12);
  FrameWriter::append_sample_span(bytes, SpanHeader{0, 0, 7}, &sample, 1);
  return bytes;
}

TEST(WireFormat, TruncationIsPendingBytesNeverAFrame) {
  const auto bytes = one_span_frame();
  // Cut at every possible point: never a frame, never an error, always the
  // benign "peer died mid-frame" signature (bytes pending at EOF).
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    FrameParser parser;
    parser.feed(bytes.data(), cut);
    EXPECT_FALSE(parser.next().has_value()) << "cut " << cut;
    EXPECT_FALSE(parser.failed()) << "cut " << cut;
    EXPECT_GT(parser.bytes_pending(), 0u) << "cut " << cut;
  }
}

// The IEEE CRC32 register after one more byte, one bit at a time: the
// definition the table-driven crc32 must reproduce on every wire byte.
std::uint32_t crc32_bitwise_step(std::uint32_t reg, std::uint8_t byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1u) != 0 ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  }
  return reg;
}

TEST(WireFormat, Crc32MatchesTheBitwiseDefinition) {
  const char* check = "123456789";  // the standard CRC-32 check value
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);

  // Every length 0..4096 at every start offset 0..7: both the 8-byte body
  // and the bytewise tail of the sliced loop, at every alignment.
  constexpr std::size_t kMaxLength = 4096;
  stats::Xoshiro256 rng(2027);
  std::vector<std::uint8_t> bytes(kMaxLength + 8);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::uint32_t reg = 0xFFFFFFFFu;
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      if (length > 0) reg = crc32_bitwise_step(reg, bytes[offset + length - 1]);
      ASSERT_EQ(crc32(bytes.data() + offset, length), reg ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(WireFormat, FlippedPayloadBitFailsCrc) {
  auto bytes = one_span_frame();
  bytes[kFrameHeaderBytes + 3] ^= 0x10;  // flip one payload bit
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(parser.next().has_value());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(*parser.error(), WireError::kBadCrc);
}

TEST(WireFormat, ForeignVersionIsRejected) {
  auto bytes = one_span_frame();
  bytes[4] = kWireVersion + 1;  // version byte follows the magic
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(parser.next().has_value());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(*parser.error(), WireError::kBadVersion);
}

TEST(WireFormat, UnknownFrameTypeIsRejected) {
  // 1 and 5 sit between assigned values and belong to no frame type.
  for (const std::uint8_t type : {std::uint8_t{1}, std::uint8_t{5},
                                  std::uint8_t{0xee}}) {
    auto bytes = one_span_frame();
    bytes[5] = type;  // type byte
    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(parser.next().has_value()) << int(type);
    ASSERT_TRUE(parser.failed()) << int(type);
    EXPECT_EQ(*parser.error(), WireError::kBadType) << int(type);
  }
}

TEST(WireFormat, GarbageBytesAreRejectedAtTheMagic) {
  stats::Xoshiro256 rng(1234);
  std::vector<std::uint8_t> garbage(256);
  for (auto& byte : garbage) {
    byte = static_cast<std::uint8_t>(rng.next());
  }
  garbage[0] = 0x00;  // guarantee the magic cannot match
  FrameParser parser;
  parser.feed(garbage.data(), garbage.size());
  EXPECT_FALSE(parser.next().has_value());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(*parser.error(), WireError::kBadMagic);
}

TEST(WireFormat, OversizedLengthIsBoundedNotAllocated) {
  // Hand-craft a header announcing a 64 MiB payload: must fail kBadLength
  // without waiting for (or allocating) the bytes.
  std::uint8_t header[kFrameHeaderBytes] = {};
  header[0] = static_cast<std::uint8_t>(kWireMagic);
  header[1] = static_cast<std::uint8_t>(kWireMagic >> 8);
  header[2] = static_cast<std::uint8_t>(kWireMagic >> 16);
  header[3] = static_cast<std::uint8_t>(kWireMagic >> 24);
  header[4] = kWireVersion;
  header[5] = static_cast<std::uint8_t>(FrameType::kSampleSpan);
  const std::uint32_t huge = 64u << 20;
  header[8] = static_cast<std::uint8_t>(huge);
  header[9] = static_cast<std::uint8_t>(huge >> 8);
  header[10] = static_cast<std::uint8_t>(huge >> 16);
  header[11] = static_cast<std::uint8_t>(huge >> 24);
  FrameParser parser;
  parser.feed(header, sizeof(header));
  EXPECT_FALSE(parser.next().has_value());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(*parser.error(), WireError::kBadLength);
}

// Rewrites the length and CRC fields of the frame starting at `bytes[at]`
// for a payload of `payload_size` bytes, so a corrupted payload passes the
// frame check and reaches the typed decoders.
void reseal_frame(std::vector<std::uint8_t>& bytes, std::size_t at,
                  std::size_t payload_size) {
  const auto put_u32 = [&](std::size_t off, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[at + off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put_u32(8, static_cast<std::uint32_t>(payload_size));
  put_u32(12, crc32(bytes.data() + at + kFrameHeaderBytes, payload_size));
}

TEST(WireFormat, CrcCleanButMalformedSampleIsBadPayload) {
  // Frames whose CRC is valid but whose record violates the RawSample
  // layout: the codec must reject them, not publish them.
  const auto first_sample_error = [](const std::vector<std::uint8_t>& bytes) {
    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    auto frame = parser.next();
    EXPECT_TRUE(frame.has_value());  // framing is fine; the record is not
    core::RawSample out;
    return frame ? decode_span_sample(*frame, 0, out) : std::nullopt;
  };
  // Target byte 7, re-sealed so the corruption survives the frame check.
  auto bytes = one_span_frame();
  bytes[kFrameHeaderBytes + kSpanHeaderBytes + 16] = 7;
  reseal_frame(bytes, 0, bytes.size() - kFrameHeaderBytes);
  EXPECT_EQ(first_sample_error(bytes), WireError::kBadPayload);
  // Timestamps the store has no time window for; the writer seals them as
  // they are.
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::vector<std::uint8_t> span;
    const auto sample =
        make_sample(3, 9, t, core::SenseTarget::kVdd, 4, 0x1fu, 12);
    FrameWriter::append_sample_span(span, SpanHeader{0, 0, 7}, &sample, 1);
    EXPECT_EQ(first_sample_error(span), WireError::kBadPayload) << t;
  }
}

TEST(WireFormat, PhantomWordBitsAboveWidthAreRejected) {
  const auto sample = make_sample(0, 0, 0.0, core::SenseTarget::kVdd, 0,
                                  0x3u, 8);
  std::uint8_t wire[kSampleWireBytes];
  encode_sample(sample, wire);
  wire[18] = 1;  // shrink the width below the set bits
  core::RawSample out;
  const auto err = decode_sample(wire, out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, WireError::kBadPayload);
}

TEST(WireFormat, ErrorsAreSticky) {
  auto bad = one_span_frame();
  bad[4] = 0x42;  // bad version
  const auto good = one_span_frame();

  FrameParser parser;
  parser.feed(bad.data(), bad.size());
  EXPECT_FALSE(parser.next().has_value());
  ASSERT_TRUE(parser.failed());

  // A broken stream has no resync point: good bytes after the error change
  // nothing.
  parser.feed(good.data(), good.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.failed());
}

TEST(WireFormat, TypedDecodersRejectWrongSizes) {
  // An empty kShutdown payload handed to every typed decoder: all must
  // answer kBadPayload (no reinterpretation of undersized buffers).
  std::vector<std::uint8_t> bytes;
  FrameWriter::append_shutdown(bytes);
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());

  AssignPayload assign;
  DonePayload done;
  SpanHeader span;
  std::size_t n = 0;
  EXPECT_EQ(decode_assign(*frame, assign), WireError::kBadPayload);
  EXPECT_EQ(decode_done(*frame, done), WireError::kBadPayload);
  EXPECT_EQ(decode_span_header(*frame, span), WireError::kBadPayload);
  EXPECT_EQ(span_sample_count(*frame, n), WireError::kBadPayload);
}

// --- mutation: no corrupted stream yields an invalid sample ----------------

// A well-formed stream of 1-6 frames drawn from the four frame types, with
// random field values; `starts` receives each frame's byte offset.
std::vector<std::uint8_t> random_stream(stats::Xoshiro256& rng,
                                        std::vector<std::size_t>& starts) {
  const auto u32 = [&rng] { return static_cast<std::uint32_t>(rng.next()); };
  std::vector<std::uint8_t> bytes;
  const std::size_t frames = 1 + uniform_index(rng, 6);
  for (std::size_t f = 0; f < frames; ++f) {
    starts.push_back(bytes.size());
    switch (uniform_index(rng, 4)) {
      case 0:
        FrameWriter::append_assign(bytes, AssignPayload{u32(), u32(), u32()});
        break;
      case 1:
        FrameWriter::append_done(bytes, DonePayload{u32(), rng.next()});
        break;
      case 2:
        FrameWriter::append_shutdown(bytes);
        break;
      default: {
        std::vector<core::RawSample> samples(uniform_index(rng, 5));
        for (auto& sample : samples) {
          const std::size_t width = 1 + uniform_index(rng, 32);
          const std::uint32_t mask =
              width >= 32 ? 0xffffffffu : ((1u << width) - 1u);
          sample = make_sample(
              u32(), u32(), rng.uniform(0.0, 1e9),
              rng.bernoulli(0.5) ? core::SenseTarget::kGnd
                                 : core::SenseTarget::kVdd,
              static_cast<std::uint8_t>(uniform_index(rng, 8)), u32() & mask,
              width);
        }
        FrameWriter::append_sample_span(bytes, SpanHeader{u32(), u32(), 0},
                                        samples.data(), samples.size());
      }
    }
  }
  return bytes;
}

// Applies one random mutation inside bytes[lo, hi) and returns the new end of
// that range: a few bit flips, a byte insert, a byte delete, a truncation, or
// a run of 0xff bytes (the pattern that turns a timestamp into NaN/inf).
std::size_t mutate(stats::Xoshiro256& rng, std::vector<std::uint8_t>& bytes,
                   std::size_t lo, std::size_t hi) {
  const auto at = [&](std::size_t span) {
    return lo + uniform_index(rng, span);
  };
  const auto begin = bytes.begin();
  switch (uniform_index(rng, 5)) {
    case 0:
      if (hi == lo) break;
      for (std::size_t n = 1 + uniform_index(rng, 3); n > 0; --n) {
        bytes[at(hi - lo)] ^=
            static_cast<std::uint8_t>(1u << uniform_index(rng, 8));
      }
      break;
    case 1:
      bytes.insert(begin + static_cast<std::ptrdiff_t>(at(hi - lo + 1)),
                   static_cast<std::uint8_t>(rng.next()));
      return hi + 1;
    case 2:
      if (hi == lo) break;
      bytes.erase(begin + static_cast<std::ptrdiff_t>(at(hi - lo)));
      return hi - 1;
    case 3: {
      if (hi == lo) break;
      const std::size_t cut = at(hi - lo);
      bytes.erase(begin + static_cast<std::ptrdiff_t>(cut),
                  begin + static_cast<std::ptrdiff_t>(hi));
      return cut;
    }
    default: {
      if (hi == lo) break;
      const std::size_t first = at(hi - lo);
      const std::size_t last = std::min(hi, first + 1 + uniform_index(rng, 8));
      for (std::size_t i = first; i < last; ++i) bytes[i] = 0xff;
    }
  }
  return hi;
}

bool valid_sample(const core::RawSample& s) {
  const std::size_t width = s.word.width();
  return s.target <= core::SenseTarget::kGnd &&
         s.code.value() < core::DelayCode::kCount && width >= 1 &&
         width <= core::ThermoWord::kMaxBits &&
         (width == 32 || (s.word.raw() >> width) == 0) &&
         std::isfinite(s.timestamp.value());
}

TEST(WireFormat, MutatedStreamsNeverYieldInvalidSamples) {
  // Deterministic mutation sweep over the parser and the span decoders.
  // Each stream takes one mutation and is fed in random chunks. Half of the
  // mutations land inside one frame's payload and re-seal that frame's
  // length and CRC, so they get past the frame check to the decoders.
  stats::Xoshiro256 rng(0x5eed'0008);
  std::size_t errored = 0;
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int stream = 0; stream < 10000; ++stream) {
    std::vector<std::size_t> starts;
    auto bytes = random_stream(rng, starts);
    if (rng.bernoulli(0.5)) {
      const std::size_t f = uniform_index(rng, starts.size());
      const std::size_t lo = starts[f] + kFrameHeaderBytes;
      const std::size_t hi =
          f + 1 < starts.size() ? starts[f + 1] : bytes.size();
      reseal_frame(bytes, starts[f], mutate(rng, bytes, lo, hi) - lo);
    } else {
      (void)mutate(rng, bytes, 0, bytes.size());
    }

    FrameParser parser;
    std::optional<WireError> latched;
    for (std::size_t pos = 0; pos < bytes.size();) {
      const std::size_t chunk =
          std::min(bytes.size() - pos, 1 + uniform_index(rng, 64));
      parser.feed(bytes.data() + pos, chunk);
      pos += chunk;
      while (const auto frame = parser.next()) {
        ASSERT_FALSE(latched.has_value())
            << "frame after error, stream " << stream;
        if (frame->type != FrameType::kSampleSpan) continue;
        std::size_t n = 0;
        if (span_sample_count(*frame, n).has_value()) {
          ++rejected;
          continue;
        }
        ASSERT_LE(n, kMaxSpanSamples) << "stream " << stream;
        for (std::size_t i = 0; i < n; ++i) {
          core::RawSample sample;
          if (decode_span_sample(*frame, i, sample).has_value()) {
            ++rejected;
            continue;
          }
          ASSERT_TRUE(valid_sample(sample)) << "stream " << stream;
          // Nothing was masked on the way in: the sample re-encodes to the
          // exact record bytes it came from.
          std::uint8_t wire[kSampleWireBytes];
          encode_sample(sample, wire);
          ASSERT_EQ(std::memcmp(wire,
                                frame->payload + kSpanHeaderBytes +
                                    i * kSampleWireBytes,
                                kSampleWireBytes),
                    0)
              << "stream " << stream;
          ++decoded;
        }
      }
      if (latched) {
        ASSERT_EQ(parser.error(), latched) << "stream " << stream;
      } else if (parser.failed()) {
        latched = parser.error();
        ++errored;
      }
    }
  }
  // The sweep reaches every outcome: framing errors, rejected records and
  // clean samples.
  EXPECT_GT(errored, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace psnt::net
