// Wire-format robustness and round-trip property tests (DESIGN.md §15).
//
// The contract under test: arbitrary bytes — truncations, flipped bits,
// foreign versions, oversized lengths, pure garbage — surface as a clean
// WireError and NEVER as a crash or a silently corrupted sample; and every
// well-formed RawSample survives encode→frame→parse→decode bit-for-bit,
// across all 8 DelayCodes and both sense targets.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "net/wire.h"
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
}

TEST(WireFormat, ParserReassemblesByteAtATimeFeeds) {
  // Stream fragmentation is arbitrary; framing must not care. Feed three
  // batched frames one byte at a time.
  std::vector<std::uint8_t> bytes;
  FrameWriter::append_hello(bytes, HelloPayload{3, 31});
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
  EXPECT_EQ(seen[0], FrameType::kHello);
  EXPECT_EQ(seen[1], FrameType::kSampleSpan);
  EXPECT_EQ(seen[2], FrameType::kDone);
  EXPECT_EQ(parser.bytes_pending(), 0u);
}

TEST(WireFormat, ControlPayloadsRoundTrip) {
  std::vector<std::uint8_t> bytes;
  FrameWriter::append_assign(bytes, AssignPayload{2, 128, 512});
  MeasureReqPayload req;
  req.start_ps = 1.5e6;
  req.interval_ps = 10000.0;
  req.count = 96;
  req.target = 1;
  req.has_code = 1;
  req.code = 6;
  FrameWriter::append_measure_req(bytes, req);
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
  ASSERT_TRUE(f2 && f2->type == FrameType::kMeasureReq);
  MeasureReqPayload back;
  ASSERT_FALSE(decode_measure_req(*f2, back).has_value());
  EXPECT_EQ(back.start_ps, req.start_ps);
  EXPECT_EQ(back.interval_ps, req.interval_ps);
  EXPECT_EQ(back.count, req.count);
  EXPECT_EQ(back.target, req.target);
  EXPECT_EQ(back.has_code, 1);
  EXPECT_EQ(back.code, 6);

  auto f3 = parser.next();
  ASSERT_TRUE(f3 && f3->type == FrameType::kShutdown);
  EXPECT_EQ(f3->payload_size, 0u);
}

TEST(WireFormat, MeasureReqCountIsBoundedByOneReplySpan) {
  // The largest count whose reply span still fits one frame decodes; one
  // more, or a wild u32, is a CRC-clean payload the server must not honour
  // (it would size the capture and produce an unframeable reply). The same
  // holds for sample times the server cannot read a rail at: a NaN/inf
  // start, or a NaN/inf/non-positive interval.
  const std::size_t span_payload =
      kSpanHeaderBytes + kMaxSpanSamples * kSampleWireBytes;
  EXPECT_LE(span_payload, kMaxPayloadBytes);
  EXPECT_GT(span_payload + kSampleWireBytes, kMaxPayloadBytes);

  const auto decode = [](const MeasureReqPayload& req,
                         MeasureReqPayload& out) {
    std::vector<std::uint8_t> bytes;
    FrameWriter::append_measure_req(bytes, req);
    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    auto frame = parser.next();
    EXPECT_TRUE(frame.has_value());
    return decode_measure_req(*frame, out);
  };
  MeasureReqPayload valid;
  valid.interval_ps = 10000.0;
  const auto with_count = [&valid](std::uint32_t count) {
    MeasureReqPayload req = valid;
    req.count = count;
    return req;
  };
  MeasureReqPayload back;
  const auto max = static_cast<std::uint32_t>(kMaxSpanSamples);
  ASSERT_FALSE(decode(with_count(max), back).has_value());
  EXPECT_EQ(back.count, max);
  EXPECT_EQ(decode(with_count(max + 1), back), WireError::kBadPayload);
  EXPECT_EQ(decode(with_count(0xFFFFFFFFu), back), WireError::kBadPayload);

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double start : {kNaN, kInf, -kInf}) {
    MeasureReqPayload req = valid;
    req.start_ps = start;
    EXPECT_EQ(decode(req, back), WireError::kBadPayload) << start;
  }
  for (double interval : {kNaN, kInf, -kInf, 0.0, -0.0, -10000.0}) {
    MeasureReqPayload req = valid;
    req.interval_ps = interval;
    EXPECT_EQ(decode(req, back), WireError::kBadPayload) << interval;
  }
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
  auto bytes = one_span_frame();
  bytes[5] = 0xee;  // type byte
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(parser.next().has_value());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(*parser.error(), WireError::kBadType);
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

TEST(WireFormat, CrcCleanButMalformedSampleIsBadPayload) {
  // A frame whose CRC is valid but whose record violates the RawSample
  // layout (target byte = 7): the codec must reject it, not publish it.
  auto bytes = one_span_frame();
  const std::size_t target_off = kFrameHeaderBytes + kSpanHeaderBytes + 16;
  bytes[target_off] = 7;
  // Recompute the CRC so the corruption survives the frame check.
  const std::uint32_t crc =
      crc32(bytes.data() + kFrameHeaderBytes, bytes.size() - kFrameHeaderBytes);
  bytes[12] = static_cast<std::uint8_t>(crc);
  bytes[13] = static_cast<std::uint8_t>(crc >> 8);
  bytes[14] = static_cast<std::uint8_t>(crc >> 16);
  bytes[15] = static_cast<std::uint8_t>(crc >> 24);

  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());  // framing is fine; the record is not
  core::RawSample out;
  const auto err = decode_span_sample(*frame, 0, out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, WireError::kBadPayload);
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

TEST(WireFormat, ErrorsAreStickyUntilReset) {
  auto bad = one_span_frame();
  bad[4] = 0x42;  // bad version
  const auto good = one_span_frame();

  FrameParser parser;
  parser.feed(bad.data(), bad.size());
  EXPECT_FALSE(parser.next().has_value());
  ASSERT_TRUE(parser.failed());

  // A broken stream has no resync point: good bytes after the error change
  // nothing until reset().
  parser.feed(good.data(), good.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.failed());

  parser.reset();
  EXPECT_FALSE(parser.failed());
  parser.feed(good.data(), good.size());
  EXPECT_TRUE(parser.next().has_value());
}

TEST(WireFormat, TypedDecodersRejectWrongSizes) {
  // A kHello payload handed to every other typed decoder: all must answer
  // kBadPayload (no reinterpretation of undersized buffers).
  std::vector<std::uint8_t> bytes;
  FrameWriter::append_hello(bytes, HelloPayload{1, 16});
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());

  AssignPayload assign;
  DonePayload done;
  MeasureReqPayload req;
  SpanHeader span;
  std::size_t n = 0;
  EXPECT_EQ(decode_assign(*frame, assign), WireError::kBadPayload);
  EXPECT_EQ(decode_done(*frame, done), WireError::kBadPayload);
  EXPECT_EQ(decode_measure_req(*frame, req), WireError::kBadPayload);
  EXPECT_EQ(decode_span_header(*frame, span), WireError::kBadPayload);
  EXPECT_EQ(span_sample_count(*frame, n), WireError::kBadPayload);
}

}  // namespace
}  // namespace psnt::net
