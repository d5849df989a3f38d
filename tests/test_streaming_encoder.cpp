// StreamingEncoder / DecodeLadder: the drain-pass half of the streaming
// raw-word pipeline. The load-bearing property is bit-identity: every
// encoded field must match core::Encoder::encode, and every ladder decode
// must match the reference SensorArray decode family.
#include "core/streaming_encoder.h"

#include <gtest/gtest.h>

#include <vector>

#include "analog/rail.h"
#include "calib/fit.h"
#include "core/measure_engine.h"
#include "stats/rng.h"
#include "thermo_words.h"

namespace psnt::core {
namespace {

constexpr BubblePolicy kAllPolicies[] = {
    BubblePolicy::kReject, BubblePolicy::kMajority, BubblePolicy::kFirstZero};

void expect_identical(const EncodedWord& a, const EncodedWord& b,
                      const ThermoWord& word, BubblePolicy policy) {
  EXPECT_EQ(a.count, b.count)
      << word.to_string() << " policy " << static_cast<int>(policy);
  EXPECT_EQ(a.binary, b.binary) << word.to_string();
  EXPECT_EQ(a.valid, b.valid)
      << word.to_string() << " policy " << static_cast<int>(policy);
  EXPECT_EQ(a.bubble_errors, b.bubble_errors) << word.to_string();
  EXPECT_EQ(a.underflow, b.underflow) << word.to_string();
  EXPECT_EQ(a.overflow, b.overflow) << word.to_string();
}

TEST(StreamingEncoder, BitIdenticalToEncoderOnRandomStreams) {
  // Uniform random bit patterns at several widths: most are heavily bubbled,
  // which is exactly the regime where the amortized bubble bookkeeping could
  // diverge from the reference.
  for (const auto policy : kAllPolicies) {
    Encoder reference{policy};
    StreamingEncoder streaming{policy};
    stats::SplitMix64 rng(42);
    for (const std::size_t width : {std::size_t{7}, std::size_t{13},
                                    std::size_t{32}}) {
      for (int i = 0; i < 2000; ++i) {
        std::uint32_t bits = static_cast<std::uint32_t>(rng.next());
        if (width < 32) bits &= (1u << width) - 1u;
        const ThermoWord word{bits, width};
        expect_identical(streaming.encode(word), reference.encode(word), word,
                         policy);
      }
    }
  }
}

TEST(StreamingEncoder, BitIdenticalOnCanonicalAndEdgeWords) {
  for (const auto policy : kAllPolicies) {
    Encoder reference{policy};
    StreamingEncoder streaming{policy};
    const std::size_t width = 7;
    // Every canonical count, including underflow (0) and overflow (width).
    for (std::size_t ones = 0; ones <= width; ++ones) {
      const auto word = ThermoWord::of_count(ones, width);
      expect_identical(streaming.encode(word), reference.encode(word), word,
                       policy);
    }
    // All-bubble worst cases: alternating patterns and the bubble-at-bit-0
    // word that makes kFirstZero read zero.
    for (const char* s : {"1010101", "0101010", "1111110", "1000000"}) {
      const auto word = thermo_word(s);
      expect_identical(streaming.encode(word), reference.encode(word), word,
                       policy);
    }
  }
}

TEST(StreamingEncoder, EncodeSpanMatchesPerWordEncode) {
  stats::SplitMix64 rng(7);
  std::vector<ThermoWord> words;
  for (int i = 0; i < 257; ++i) {
    words.emplace_back(static_cast<std::uint32_t>(rng.next()) & 0x7Fu,
                       std::size_t{7});
  }
  for (const auto policy : kAllPolicies) {
    Encoder reference{policy};
    StreamingEncoder streaming{policy};
    std::vector<EncodedWord> out(words.size());
    streaming.encode_span(words.data(), words.size(), out.data());
    for (std::size_t i = 0; i < words.size(); ++i) {
      expect_identical(out[i], reference.encode(words[i]), words[i], policy);
    }
  }
}

TEST(StreamingEncoder, RunningStatsTally) {
  StreamingEncoder enc{BubblePolicy::kMajority};
  (void)enc.encode(ThermoWord::of_count(0, 7));  // underflow
  (void)enc.encode(ThermoWord::of_count(7, 7));  // overflow
  (void)enc.encode(ThermoWord::of_count(4, 7));  // clean mid-range
  (void)enc.encode(thermo_word("0101111"));  // 2 bubble bits

  const StreamingEncodeStats& st = enc.stats();
  EXPECT_EQ(st.words, 4u);
  EXPECT_EQ(st.underflows, 1u);
  EXPECT_EQ(st.overflows, 1u);
  EXPECT_EQ(st.bubbled_words, 1u);
  EXPECT_EQ(st.bubble_errors, 2u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(StreamingEncoder, RejectPolicyCountsRejectedWords) {
  StreamingEncoder enc{BubblePolicy::kReject};
  (void)enc.encode(thermo_word("0011111"));  // valid
  (void)enc.encode(thermo_word("0101111"));  // bubbled -> reject
  EXPECT_EQ(enc.stats().rejected, 1u);
}

void expect_same_bin(const VoltageBin& a, const VoltageBin& b) {
  ASSERT_EQ(a.lo.has_value(), b.lo.has_value());
  ASSERT_EQ(a.hi.has_value(), b.hi.has_value());
  if (a.lo) {
    EXPECT_EQ(a.lo->value(), b.lo->value());
  }
  if (a.hi) {
    EXPECT_EQ(a.hi->value(), b.hi->value());
  }
}

TEST(DecodeLadder, BitIdenticalToArrayDecodeAcrossAllCodes) {
  const auto& model = calib::calibrated().model;
  const SensorArray array = calib::make_paper_array(model);
  const PulseGenerator pg{model.pg_config()};
  const DecodeLadder ladder = calib::make_paper_decode_ladder(model);

  ASSERT_EQ(ladder.bits(), array.bits());
  for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
    SCOPED_TRACE("code " + std::to_string(int(c)));
    const DelayCode code{c};
    const Picoseconds skew = pg.skew(code);
    // The ladder's ends are the array's dynamic range (Fig. 5's x-extent).
    const DynamicRange range = array.dynamic_range(skew);
    EXPECT_EQ(ladder.thresholds(code).front().value(),
              range.all_errors_below.value());
    EXPECT_EQ(ladder.thresholds(code).back().value(),
              range.no_errors_above.value());
    for (std::size_t ones = 0; ones <= array.bits(); ++ones) {
      const auto word = ThermoWord::of_count(ones, array.bits());
      expect_same_bin(ladder.decode(word, code), array.decode(word, skew));
    }
  }
}

TEST(DecodeLadder, BubbledWordDecodesLikeItsCorrectedForm) {
  const auto& model = calib::calibrated().model;
  const DecodeLadder ladder = calib::make_paper_decode_ladder(model);
  const DelayCode code{3};
  const auto bubbled = thermo_word("0101111");
  const auto corrected = bubbled.bubble_corrected();
  const VoltageBin a = ladder.decode(bubbled, code);
  const VoltageBin b = ladder.decode(corrected, code);
  EXPECT_EQ(a.lo->value(), b.lo->value());
  EXPECT_EQ(a.hi->value(), b.hi->value());
}

TEST(DecodeLadder, GndDecodeMirrorsArray) {
  const auto& model = calib::calibrated().model;
  const SensorArray array = calib::make_paper_array(model);
  const PulseGenerator pg{model.pg_config()};
  const DecodeLadder ladder = calib::make_paper_decode_ladder(model);
  const Volt v_nom{1.0};
  for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
    const DelayCode code{c};
    for (std::size_t ones = 0; ones <= array.bits(); ++ones) {
      const auto word = ThermoWord::of_count(ones, array.bits());
      expect_same_bin(ladder.decode_gnd(word, code, v_nom),
                      array.decode_gnd(word, pg.skew(code), v_nom));
    }
  }
}

// The ladder also matches the behavioral engine's own VDD decode — the exact
// comparison the grid's drain pass relies on.
TEST(DecodeLadder, MatchesBehavioralEngineDecode) {
  const auto& model = calib::calibrated().model;
  BehavioralEngine engine = calib::make_paper_engine(model);
  const DecodeLadder ladder = calib::make_paper_decode_ladder(model);
  for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
    const DelayCode code{c};
    for (std::size_t ones = 0; ones <= engine.word_bits(); ++ones) {
      const auto word = ThermoWord::of_count(ones, engine.word_bits());
      expect_same_bin(ladder.decode(word, code), engine.decode(word, code));
    }
  }
}

// Capture half of the split: measure_raw carries exactly the word, code,
// target and launch instant that measure() would have produced, and the
// ladder turns it into the same bin — i.e. raw capture + drain decode
// reassembles the full Measurement bit-for-bit.
TEST(RawPath, BehavioralMeasureRawPlusLadderReassemblesMeasure) {
  const auto& model = calib::calibrated().model;
  BehavioralEngine full = calib::make_paper_engine(model);
  BehavioralEngine raw_engine = calib::make_paper_engine(model);
  const DecodeLadder ladder = calib::make_paper_decode_ladder(model);
  const analog::ConstantRail rail{Volt{0.95}};
  const analog::RailPair rails{&rail, nullptr};

  for (int k = 0; k < 4; ++k) {
    MeasureRequest req;
    req.start = Picoseconds{static_cast<double>(k) * 10000.0};
    const Measurement m = full.measure(req, rails);
    const RawSample raw = raw_engine.measure_raw(req, rails);
    EXPECT_EQ(raw.word, m.word);
    EXPECT_EQ(raw.code, m.code);
    EXPECT_EQ(raw.target, m.target);
    EXPECT_EQ(raw.timestamp.value(), m.timestamp.value());
    EXPECT_EQ(raw.site_id, 0u);        // engines leave transport fields zero
    EXPECT_EQ(raw.sample_index, 0u);

    const Measurement rebuilt =
        assemble_measurement(raw, ladder.decode(raw.word, raw.code));
    EXPECT_EQ(rebuilt.word, m.word);
    ASSERT_EQ(rebuilt.bin.lo.has_value(), m.bin.lo.has_value());
    ASSERT_EQ(rebuilt.bin.hi.has_value(), m.bin.hi.has_value());
    if (m.bin.lo) {
      EXPECT_EQ(rebuilt.bin.lo->value(), m.bin.lo->value());
    }
    if (m.bin.hi) {
      EXPECT_EQ(rebuilt.bin.hi->value(), m.bin.hi->value());
    }
  }
}

}  // namespace
}  // namespace psnt::core
