#include "core/encoder.h"

#include <gtest/gtest.h>

#include "calib/fit.h"
#include "core/sensor_array.h"
#include "thermo_words.h"

namespace psnt::core {
namespace {

TEST(Encoder, MajorityCountsOnes) {
  Encoder enc{BubblePolicy::kMajority};
  const auto out = enc.encode(thermo_word("0011111"));
  EXPECT_EQ(out.count, 5);
  EXPECT_EQ(out.binary, 5);
  EXPECT_TRUE(out.valid);
  EXPECT_FALSE(out.underflow);
  EXPECT_FALSE(out.overflow);
  EXPECT_EQ(out.bubble_errors, 0);
}

TEST(Encoder, MajorityToleratesBubbles) {
  Encoder enc{BubblePolicy::kMajority};
  const auto out = enc.encode(thermo_word("0101111"));
  EXPECT_EQ(out.count, 5);  // popcount unaffected by the bubble
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.bubble_errors, 2);
}

TEST(Encoder, RejectFlagsBubbles) {
  Encoder enc{BubblePolicy::kReject};
  EXPECT_TRUE(enc.encode(thermo_word("0011111")).valid);
  const auto bad = enc.encode(thermo_word("0101111"));
  EXPECT_FALSE(bad.valid);
  EXPECT_EQ(bad.count, 5);
}

TEST(Encoder, FirstZeroUnderReadsOnBubbles) {
  Encoder enc{BubblePolicy::kFirstZero};
  EXPECT_EQ(enc.encode(thermo_word("0011111")).count, 5);
  // Bubble at bit 2: ripple encoder stops there.
  EXPECT_EQ(enc.encode(thermo_word("0111011")).count, 2);
}

TEST(Encoder, UnderflowOverflowFlags) {
  Encoder enc;
  const auto lo = enc.encode(thermo_word("0000000"));
  EXPECT_TRUE(lo.underflow);
  EXPECT_FALSE(lo.overflow);
  EXPECT_EQ(lo.count, 0);
  const auto hi = enc.encode(thermo_word("1111111"));
  EXPECT_TRUE(hi.overflow);
  EXPECT_FALSE(hi.underflow);
  EXPECT_EQ(hi.count, 7);
}

TEST(Encoder, AllCountsRoundTrip) {
  Encoder enc;
  for (std::size_t ones = 0; ones <= 7; ++ones) {
    const auto out = enc.encode(ThermoWord::of_count(ones, 7));
    EXPECT_EQ(out.count, ones);
    EXPECT_EQ(out.binary, ones);
  }
}

// Regression pinning the range-flag pairing (the encoder.h comments were
// easy to misread): underflow pairs with count == 0 — every cell in error,
// reading saturated LOW; overflow pairs with count == width — no cell in
// error, reading saturated HIGH. Holds for every policy, and intermediate
// counts raise neither flag.
TEST(Encoder, RangeFlagPairingRegression) {
  for (const auto policy : {BubblePolicy::kReject, BubblePolicy::kMajority,
                            BubblePolicy::kFirstZero}) {
    Encoder enc{policy};
    const auto lo = enc.encode(ThermoWord::of_count(0, 7));
    EXPECT_EQ(lo.count, 0);
    EXPECT_TRUE(lo.underflow) << "policy " << static_cast<int>(policy);
    EXPECT_FALSE(lo.overflow) << "policy " << static_cast<int>(policy);
    const auto hi = enc.encode(ThermoWord::of_count(7, 7));
    EXPECT_EQ(hi.count, 7);
    EXPECT_TRUE(hi.overflow) << "policy " << static_cast<int>(policy);
    EXPECT_FALSE(hi.underflow) << "policy " << static_cast<int>(policy);
    for (std::size_t ones = 1; ones <= 6; ++ones) {
      const auto mid = enc.encode(ThermoWord::of_count(ones, 7));
      EXPECT_FALSE(mid.underflow)
          << "policy " << static_cast<int>(policy) << " ones=" << ones;
      EXPECT_FALSE(mid.overflow)
          << "policy " << static_cast<int>(policy) << " ones=" << ones;
    }
  }
}

// The flags agree with the decode path: the word that raises `underflow`
// decodes below the converter range, the word that raises `overflow` above
// it — the directions the paper's Fig. 5 dynamic ranges define.
TEST(Encoder, RangeFlagsMatchDecodedBins) {
  Encoder enc;
  const auto array = calib::make_paper_array(calib::calibrated().model);
  const Picoseconds skew{150.0};

  const auto lo_word = ThermoWord::of_count(0, array.bits());
  EXPECT_TRUE(enc.encode(lo_word).underflow);
  EXPECT_TRUE(array.decode(lo_word, skew).below_range());

  const auto hi_word = ThermoWord::of_count(array.bits(), array.bits());
  EXPECT_TRUE(enc.encode(hi_word).overflow);
  EXPECT_TRUE(array.decode(hi_word, skew).above_range());
}

// kFirstZero corner: a bubble at bit 0 stops the ripple count at zero, so
// the word reads as underflow even though higher cells sampled fine.
TEST(Encoder, FirstZeroBubbleAtBitZeroUnderflows) {
  Encoder enc{BubblePolicy::kFirstZero};
  const auto out = enc.encode(thermo_word("1111110"));
  EXPECT_EQ(out.count, 0);
  EXPECT_TRUE(out.underflow);
  EXPECT_FALSE(out.overflow);
}

}  // namespace
}  // namespace psnt::core
