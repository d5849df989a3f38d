#include "core/thermo_code.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "thermo_words.h"

namespace psnt::core {
namespace {

TEST(ThermoWord, OfCountSetsLowBits) {
  const auto w = ThermoWord::of_count(5, 7);
  EXPECT_EQ(w.to_string(), "0011111");
  EXPECT_EQ(w.count_ones(), 5u);
  EXPECT_TRUE(w.is_valid_thermometer());
}

TEST(ThermoWord, AllZerosAndAllOnes) {
  const auto zeros = ThermoWord::of_count(0, 7);
  const auto ones = ThermoWord::of_count(7, 7);
  EXPECT_TRUE(zeros.all_zeros());
  EXPECT_TRUE(ones.all_ones());
  EXPECT_TRUE(zeros.is_valid_thermometer());
  EXPECT_TRUE(ones.is_valid_thermometer());
  EXPECT_EQ(zeros.to_string(), "0000000");
  EXPECT_EQ(ones.to_string(), "1111111");
}

TEST(ThermoWord, FromStringMatchesPaperConvention) {
  // Paper prints highest-threshold cell first: "0011111" means the five
  // least-loaded cells sampled correctly.
  const auto w = thermo_word("0011111");
  EXPECT_EQ(w.width(), 7u);
  EXPECT_EQ(w.count_ones(), 5u);
  EXPECT_TRUE(w.bit(0));
  EXPECT_TRUE(w.bit(4));
  EXPECT_FALSE(w.bit(5));
  EXPECT_FALSE(w.bit(6));
  EXPECT_EQ(w.to_string(), "0011111");
}

TEST(ThermoWord, RoundTripsStrings) {
  for (const char* s : {"0000000", "0000011", "0011111", "1111111",
                        "0101010", "1000001"}) {
    EXPECT_EQ(thermo_word(s).to_string(), s);
  }
}

TEST(ThermoWord, SetAndGetBits) {
  ThermoWord w{0, 7};
  w.set_bit(2, true);
  EXPECT_TRUE(w.bit(2));
  EXPECT_EQ(w.count_ones(), 1u);
  w.set_bit(2, false);
  EXPECT_EQ(w.count_ones(), 0u);
  EXPECT_THROW((void)w.bit(7), std::logic_error);
  EXPECT_THROW(w.set_bit(9, true), std::logic_error);
}

TEST(ThermoWord, BubbleDetection) {
  const auto bubbled = thermo_word("0101111");
  EXPECT_FALSE(bubbled.is_valid_thermometer());
  EXPECT_EQ(bubbled.count_ones(), 5u);
  EXPECT_EQ(bubbled.bubble_error_count(), 2u);  // differs at bits 4 and 5
  EXPECT_EQ(bubbled.bubble_corrected().to_string(), "0011111");
}

TEST(ThermoWord, ValidWordsHaveNoBubbleErrors) {
  for (std::size_t ones = 0; ones <= 7; ++ones) {
    const auto w = ThermoWord::of_count(ones, 7);
    EXPECT_EQ(w.bubble_error_count(), 0u);
    EXPECT_EQ(w.bubble_corrected(), w);
  }
}

TEST(ThermoWord, BubbleErrorCountMatchesOfCountDefinitionOnEveryWord) {
  // Definition: the Hamming distance to of_count(popcount, width). Every
  // word of widths 1–12, plus width-32 words around the all-ones edge.
  const auto reference = [](const ThermoWord& w) {
    const auto canon = ThermoWord::of_count(w.count_ones(), w.width());
    return static_cast<std::size_t>(std::popcount(w.raw() ^ canon.raw()));
  };
  for (std::size_t width = 1; width <= 12; ++width) {
    for (std::uint32_t bits = 0; bits < (1u << width); ++bits) {
      const ThermoWord w{bits, width};
      ASSERT_EQ(w.bubble_error_count(), reference(w))
          << "width " << width << " word " << w.to_string();
    }
  }
  for (const std::uint32_t bits :
       {0u, 1u, 0x7fffffffu, 0xfffffffeu, 0xffffffffu, 0x80000000u}) {
    const ThermoWord w{bits, 32};
    EXPECT_EQ(w.bubble_error_count(), reference(w)) << w.to_string();
  }
}

TEST(ThermoWord, EqualityIncludesWidth) {
  EXPECT_EQ(ThermoWord::of_count(3, 7), ThermoWord::of_count(3, 7));
  EXPECT_FALSE(ThermoWord::of_count(3, 7) == ThermoWord::of_count(3, 8));
}

TEST(ThermoWord, Validation) {
  EXPECT_THROW(ThermoWord(0, 0), std::logic_error);
  EXPECT_THROW(ThermoWord(0, 33), std::logic_error);
  EXPECT_THROW(ThermoWord(0x80, 7), std::logic_error);  // bit beyond width
  EXPECT_THROW(ThermoWord::of_count(8, 7), std::logic_error);
  EXPECT_THROW(thermo_word("01a0"), std::logic_error);
  EXPECT_THROW(thermo_word(""), std::logic_error);
}

// Property sweep: every contiguous word is valid; every word with an
// isolated hole is not.
class ThermoWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThermoWidths, OfCountAlwaysValid) {
  const std::size_t width = GetParam();
  for (std::size_t ones = 0; ones <= width; ++ones) {
    const auto w = ThermoWord::of_count(ones, width);
    EXPECT_TRUE(w.is_valid_thermometer()) << w.to_string();
    EXPECT_EQ(w.count_ones(), ones);
  }
}

TEST_P(ThermoWidths, SingleHoleIsInvalidAndCorrectable) {
  const std::size_t width = GetParam();
  if (width < 3) return;
  for (std::size_t hole = 0; hole + 1 < width - 1; ++hole) {
    // ones up to `hole+2`, then clear `hole`: creates a bubble.
    ThermoWord w = ThermoWord::of_count(hole + 2, width);
    w.set_bit(hole, false);
    EXPECT_FALSE(w.is_valid_thermometer()) << w.to_string();
    EXPECT_TRUE(w.bubble_corrected().is_valid_thermometer());
    EXPECT_EQ(w.bubble_corrected().count_ones(), w.count_ones());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ThermoWidths,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 15, 31));

}  // namespace
}  // namespace psnt::core
