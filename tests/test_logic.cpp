#include "sim/logic.h"

#include <gtest/gtest.h>

#include <tuple>

namespace psnt::sim {
namespace {

TEST(Logic, CharRendering) {
  EXPECT_EQ(to_char(Logic::L0), '0');
  EXPECT_EQ(to_char(Logic::L1), '1');
  EXPECT_EQ(to_char(Logic::X), 'x');
  EXPECT_EQ(to_char(Logic::Z), 'z');
}

TEST(Logic, KnownPredicate) {
  EXPECT_TRUE(is_known(Logic::L0));
  EXPECT_TRUE(is_known(Logic::L1));
  EXPECT_FALSE(is_known(Logic::X));
  EXPECT_FALSE(is_known(Logic::Z));
}

TEST(Logic, NotTable) {
  EXPECT_EQ(logic_not(Logic::L0), Logic::L1);
  EXPECT_EQ(logic_not(Logic::L1), Logic::L0);
  EXPECT_EQ(logic_not(Logic::X), Logic::X);
  EXPECT_EQ(logic_not(Logic::Z), Logic::X);  // floating input reads X
}

TEST(Logic, AndControllingZero) {
  // 0 dominates even X/Z.
  for (Logic other : {Logic::L0, Logic::L1, Logic::X, Logic::Z}) {
    EXPECT_EQ(logic_and(Logic::L0, other), Logic::L0);
    EXPECT_EQ(logic_and(other, Logic::L0), Logic::L0);
  }
  EXPECT_EQ(logic_and(Logic::L1, Logic::L1), Logic::L1);
  EXPECT_EQ(logic_and(Logic::L1, Logic::X), Logic::X);
}

TEST(Logic, OrControllingOne) {
  for (Logic other : {Logic::L0, Logic::L1, Logic::X, Logic::Z}) {
    EXPECT_EQ(logic_or(Logic::L1, other), Logic::L1);
    EXPECT_EQ(logic_or(other, Logic::L1), Logic::L1);
  }
  EXPECT_EQ(logic_or(Logic::L0, Logic::L0), Logic::L0);
  EXPECT_EQ(logic_or(Logic::L0, Logic::X), Logic::X);
}

TEST(Logic, MuxSelectsBySel) {
  EXPECT_EQ(logic_mux(Logic::L0, Logic::L1, Logic::L0), Logic::L0);
  EXPECT_EQ(logic_mux(Logic::L0, Logic::L1, Logic::L1), Logic::L1);
}

TEST(Logic, MuxUnknownSelect) {
  // Agreeing data inputs shine through an unknown select.
  EXPECT_EQ(logic_mux(Logic::L1, Logic::L1, Logic::X), Logic::L1);
  EXPECT_EQ(logic_mux(Logic::L0, Logic::L0, Logic::Z), Logic::L0);
  // Disagreeing data inputs do not.
  EXPECT_EQ(logic_mux(Logic::L0, Logic::L1, Logic::X), Logic::X);
}

TEST(Logic, FromBool) {
  EXPECT_EQ(from_bool(true), Logic::L1);
  EXPECT_EQ(from_bool(false), Logic::L0);
}

// De Morgan over the full 4-value domain: ~(a&b) == ~a | ~b.
class DeMorgan
    : public ::testing::TestWithParam<std::tuple<Logic, Logic>> {};

TEST_P(DeMorgan, HoldsOnAllPairs) {
  const auto [a, b] = GetParam();
  EXPECT_EQ(logic_not(logic_and(a, b)),
            logic_or(logic_not(a), logic_not(b)));
  EXPECT_EQ(logic_not(logic_or(a, b)),
            logic_and(logic_not(a), logic_not(b)));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, DeMorgan,
    ::testing::Combine(::testing::Values(Logic::L0, Logic::L1, Logic::X,
                                         Logic::Z),
                       ::testing::Values(Logic::L0, Logic::L1, Logic::X,
                                         Logic::Z)));

}  // namespace
}  // namespace psnt::sim
