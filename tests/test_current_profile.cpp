#include "psn/current_profile.h"

#include <gtest/gtest.h>

namespace psnt::psn {
namespace {

using namespace psnt::literals;

TEST(CurrentProfile, ConstantAlwaysSame) {
  ConstantCurrent c{Ampere{1.5}};
  EXPECT_DOUBLE_EQ(c.at(0.0_ps).value(), 1.5);
  EXPECT_DOUBLE_EQ(c.at(1e9_ps).value(), 1.5);
}

TEST(CurrentProfile, IdealStep) {
  StepCurrent s{Ampere{0.5}, Ampere{2.5}, 1000.0_ps};
  EXPECT_DOUBLE_EQ(s.at(999.0_ps).value(), 0.5);
  EXPECT_DOUBLE_EQ(s.at(1000.0_ps).value(), 2.5);
}

TEST(CurrentProfile, RampedStepInterpolates) {
  StepCurrent s{Ampere{0.0}, Ampere{2.0}, 1000.0_ps, 200.0_ps};
  EXPECT_DOUBLE_EQ(s.at(1000.0_ps).value(), 0.0);
  EXPECT_DOUBLE_EQ(s.at(1100.0_ps).value(), 1.0);
  EXPECT_DOUBLE_EQ(s.at(1200.0_ps).value(), 2.0);
  EXPECT_DOUBLE_EQ(s.at(5000.0_ps).value(), 2.0);
}

TEST(CurrentProfile, SquareWavePhases) {
  SquareWaveCurrent sq{Ampere{0.1}, Ampere{1.1}, 1000.0_ps, 0.25};
  EXPECT_DOUBLE_EQ(sq.at(0.0_ps).value(), 1.1);     // first 25%
  EXPECT_DOUBLE_EQ(sq.at(240.0_ps).value(), 1.1);
  EXPECT_DOUBLE_EQ(sq.at(260.0_ps).value(), 0.1);
  EXPECT_DOUBLE_EQ(sq.at(1100.0_ps).value(), 1.1);  // next period
  SquareWaveCurrent delayed{Ampere{0.0}, Ampere{1.0}, 1000.0_ps, 0.5,
                            500.0_ps};
  EXPECT_DOUBLE_EQ(delayed.at(100.0_ps).value(), 0.0);  // before t0
}

TEST(CurrentProfile, SquareWaveValidation) {
  EXPECT_THROW(SquareWaveCurrent(Ampere{0}, Ampere{1}, 0.0_ps, 0.5),
               std::logic_error);
  EXPECT_THROW(SquareWaveCurrent(Ampere{0}, Ampere{1}, 10.0_ps, 1.5),
               std::logic_error);
}

TEST(CurrentProfile, TracePerCycleLookup) {
  TraceCurrent t{100.0_ps, {0.1, 0.2, 0.3}};
  EXPECT_EQ(t.cycles(), 3u);
  EXPECT_DOUBLE_EQ(t.at(0.0_ps).value(), 0.1);
  EXPECT_DOUBLE_EQ(t.at(150.0_ps).value(), 0.2);
  EXPECT_DOUBLE_EQ(t.at(250.0_ps).value(), 0.3);
  // Past the end: holds the last cycle.
  EXPECT_DOUBLE_EQ(t.at(10000.0_ps).value(), 0.3);
}

}  // namespace
}  // namespace psnt::psn
