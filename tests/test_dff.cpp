#include "sim/dff.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/gates.h"
#include "sim/probe.h"

namespace psnt::sim {
namespace {

using namespace psnt::literals;

struct Fixture {
  Simulator sim;
  Net& d;
  Net& cp;
  Net& q;
  DFlipFlop& ff;

  Fixture()
      : d(sim.net("d")),
        cp(sim.net("cp")),
        q(sim.net("q")),
        ff(sim.add<DFlipFlop>("ff", d, cp, q,
                              analog::FlipFlopTimingModel{})) {}
};

TEST(Dff, CleanCaptureOfStableData) {
  Fixture f;
  f.sim.drive(f.d, 0.0_ps, Logic::L1);
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 500.0_ps, Logic::L1);
  f.sim.run_until(10000.0_ps);
  EXPECT_EQ(f.q.value(), Logic::L1);
  ASSERT_EQ(f.ff.history().size(), 1u);
  EXPECT_EQ(f.ff.history()[0].outcome.region, analog::SampleRegion::kClean);
  EXPECT_EQ(f.ff.setup_violations(), 0u);
}

TEST(Dff, QAppearsAfterClkToQ) {
  Fixture f;
  f.sim.drive(f.d, 0.0_ps, Logic::L1);
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 500.0_ps, Logic::L1);
  TransitionRecorder rec(f.q);
  f.sim.run_until(10000.0_ps);
  ASSERT_TRUE(rec.last_rise().has_value());
  EXPECT_DOUBLE_EQ(rec.last_rise()->value(),
                   500.0 + f.ff.model().params().t_clk_to_q.value());
}

TEST(Dff, LateDataViolatesSetupAndKeepsOldValue) {
  Fixture f;
  // Load a 0 first.
  f.sim.drive(f.d, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 300.0_ps, Logic::L1);
  f.sim.drive(f.cp, 600.0_ps, Logic::L0);
  // D flips 10 ps before the second edge: within the 35 ps setup window.
  f.sim.drive(f.d, 890.0_ps, Logic::L1);
  f.sim.drive(f.cp, 900.0_ps, Logic::L1);
  f.sim.run_until(10000.0_ps);
  EXPECT_EQ(f.q.value(), Logic::L0);  // old value retained
  EXPECT_EQ(f.ff.setup_violations(), 1u);
  ASSERT_EQ(f.ff.history().size(), 2u);
  EXPECT_EQ(f.ff.history()[1].outcome.region,
            analog::SampleRegion::kViolated);
}

TEST(Dff, MetastableMarginSlowsClkToQ) {
  Fixture f;
  f.sim.drive(f.d, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  // Margin = 900 - 35 - 860 = 5 ps: metastable but captured.
  f.sim.drive(f.d, 860.0_ps, Logic::L1);
  f.sim.drive(f.cp, 900.0_ps, Logic::L1);
  TransitionRecorder rec(f.q);
  f.sim.run_until(10000.0_ps);
  EXPECT_EQ(f.q.value(), Logic::L1);
  EXPECT_EQ(f.ff.metastable_samples(), 1u);
  ASSERT_TRUE(rec.last_rise().has_value());
  EXPECT_GT(rec.last_rise()->value(),
            900.0 + f.ff.model().params().t_clk_to_q.value());
}

TEST(Dff, IgnoresFallingEdges) {
  Fixture f;
  f.sim.drive(f.d, 0.0_ps, Logic::L1);
  f.sim.drive(f.cp, 0.0_ps, Logic::L1);  // X→1 is not 0→1
  f.sim.drive(f.cp, 100.0_ps, Logic::L0);
  f.sim.run_until(10000.0_ps);
  EXPECT_TRUE(f.ff.history().empty());
  EXPECT_EQ(f.q.value(), Logic::X);
}

TEST(Dff, XDataPropagatesXToQ) {
  Fixture f;
  // D never driven: stays X.
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 200.0_ps, Logic::L1);
  f.sim.run_until(10000.0_ps);
  EXPECT_EQ(f.q.value(), Logic::X);
  ASSERT_EQ(f.ff.history().size(), 1u);
}

TEST(Dff, XCapturePropagatesThroughDownstreamGate) {
  Fixture f;
  Net& y = f.sim.net("y");
  f.sim.add<InvGate>("inv", f.q, y, 5.0_ps);
  f.sim.drive(f.d, 0.0_ps, Logic::L1);
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 500.0_ps, Logic::L1);
  f.sim.drive(f.cp, 1000.0_ps, Logic::L0);
  f.sim.run_until(1400.0_ps);
  ASSERT_EQ(f.q.value(), Logic::L1);
  ASSERT_EQ(y.value(), Logic::L0);
  // D goes unknown; the next edge captures X and the inverter passes it on.
  f.sim.drive(f.d, 1500.0_ps, Logic::X);
  f.sim.drive(f.cp, 2000.0_ps, Logic::L1);
  f.sim.run_until(10000.0_ps);
  EXPECT_EQ(f.q.value(), Logic::X);
  EXPECT_EQ(y.value(), Logic::X);
}

// Sweeps the D arrival across one sampling edge, from well before it to
// past the hold window. The outcome must walk the regions in order: clean
// capture, metastable capture (clk-to-q growing as the margin shrinks),
// setup violation (old value kept), hold violation (Q goes X), and finally
// a clean capture of the old value once D moves after the hold window.
TEST(Dff, EdgeOrderingAcrossSetupHoldWindows) {
  enum Phase { kClean, kMetastable, kSetup, kHold, kAfterHold };
  int last_phase = kClean;
  double last_q_rise = 0.0;
  std::vector<bool> seen(5, false);
  const double edge = 5000.0;
  for (double d_lead = 60.0; d_lead >= -20.0; d_lead -= 2.5) {
    Fixture f;
    // Load a 0 first so a retained old value is distinguishable from X.
    f.sim.drive(f.d, 0.0_ps, Logic::L0);
    f.sim.drive(f.cp, 0.0_ps, Logic::L0);
    f.sim.drive(f.cp, 1000.0_ps, Logic::L1);
    f.sim.drive(f.cp, 2000.0_ps, Logic::L0);
    // D rises d_lead ps before the edge (negative: after it).
    f.sim.drive(f.d, Picoseconds{edge - d_lead}, Logic::L1);
    f.sim.drive(f.cp, Picoseconds{edge}, Logic::L1);
    TransitionRecorder rec(f.q);
    f.sim.run_until(10000.0_ps);
    ASSERT_EQ(f.ff.history().size(), 2u) << "d_lead=" << d_lead;
    const DFlipFlop::EdgeRecord& r = f.ff.history()[1];

    int phase = -1;
    if (r.hold_violation) {
      if (f.q.value() == Logic::X) phase = kHold;
    } else if (r.outcome.region == analog::SampleRegion::kClean) {
      phase = f.q.value() == Logic::L1 ? kClean : kAfterHold;
    } else if (r.outcome.region == analog::SampleRegion::kMetastable &&
               f.q.value() == Logic::L1) {
      phase = kMetastable;
    } else if (r.outcome.region == analog::SampleRegion::kViolated &&
               f.q.value() == Logic::L0) {
      phase = kSetup;
    }
    ASSERT_GE(phase, 0) << "unexpected outcome at d_lead=" << d_lead;
    EXPECT_GE(phase, last_phase) << "regions out of order at d_lead="
                                 << d_lead;
    if (phase == kClean || phase == kMetastable) {
      ASSERT_TRUE(rec.last_rise().has_value());
      EXPECT_GE(rec.last_rise()->value(), last_q_rise)
          << "clk-to-q shrank as the margin shrank at d_lead=" << d_lead;
      last_q_rise = rec.last_rise()->value();
    }
    last_phase = phase;
    seen[phase] = true;
  }
  for (int p = kClean; p <= kAfterHold; ++p) {
    EXPECT_TRUE(seen[p]) << "the sweep never reached phase " << p;
  }
}

TEST(Dff, HoldViolationDetected) {
  Fixture f;
  f.sim.drive(f.d, 0.0_ps, Logic::L1);
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 500.0_ps, Logic::L1);
  // D moves 3 ps after the edge: inside the 10 ps hold window.
  f.sim.drive(f.d, 503.0_ps, Logic::L0);
  f.sim.run_until(10000.0_ps);
  EXPECT_EQ(f.ff.hold_violations(), 1u);
  EXPECT_EQ(f.q.value(), Logic::X);
  ASSERT_EQ(f.ff.history().size(), 1u);
  EXPECT_TRUE(f.ff.history()[0].hold_violation);
}

TEST(Dff, DataChangeWellAfterEdgeIsNoViolation) {
  Fixture f;
  f.sim.drive(f.d, 0.0_ps, Logic::L1);
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 500.0_ps, Logic::L1);
  f.sim.drive(f.d, 600.0_ps, Logic::L0);
  f.sim.run_until(10000.0_ps);
  EXPECT_EQ(f.ff.hold_violations(), 0u);
  EXPECT_EQ(f.q.value(), Logic::L1);
}

TEST(Dff, HistoryClearWorks) {
  Fixture f;
  f.sim.drive(f.d, 0.0_ps, Logic::L1);
  f.sim.drive(f.cp, 0.0_ps, Logic::L0);
  f.sim.drive(f.cp, 500.0_ps, Logic::L1);
  f.sim.run_until(10000.0_ps);
  EXPECT_EQ(f.ff.history().size(), 1u);
  f.ff.clear_history();
  EXPECT_TRUE(f.ff.history().empty());
}

}  // namespace
}  // namespace psnt::sim
