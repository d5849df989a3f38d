#include <gtest/gtest.h>

#include "sim/gates.h"
#include "sim/probe.h"
#include "sim/simulator.h"
#include "util/error.h"

namespace psnt::sim {
namespace {

using namespace psnt::literals;

// Drives a periodic clock on a net: rising edges at phase + k*period, 50%
// duty, for `cycles` cycles.
void drive_clock(Simulator& sim, Net& net, Picoseconds phase,
                 Picoseconds period, std::size_t cycles) {
  PSNT_CHECK(period.value() > 0.0, "clock period must be positive");
  for (std::size_t k = 0; k < cycles; ++k) {
    const Picoseconds rise = phase + period * static_cast<double>(k);
    sim.drive(net, rise, Logic::L1);
    sim.drive(net, rise + period * 0.5, Logic::L0);
  }
}

// Drives a square pulse: net goes high at t_start and back low at t_end.
void drive_pulse(Simulator& sim, Net& net, Picoseconds t_start,
                 Picoseconds t_end) {
  PSNT_CHECK(t_end.value() > t_start.value(), "pulse must have positive width");
  sim.drive(net, t_start, Logic::L1);
  sim.drive(net, t_end, Logic::L0);
}

TEST(Net, StartsUnknown) {
  Simulator sim;
  EXPECT_EQ(sim.net("n").value(), Logic::X);
}

TEST(Net, ByNameReturnsSameNet) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& a2 = sim.net("a");
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(sim.net_count(), 1u);
  EXPECT_EQ(sim.find_net("missing"), nullptr);
}

TEST(Net, ForceNotifiesListeners) {
  Simulator sim;
  Net& n = sim.net("n");
  int calls = 0;
  Logic seen_new = Logic::X;
  n.on_change([&](const Net&, Logic, Logic to, SimTime) {
    ++calls;
    seen_new = to;
  });
  n.force(sim.scheduler(), Logic::L1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_new, Logic::L1);
  // No-op when unchanged.
  n.force(sim.scheduler(), Logic::L1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(n.transition_count(), 1u);
}

TEST(Net, ScheduledLevelAppliesAfterDelay) {
  Simulator sim;
  Net& n = sim.net("n");
  n.schedule_level(sim.scheduler(), from_ps(100.0), Logic::L1);
  sim.run_until(99.0_ps);
  EXPECT_EQ(n.value(), Logic::X);
  sim.run_until(101.0_ps);
  EXPECT_EQ(n.value(), Logic::L1);
  EXPECT_EQ(to_ps(n.last_change()).value(), 100.0);
}

TEST(Net, InertialCancellation) {
  // Two schedules in quick succession: only the second lands.
  Simulator sim;
  Net& n = sim.net("n");
  n.force(sim.scheduler(), Logic::L0);
  n.schedule_level(sim.scheduler(), from_ps(50.0), Logic::L1);
  n.schedule_level(sim.scheduler(), from_ps(80.0), Logic::L0);
  sim.run_until(200.0_ps);
  EXPECT_EQ(n.value(), Logic::L0);
  // Only the initial force transition happened; the L1 pulse was swallowed.
  EXPECT_EQ(n.transition_count(), 1u);
}

TEST(Gates, InverterTruthAndDelay) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& y = sim.net("y");
  sim.add<InvGate>("u1", a, y, 14.0_ps);
  TransitionRecorder rec(y);
  sim.drive(a, 10.0_ps, Logic::L0);
  sim.run_until(100.0_ps);
  EXPECT_EQ(y.value(), Logic::L1);
  ASSERT_EQ(rec.count(), 1u);
  EXPECT_DOUBLE_EQ(rec.transitions()[0].time.value(), 24.0);
}

TEST(Gates, InverterSwallowsShortGlitch) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& y = sim.net("y");
  sim.add<InvGate>("u1", a, y, 20.0_ps);
  TransitionRecorder rec(y);
  sim.drive(a, 0.0_ps, Logic::L0);
  // 5 ps pulse, shorter than the gate delay: inertial filtering.
  sim.drive(a, 100.0_ps, Logic::L1);
  sim.drive(a, 105.0_ps, Logic::L0);
  sim.run_until(200.0_ps);
  // Only the initial 0→(inverted)1 transition is visible.
  ASSERT_EQ(rec.count(), 1u);
  EXPECT_EQ(y.value(), Logic::L1);
}

TEST(Gates, ShortPulseSwallowedLongPulsePropagatesThroughChain) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& y = sim.net("y");
  Net& z = sim.net("z");
  sim.add<BufGate>("g0", a, y, 50.0_ps);
  sim.add<InvGate>("g1", y, z, 30.0_ps);
  sim.drive(a, 0.0_ps, Logic::L0);
  sim.run_until(500.0_ps);
  TransitionRecorder y_rec(y);
  TransitionRecorder z_rec(z);

  // 20 ps pulse into a 50 ps buffer: cancelled in flight, nothing downstream.
  sim.drive(a, 1000.0_ps, Logic::L1);
  sim.drive(a, 1020.0_ps, Logic::L0);
  sim.run_until(1500.0_ps);
  EXPECT_EQ(y_rec.count(), 0u);
  EXPECT_EQ(z_rec.count(), 0u);

  // 80 ps pulse: both edges survive the buffer and the inverter.
  sim.drive(a, 2000.0_ps, Logic::L1);
  sim.drive(a, 2080.0_ps, Logic::L0);
  sim.run_until(2060.0_ps);
  EXPECT_EQ(y.value(), Logic::L1);  // y high, z not yet
  EXPECT_EQ(z.value(), Logic::L1);
  sim.run_until(2500.0_ps);
  ASSERT_EQ(y_rec.count(), 2u);
  ASSERT_EQ(z_rec.count(), 2u);
  EXPECT_DOUBLE_EQ(y_rec.transitions()[0].time.value(), 2050.0);
  EXPECT_DOUBLE_EQ(y_rec.transitions()[1].time.value(), 2130.0);
  EXPECT_DOUBLE_EQ(z_rec.transitions()[0].time.value(), 2080.0);
  EXPECT_DOUBLE_EQ(z_rec.transitions()[1].time.value(), 2160.0);
  EXPECT_EQ(z.value(), Logic::L1);
}

TEST(Gates, AndOrMux) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& b = sim.net("b");
  Net& s = sim.net("s");
  Net& y_and = sim.net("y_and");
  Net& y_or = sim.net("y_or");
  Net& y_mux = sim.net("y_mux");
  sim.add<And2Gate>("u0", a, b, y_and, 1.0_ps);
  sim.add<Or2Gate>("u1", a, b, y_or, 1.0_ps);
  sim.add<Mux2Gate>("u3", a, b, s, y_mux, 1.0_ps);

  sim.drive(a, 0.0_ps, Logic::L1);
  sim.drive(b, 0.0_ps, Logic::L0);
  sim.drive(s, 0.0_ps, Logic::L1);
  sim.run_until(10.0_ps);
  EXPECT_EQ(y_and.value(), Logic::L0);
  EXPECT_EQ(y_or.value(), Logic::L1);
  EXPECT_EQ(y_mux.value(), Logic::L0);  // sel=1 → b
}

TEST(Gates, BufferChainAccumulatesDelay) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& m = sim.net("m");
  Net& y = sim.net("y");
  sim.add<BufGate>("u0", a, m, 30.0_ps);
  sim.add<BufGate>("u1", m, y, 45.0_ps);
  TransitionRecorder rec(y);
  sim.drive(a, 0.0_ps, Logic::L1);
  sim.run_until(200.0_ps);
  ASSERT_EQ(rec.count(), 1u);
  EXPECT_DOUBLE_EQ(rec.transitions()[0].time.value(), 75.0);
}

TEST(Gates, RejectsInvalidConstruction) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& y = sim.net("y");
  EXPECT_THROW(sim.add<InvGate>("bad", a, y, Picoseconds{-5.0}),
               std::logic_error);
}

TEST(Probe, DriveClockProducesEdges) {
  Simulator sim;
  Net& clk = sim.net("clk");
  TransitionRecorder rec(clk);
  drive_clock(sim, clk, 100.0_ps, 200.0_ps, 3);
  sim.run_until(1000.0_ps);
  // 3 cycles → 6 transitions; rises at 100, 300, 500.
  EXPECT_EQ(rec.count(), 6u);
  EXPECT_DOUBLE_EQ(rec.first_rise_after(0.0_ps)->value(), 100.0);
  EXPECT_DOUBLE_EQ(rec.first_rise_after(150.0_ps)->value(), 300.0);
  EXPECT_DOUBLE_EQ(rec.last_rise()->value(), 500.0);
  EXPECT_DOUBLE_EQ(rec.last_fall()->value(), 600.0);
}

TEST(Probe, DrivePulse) {
  Simulator sim;
  Net& n = sim.net("n");
  TransitionRecorder rec(n);
  sim.drive(n, 0.0_ps, Logic::L0);
  drive_pulse(sim, n, 50.0_ps, 90.0_ps);
  sim.run_until(90.0_ps);
  EXPECT_DOUBLE_EQ(rec.first_rise_after(0.0_ps)->value(), 50.0);
  EXPECT_DOUBLE_EQ(rec.first_fall_after(50.0_ps)->value(), 90.0);
  EXPECT_THROW(drive_pulse(sim, n, 100.0_ps, 100.0_ps), std::logic_error);
}

}  // namespace
}  // namespace psnt::sim
