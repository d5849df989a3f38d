#include "sim/supply_inverter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/gates.h"
#include "sim/probe.h"

namespace psnt::sim {
namespace {

using namespace psnt::literals;

TEST(SupplyInverter, DelayMatchesBehavioralModel) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& y = sim.net("y");
  analog::AlphaPowerDelayModel model;
  analog::ConstantRail vdd{1.0_V};
  sim.add<SupplyInverter>("inv", a, y, model,
                          analog::RailPair{&vdd, nullptr}, 2.0_pF);
  TransitionRecorder rec(y);
  sim.drive(a, 0.0_ps, Logic::L1);   // settle DS low
  sim.drive(a, 1000.0_ps, Logic::L0);  // sense edge
  sim.run_until(100000.0_ps);

  const double expected = model.delay(1.0_V, 2.0_pF).value();
  ASSERT_TRUE(rec.last_rise().has_value());
  // fs quantisation: within 1 fs.
  EXPECT_NEAR(rec.last_rise()->value(), 1000.0 + expected, 0.001);
}

TEST(SupplyInverter, LowerSupplyIsSlower) {
  auto run_at = [](double volts) {
    Simulator sim;
    Net& a = sim.net("a");
    Net& y = sim.net("y");
    analog::ConstantRail vdd{Volt{volts}};
    sim.add<SupplyInverter>("inv", a, y, analog::AlphaPowerDelayModel{},
                            analog::RailPair{&vdd, nullptr}, 2.0_pF);
    TransitionRecorder rec(y);
    sim.drive(a, 0.0_ps, Logic::L1);
    sim.drive(a, 1000.0_ps, Logic::L0);
    sim.run_until(100000.0_ps);
    return rec.last_rise()->value();
  };
  EXPECT_GT(run_at(0.90), run_at(1.00));
  EXPECT_GT(run_at(1.00), run_at(1.10));
}

TEST(SupplyInverter, LargerLoadIsSlower) {
  auto run_with = [](double pf) {
    Simulator sim;
    Net& a = sim.net("a");
    Net& y = sim.net("y");
    static analog::ConstantRail vdd{1.0_V};
    sim.add<SupplyInverter>("inv", a, y, analog::AlphaPowerDelayModel{},
                            analog::RailPair{&vdd, nullptr}, Picofarad{pf});
    TransitionRecorder rec(y);
    sim.drive(a, 0.0_ps, Logic::L1);
    sim.drive(a, 1000.0_ps, Logic::L0);
    sim.run_until(100000.0_ps);
    return rec.last_rise()->value();
  };
  EXPECT_LT(run_with(1.0), run_with(2.0));
  EXPECT_LT(run_with(2.0), run_with(3.0));
}

TEST(SupplyInverter, SamplesRailAtEventTime) {
  // Rail droops between the two input edges: the second transition must see
  // the drooped voltage.
  Simulator sim;
  Net& a = sim.net("a");
  Net& y = sim.net("y");
  analog::CallbackRail vdd{[](Picoseconds t) {
    return t.value() < 500.0 ? Volt{1.0} : Volt{0.9};
  }};
  auto& inv =
      sim.add<SupplyInverter>("inv", a, y, analog::AlphaPowerDelayModel{},
                              analog::RailPair{&vdd, nullptr}, 2.0_pF);
  sim.drive(a, 0.0_ps, Logic::L1);
  sim.drive(a, 1000.0_ps, Logic::L0);
  sim.run_until(100000.0_ps);
  ASSERT_EQ(inv.transitions().size(), 2u);
  EXPECT_DOUBLE_EQ(inv.transitions()[0].supply.value(), 1.0);
  EXPECT_DOUBLE_EQ(inv.transitions()[1].supply.value(), 0.9);
  EXPECT_GT(inv.transitions()[1].delay.value(),
            inv.transitions()[0].delay.value());
}

TEST(SupplyInverter, DelayTracksTimeVaryingRail) {
  // Every output edge lands at its input time plus the model delay at the
  // rail voltage of that input time, edge after edge on a moving rail.
  analog::CallbackRail vdd{[](Picoseconds t) {
    return Volt{1.0 - 0.08 * std::sin(t.value() / 700.0)};
  }};
  const analog::AlphaPowerDelayModel model;
  Simulator sim;
  Net& a = sim.net("a");
  Net& pre = sim.net("pre");
  Net& y = sim.net("y");
  sim.add<BufGate>("g0", a, pre, 9.0_ps);
  auto& inv = sim.add<SupplyInverter>(
      "si", pre, y, model, analog::RailPair{&vdd, nullptr}, 2.0_pF);
  TransitionRecorder rec(y);
  sim.drive(a, 0.0_ps, Logic::L1);  // DS settles low
  double t = 1000.0;
  for (int i = 0; i < 40; ++i) {
    sim.drive(a, Picoseconds{t}, i % 2 == 0 ? Logic::L0 : Logic::L1);
    t += 431.0;  // long enough for the (slow) sense edge to land
  }
  sim.run_until(100000.0_ps);

  ASSERT_EQ(inv.transitions().size(), 41u);
  ASSERT_EQ(rec.count(), 41u);
  double min_delay = 1e9;
  double max_delay = 0.0;
  for (std::size_t i = 0; i < rec.count(); ++i) {
    const auto& tr = inv.transitions()[i];
    EXPECT_DOUBLE_EQ(tr.supply.value(), vdd.at(tr.input_time).value());
    EXPECT_DOUBLE_EQ(tr.delay.value(),
                     model.delay(tr.supply, 2.0_pF).value());
    // fs quantisation: within 1 fs.
    EXPECT_NEAR(rec.transitions()[i].time.value(),
                tr.input_time.value() + tr.delay.value(), 0.001);
    min_delay = std::min(min_delay, tr.delay.value());
    max_delay = std::max(max_delay, tr.delay.value());
  }
  EXPECT_GT(max_delay - min_delay, 1.0) << "the rail must move the delay";
}

TEST(SupplyInverter, GroundBounceReducesOverdrive) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& y = sim.net("y");
  analog::ConstantRail vdd{1.0_V};
  analog::ConstantRail gnd{0.05_V};
  auto& inv =
      sim.add<SupplyInverter>("inv", a, y, analog::AlphaPowerDelayModel{},
                              analog::RailPair{&vdd, &gnd}, 2.0_pF);
  sim.drive(a, 0.0_ps, Logic::L1);
  sim.run_until(100000.0_ps);
  ASSERT_EQ(inv.transitions().size(), 1u);
  EXPECT_NEAR(inv.transitions()[0].supply.value(), 0.95, 1e-12);
}

TEST(SupplyInverter, RequiresVddRail) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& y = sim.net("y");
  EXPECT_THROW(sim.add<SupplyInverter>("inv", a, y,
                                       analog::AlphaPowerDelayModel{},
                                       analog::RailPair{nullptr, nullptr},
                                       1.0_pF),
               std::logic_error);
}

}  // namespace
}  // namespace psnt::sim
