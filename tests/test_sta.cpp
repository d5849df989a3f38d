#include <gtest/gtest.h>

#include "sta/control_netlist.h"
#include "sta/timing_graph.h"

namespace psnt::sta {
namespace {

using namespace psnt::literals;

TEST(TimingGraph, SimpleChainLongestPath) {
  TimingGraph g;
  const auto a = g.add_node("ff_a/Q");
  const auto b = g.add_node("u1/Y");
  const auto c = g.add_node("ff_b/D");
  g.add_edge(a, b, 40.0_ps);
  g.add_edge(b, c, 0.0_ps);
  g.set_source(a, 100.0_ps);
  g.set_sink(c, 50.0_ps);
  const auto path = g.critical_path();
  EXPECT_DOUBLE_EQ(path.arrival.value(), 190.0);
  ASSERT_EQ(path.nodes.size(), 3u);
  EXPECT_EQ(path.nodes.front(), "ff_a/Q");
  EXPECT_EQ(path.nodes.back(), "ff_b/D");
}

TEST(TimingGraph, PicksTheWorstOfReconvergentPaths) {
  TimingGraph g;
  const auto src = g.add_node("src");
  const auto fast = g.add_node("fast");
  const auto slow1 = g.add_node("slow1");
  const auto slow2 = g.add_node("slow2");
  const auto sink = g.add_node("sink");
  g.add_edge(src, fast, 10.0_ps);
  g.add_edge(fast, sink, 0.0_ps);
  g.add_edge(src, slow1, 30.0_ps);
  g.add_edge(slow1, slow2, 30.0_ps);
  g.add_edge(slow2, sink, 0.0_ps);
  g.set_source(src, 0.0_ps);
  g.set_sink(sink, 0.0_ps);
  const auto path = g.critical_path();
  EXPECT_DOUBLE_EQ(path.arrival.value(), 60.0);
  EXPECT_EQ(path.nodes,
            (std::vector<std::string>{"src", "slow1", "slow2", "sink"}));
}

TEST(TimingGraph, MultipleSourcesAndSinks) {
  TimingGraph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto s1 = g.add_node("s1");
  const auto s2 = g.add_node("s2");
  g.add_edge(a, s1, 20.0_ps);
  g.add_edge(b, s2, 80.0_ps);
  g.set_source(a, 10.0_ps);
  g.set_source(b, 10.0_ps);
  g.set_sink(s1, 5.0_ps);
  g.set_sink(s2, 5.0_ps);
  EXPECT_DOUBLE_EQ(g.critical_path().arrival.value(), 95.0);
}

TEST(TimingGraph, DetectsCycles) {
  TimingGraph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  g.add_edge(a, b, 1.0_ps);
  g.add_edge(b, a, 1.0_ps);
  g.set_source(a, 0.0_ps);
  g.set_sink(b, 0.0_ps);
  EXPECT_THROW((void)g.critical_path(), std::logic_error);
}

TEST(TimingGraph, NoSourceToSinkIsAnError) {
  TimingGraph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  g.set_source(a, 0.0_ps);
  g.set_sink(b, 0.0_ps);  // disconnected
  EXPECT_THROW((void)g.critical_path(), std::logic_error);
}

TEST(TimingGraph, ArrivalTimesPropagate) {
  TimingGraph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  g.add_edge(a, b, 25.0_ps);
  g.set_source(a, 5.0_ps);
  const auto arrivals = g.arrival_times_ps();
  EXPECT_DOUBLE_EQ(arrivals[a], 5.0);
  EXPECT_DOUBLE_EQ(arrivals[b], 30.0);
}

TEST(TimingGraph, ValidatesIds) {
  TimingGraph g;
  const auto a = g.add_node("a");
  EXPECT_THROW(g.add_edge(a, 99, 1.0_ps), std::logic_error);
  EXPECT_THROW(g.set_source(42, 0.0_ps), std::logic_error);
  EXPECT_THROW((void)g.node_name(9), std::logic_error);
  EXPECT_THROW(g.add_edge(a, a, Picoseconds{-1.0}), std::logic_error);
}

TEST(ControlNetlist, ReproducesThePaperCriticalPath) {
  // "The critical path of the whole control system at 90nm is 1.22ns."
  const auto path = control_critical_path(analog::default_90nm_library());
  EXPECT_NEAR(path.arrival.value(), 1220.0, 25.0);
}

TEST(ControlNetlist, CriticalPathGoesThroughTheEncoder) {
  const auto path = control_critical_path(analog::default_90nm_library());
  bool through_enc = false;
  for (const auto& n : path.nodes) {
    if (n.rfind("enc.", 0) == 0) through_enc = true;
  }
  EXPECT_TRUE(through_enc) << path.nodes.size() << " nodes";
  // Launches from a sensor output register, captures in a code register.
  EXPECT_EQ(path.nodes.front().rfind("hs.out", 0), 0u);
  EXPECT_EQ(path.nodes.back().rfind("code.d", 0), 0u);
}

TEST(ControlNetlist, HasRealisticSize) {
  const auto netlist = build_control_netlist(analog::default_90nm_library());
  EXPECT_GT(netlist.gate_count, 60u);
  EXPECT_LT(netlist.gate_count, 400u);
  EXPECT_GT(netlist.register_count, 25u);
  EXPECT_GT(netlist.graph.edge_count(), netlist.gate_count);
}

TEST(ControlNetlist, WireLoadKnobMovesThePath) {
  ControlNetlistOptions light;
  light.wire_cap_per_fanout = Picofarad{0.0};
  light.cross_block_route_cap = Picofarad{0.0};
  ControlNetlistOptions heavy;
  heavy.wire_cap_per_fanout = Picofarad{0.003};
  heavy.cross_block_route_cap = Picofarad{0.08};
  const auto fast =
      control_critical_path(analog::default_90nm_library(), light);
  const auto slow =
      control_critical_path(analog::default_90nm_library(), heavy);
  EXPECT_LT(fast.arrival.value(), slow.arrival.value());
}

TEST(ControlNetlist, FitsAtTypicalCutClocks) {
  // The paper's point: 1.22 ns fits "most of the typical CUTs system clock".
  const auto path = control_critical_path(analog::default_90nm_library());
  EXPECT_LT(path.arrival.value(), 1250.0);  // 800 MHz
}

}  // namespace
}  // namespace psnt::sta
