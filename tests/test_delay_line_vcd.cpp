#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/delay_line.h"
#include "sim/probe.h"
#include "sim/vcd.h"

namespace psnt::sim {
namespace {

using namespace psnt::literals;

TEST(DelayLine, TapsAccumulateStageDelays) {
  Simulator sim;
  Net& in = sim.net("in");
  auto& line = sim.add<DelayLine>("dl", in,
                                  std::vector<Picoseconds>{
                                      26.0_ps, 14.0_ps, 10.0_ps, 15.0_ps});
  ASSERT_EQ(line.stages(), 4u);
  TransitionRecorder r0(line.tap(0));
  TransitionRecorder r3(line.tap(3));
  sim.drive(in, 0.0_ps, Logic::L0);
  sim.drive(in, 100.0_ps, Logic::L1);
  sim.run_until(1000.0_ps);
  EXPECT_DOUBLE_EQ(r0.last_rise()->value(), 126.0);
  EXPECT_DOUBLE_EQ(r3.last_rise()->value(), 165.0);
}

TEST(DelayLine, RejectsEmptyStageList) {
  Simulator sim;
  Net& in = sim.net("in");
  EXPECT_THROW(sim.add<DelayLine>("dl2", in, std::vector<Picoseconds>{}),
               std::logic_error);
}

TEST(DelayLine, AllTapsSeeTheEdgeInOrder) {
  Simulator sim;
  Net& in = sim.net("in");
  auto& line = sim.add<DelayLine>(
      "dl", in,
      std::vector<Picoseconds>{26.0_ps, 14.0_ps, 10.0_ps, 15.0_ps, 12.0_ps,
                               15.0_ps, 8.0_ps, 7.0_ps});
  std::vector<std::unique_ptr<TransitionRecorder>> recs;
  for (std::size_t k = 0; k < 8; ++k) {
    recs.push_back(std::make_unique<TransitionRecorder>(line.tap(k)));
  }
  sim.drive(in, 0.0_ps, Logic::L0);
  sim.drive(in, 50.0_ps, Logic::L1);
  sim.run_until(1000.0_ps);
  double prev = 0.0;
  for (std::size_t k = 0; k < 8; ++k) {
    const double t = recs[k]->last_rise()->value();
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_DOUBLE_EQ(prev, 50.0 + 107.0);  // the paper's code-111 value
}

TEST(Vcd, WritesHeaderInitialValuesAndChanges) {
  const std::string path = "/tmp/psnt_vcd_test.vcd";
  {
    Simulator sim;
    Net& a = sim.net("sig_a");
    Net& b = sim.net("sig_b");
    VcdWriter vcd(path, "tb");
    vcd.trace(a);
    vcd.trace(b);
    EXPECT_EQ(vcd.traced_nets(), 2u);
    sim.drive(a, 0.0_ps, Logic::L0);
    vcd.begin_dump();
    sim.drive(a, 10.0_ps, Logic::L1);
    sim.drive(b, 20.0_ps, Logic::L0);
    sim.run_until(20.0_ps);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string vcd = ss.str();
  EXPECT_NE(vcd.find("$timescale 1fs $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module tb $end"), std::string::npos);
  EXPECT_NE(vcd.find("sig_a"), std::string::npos);
  EXPECT_NE(vcd.find("sig_b"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("#10000"), std::string::npos);  // 10 ps in fs
  EXPECT_NE(vcd.find("#20000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vcd, TraceAfterDumpIsRejected) {
  Simulator sim;
  Net& a = sim.net("a");
  VcdWriter vcd("/tmp/psnt_vcd_test2.vcd");
  vcd.trace(a);
  vcd.begin_dump();
  EXPECT_THROW(vcd.trace(a), std::logic_error);
  EXPECT_THROW(vcd.begin_dump(), std::logic_error);
  std::remove("/tmp/psnt_vcd_test2.vcd");
}

}  // namespace
}  // namespace psnt::sim
