// Corner-path coverage for the simulator utilities: SOP synthesis constants,
// minimized covers, reduction trees, VCD identifier encoding at scale.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/probe.h"
#include "sim/synth.h"
#include "sim/vcd.h"
#include "stats/rng.h"

namespace psnt::sim {
namespace {

using namespace psnt::literals;

TEST(Synth, ReduceAndSingleNetPassesThrough) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& out = reduce_and(sim, "t", {&a}, 10.0_ps);
  EXPECT_EQ(&out, &a);
}

TEST(Synth, ReduceAndComputesConjunction) {
  Simulator sim;
  std::vector<Net*> ins;
  for (int i = 0; i < 5; ++i) {
    ins.push_back(&sim.net("in" + std::to_string(i)));
  }
  Net& y = reduce_and(sim, "and5", ins, 5.0_ps);
  for (auto* n : ins) sim.drive(*n, 0.0_ps, Logic::L1);
  sim.run_until(50.0_ps);
  EXPECT_EQ(y.value(), Logic::L1);
  sim.drive(*ins[3], 100.0_ps, Logic::L0);
  sim.run_until(200.0_ps);
  EXPECT_EQ(y.value(), Logic::L0);
}

TEST(Synth, ReduceOrComputesDisjunction) {
  Simulator sim;
  std::vector<Net*> ins;
  for (int i = 0; i < 7; ++i) {
    ins.push_back(&sim.net("in" + std::to_string(i)));
  }
  Net& y = reduce_or(sim, "or7", ins, 5.0_ps);
  for (auto* n : ins) sim.drive(*n, 0.0_ps, Logic::L0);
  sim.run_until(50.0_ps);
  EXPECT_EQ(y.value(), Logic::L0);
  sim.drive(*ins[6], 100.0_ps, Logic::L1);
  sim.run_until(200.0_ps);
  EXPECT_EQ(y.value(), Logic::L1);
}

TEST(Synth, SopConstantsTieTheOutput) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& b = sim.net("b");
  SopSynthesizer synth(sim, "s", {&a, &b});
  Net& zero = synth.synthesize("f0", {});
  Net& one = synth.synthesize("f1", {0, 1, 2, 3});
  sim.drive(a, 0.0_ps, Logic::L0);
  sim.drive(b, 0.0_ps, Logic::L1);
  sim.run_until(1000.0_ps);
  EXPECT_EQ(zero.value(), Logic::L0);
  EXPECT_EQ(one.value(), Logic::L1);
}

TEST(Synth, SopXorOfTwoInputs) {
  Simulator sim;
  Net& a = sim.net("a");
  Net& b = sim.net("b");
  SopSynthesizer synth(sim, "s", {&a, &b});
  // XOR on-set: minterms 01 and 10 → indices 1 and 2.
  Net& y = synth.synthesize("xor", {1, 2});
  const struct {
    Logic a, b, y;
  } rows[] = {{Logic::L0, Logic::L0, Logic::L0},
              {Logic::L1, Logic::L0, Logic::L1},
              {Logic::L0, Logic::L1, Logic::L1},
              {Logic::L1, Logic::L1, Logic::L0}};
  double t = 10.0;
  for (const auto& row : rows) {
    sim.drive(a, Picoseconds{t}, row.a);
    sim.drive(b, Picoseconds{t}, row.b);
    sim.run_until(Picoseconds{t + 500.0});
    EXPECT_EQ(y.value(), row.y) << to_char(row.a) << to_char(row.b);
    t += 1000.0;
  }
  EXPECT_GT(synth.gates_built(), 0u);
}

TEST(Synth, SopRejectsBadMinterm) {
  Simulator sim;
  Net& a = sim.net("a");
  SopSynthesizer synth(sim, "s", {&a});
  EXPECT_THROW((void)synth.synthesize("bad", {5}), std::logic_error);
  EXPECT_THROW((void)synth.synthesize("dup", {1, 1}), std::logic_error);
}

// Synthesizes the n-input function whose truth table is `truth` (bit v is
// f(v)) and checks the built netlist on every input vector.
void expect_realises(std::size_t n, std::uint64_t truth) {
  Simulator sim;
  std::vector<Net*> ins;
  for (std::size_t i = 0; i < n; ++i) {
    ins.push_back(&sim.net("in" + std::to_string(i)));
  }
  SopSynthesizer synth(sim, "s", ins);
  std::vector<std::uint32_t> minterms;
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    if ((truth >> m) & 1u) minterms.push_back(m);
  }
  Net& y = synth.synthesize("f", minterms);
  double t = 10.0;
  for (std::uint32_t v = 0; v < (1u << n); ++v) {
    for (std::size_t i = 0; i < n; ++i) {
      sim.drive(*ins[i], Picoseconds{t}, from_bool((v >> i) & 1u));
    }
    sim.run_until(Picoseconds{t + 600.0});
    EXPECT_EQ(y.value(), from_bool((truth >> v) & 1u))
        << "truth=0x" << std::hex << truth << " vector=" << v;
    t += 1000.0;
  }
}

TEST(Synth, ExhaustiveThreeInputFunctions) {
  // Property: SOP synthesis realises every 3-input function correctly on
  // every input vector.
  for (std::uint64_t truth = 0; truth < 256; ++truth) {
    expect_realises(3, truth);
  }
}

TEST(Synth, MinimizedSopMatchesRandomSixInputFunctions) {
  stats::Xoshiro256 rng(0x5a17);
  for (int k = 0; k < 32; ++k) expect_realises(6, rng.next());
}

TEST(Synth, CoverSizeOnKnownFunctions) {
  Simulator sim;
  std::vector<Net*> ins;
  for (int i = 0; i < 6; ++i) {
    ins.push_back(&sim.net("in" + std::to_string(i)));
  }

  // 6-input parity: no two on-set minterms are adjacent, so nothing merges:
  // 32 six-literal products (5 AND2 each), a 32-way OR (31 OR2), and all 6
  // literal inverters.
  SopSynthesizer parity_synth(sim, "par", ins);
  std::vector<std::uint32_t> odd;
  std::vector<std::uint32_t> a_set;
  for (std::uint32_t m = 0; m < 64; ++m) {
    if (std::popcount(m) % 2 == 1) odd.push_back(m);
    if (m & 1u) a_set.push_back(m);
  }
  (void)parity_synth.synthesize("f", odd);
  EXPECT_EQ(parity_synth.gates_built(), 6u + 32u * 5u + 31u);

  // f = a, given as its 32 minterms, collapses to the input itself.
  SopSynthesizer a_synth(sim, "a", ins);
  EXPECT_EQ(&a_synth.synthesize("f", a_set), ins[0]);
  EXPECT_EQ(a_synth.gates_built(), 0u);

  // 3-input majority: ab + ac + bc, three AND2 products and two OR2.
  SopSynthesizer maj_synth(sim, "maj", {ins[0], ins[1], ins[2]});
  (void)maj_synth.synthesize("f", {3, 5, 6, 7});
  EXPECT_EQ(maj_synth.gates_built(), 5u);
  for (const char* cube : {"p3_3", "p5_5", "p6_6"}) {
    EXPECT_NE(sim.find_net(std::string("maj.f.") + cube + ".l0_0"), nullptr)
        << cube;
  }
}

TEST(Vcd, ManyNetsGetDistinctIds) {
  const std::string path = "/tmp/psnt_vcd_many.vcd";
  {
    Simulator sim;
    VcdWriter vcd(path);
    // > 94 nets exercises the multi-character identifier encoding.
    for (int i = 0; i < 120; ++i) {
      vcd.trace(sim.net("n" + std::to_string(i)));
    }
    vcd.begin_dump();
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  // All 120 $var declarations present with unique codes.
  std::size_t vars = 0;
  std::size_t pos = 0;
  while ((pos = text.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    pos += 1;
  }
  EXPECT_EQ(vars, 120u);
  std::remove(path.c_str());
}

TEST(Net, CancelPendingSuppressesScheduledLevel) {
  Simulator sim;
  Net& n = sim.net("n");
  n.force(sim.scheduler(), Logic::L0);
  n.schedule_level(sim.scheduler(), from_ps(50.0), Logic::L1);
  n.cancel_pending();
  sim.run_until(100.0_ps);
  EXPECT_EQ(n.value(), Logic::L0);
}

TEST(Net, EarlierConflictingScheduleWins) {
  Simulator sim;
  Net& n = sim.net("n");
  n.force(sim.scheduler(), Logic::L0);
  n.schedule_level(sim.scheduler(), from_ps(100.0), Logic::L1);
  // A later request for an earlier, different... same value at an earlier
  // time must reschedule to the earlier time.
  n.schedule_level(sim.scheduler(), from_ps(40.0), Logic::L1);
  sim.run_until(50.0_ps);
  EXPECT_EQ(n.value(), Logic::L1);
  EXPECT_DOUBLE_EQ(to_ps(n.last_change()).value(), 40.0);
}

}  // namespace
}  // namespace psnt::sim
