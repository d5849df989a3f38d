#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "fault/fault_injector.h"
#include "grid/resilience.h"

namespace psnt::fault {
namespace {

using core::ThermoWord;

FaultStormConfig full_storm() {
  FaultStormConfig storm;
  storm.p_stuck_site = 0.3;
  storm.p_metastable = 0.3;
  storm.p_code_drift = 0.3;
  storm.p_rail_droop = 0.3;
  storm.p_dead_site = 0.3;
  storm.p_hung = 0.3;
  storm.p_ring_storm = 0.3;
  return storm;
}

TEST(FaultInjector, ToStringCoversEveryKind) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    names.insert(to_string(static_cast<FaultKind>(k)));
  }
  EXPECT_EQ(names.size(), kFaultKindCount);
  EXPECT_EQ(names.count("unknown"), 0u);
}

TEST(FaultInjector, RejectsOutOfRangeRates) {
  FaultStormConfig storm;
  storm.p_hung = 1.5;
  EXPECT_THROW((FaultInjector{1, storm}), std::logic_error);
  storm.p_hung = -0.1;
  EXPECT_THROW((FaultInjector{1, storm}), std::logic_error);
}

TEST(FaultInjector, QueriesArePureAndSeedDeterministic) {
  const FaultInjector a(42, full_storm());
  const FaultInjector b(42, full_storm());
  const FaultInjector c(43, full_storm());
  bool any_fault = false;
  bool differs_across_seeds = false;
  for (std::uint32_t site = 0; site < 8; ++site) {
    for (std::uint32_t sample = 0; sample < 8; ++sample) {
      for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
        const auto fa = a.measure_faults(site, sample, attempt, 7);
        // Same injector asked twice and a twin with the same seed agree.
        const auto fa2 = a.measure_faults(site, sample, attempt, 7);
        const auto fb = b.measure_faults(site, sample, attempt, 7);
        const auto fc = c.measure_faults(site, sample, attempt, 7);
        std::vector<FaultEvent> ta, ta2, tb, tc;
        FaultInjector::append_events(fa, site, sample, attempt, ta);
        FaultInjector::append_events(fa2, site, sample, attempt, ta2);
        FaultInjector::append_events(fb, site, sample, attempt, tb);
        FaultInjector::append_events(fc, site, sample, attempt, tc);
        EXPECT_EQ(ta, ta2);
        EXPECT_EQ(ta, tb);
        any_fault |= fa.any();
        differs_across_seeds |= !(ta == tc);
      }
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(differs_across_seeds);
}

TEST(FaultInjector, SiteScopedFaultsPersistAcrossSamplesAndAttempts) {
  FaultStormConfig storm;
  storm.p_stuck_site = 1.0;
  storm.p_dead_site = 1.0;
  storm.dead_onset_horizon = 4;
  const FaultInjector inj(7, storm);
  const auto first = inj.measure_faults(3, 0, 0, 7);
  ASSERT_GE(first.stuck_bit, 0);
  for (std::uint32_t sample = 0; sample < 6; ++sample) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      const auto f = inj.measure_faults(3, sample, attempt, 7);
      EXPECT_EQ(f.stuck_bit, first.stuck_bit);
      EXPECT_EQ(f.stuck_value, first.stuck_value);
      EXPECT_EQ(f.dead_onset, first.dead_onset);
      EXPECT_EQ(f.dead, sample >= first.dead_onset);
    }
  }
  EXPECT_LT(first.dead_onset, 4u);
}

TEST(FaultInjector, AttemptScopedFaultsRerollOnRetry) {
  FaultStormConfig storm;
  storm.p_hung = 0.5;
  const FaultInjector inj(11, storm);
  bool recovered_by_retry = false;
  for (std::uint32_t site = 0; site < 16 && !recovered_by_retry; ++site) {
    for (std::uint32_t sample = 0; sample < 16; ++sample) {
      const bool a0 = inj.measure_faults(site, sample, 0, 7).hung;
      const bool a1 = inj.measure_faults(site, sample, 1, 7).hung;
      if (a0 && !a1) {
        recovered_by_retry = true;
        break;
      }
    }
  }
  EXPECT_TRUE(recovered_by_retry)
      << "a hang must be able to clear on retry (attempt-keyed lane)";
}

TEST(FaultInjector, SampleScopedFaultsSurviveRetry) {
  FaultStormConfig storm;
  storm.p_code_drift = 0.5;
  storm.p_rail_droop = 0.5;
  const FaultInjector inj(13, storm);
  for (std::uint32_t site = 0; site < 8; ++site) {
    for (std::uint32_t sample = 0; sample < 8; ++sample) {
      const auto a0 = inj.measure_faults(site, sample, 0, 7);
      const auto a3 = inj.measure_faults(site, sample, 3, 7);
      EXPECT_EQ(a0.code_delta, a3.code_delta);
      EXPECT_EQ(a0.droop_volts, a3.droop_volts);
    }
  }
}

TEST(FaultInjector, ScheduledFaultsApplyInsideTheirWindowOnly) {
  FaultInjector inj(1);  // no storm: every fault below is scheduled
  inj.schedule({.site_id = 2,
                .first_sample = 3,
                .last_sample = 5,
                .kind = FaultKind::kDeadSite});
  inj.schedule({.site_id = 2,
                .first_sample = 0,
                .last_sample = 0xffffffffu,
                .kind = FaultKind::kStuckDsNode,
                .detail = 4,
                .stuck_value = true});
  inj.schedule({.site_id = 9,
                .first_sample = 1,
                .last_sample = 1,
                .kind = FaultKind::kRingOverflow,
                .detail = 12});
  inj.schedule({.site_id = 9,
                .first_sample = 2,
                .last_sample = 2,
                .kind = FaultKind::kRailDroop,
                .droop_volts = Volt{0.2}});

  EXPECT_FALSE(inj.measure_faults(2, 2, 0, 7).dead);
  EXPECT_TRUE(inj.measure_faults(2, 3, 0, 7).dead);
  EXPECT_TRUE(inj.measure_faults(2, 5, 2, 7).dead);
  EXPECT_FALSE(inj.measure_faults(2, 6, 0, 7).dead);
  EXPECT_FALSE(inj.measure_faults(3, 4, 0, 7).dead);

  const auto stuck = inj.measure_faults(2, 0, 0, 7);
  EXPECT_EQ(stuck.stuck_bit, 4);
  EXPECT_TRUE(stuck.stuck_value);

  EXPECT_EQ(inj.measure_faults(9, 1, 0, 7).ring_stall_pushes, 12u);
  EXPECT_EQ(inj.measure_faults(9, 0, 0, 7).ring_stall_pushes, 0u);
  EXPECT_DOUBLE_EQ(inj.measure_faults(9, 2, 0, 7).droop_volts, 0.2);

  EXPECT_THROW(inj.schedule({.site_id = 0, .first_sample = 5, .last_sample = 2}),
               std::logic_error);
}

TEST(FaultInjector, ApplyWordForcesStuckThenFlips) {
  MeasureFaults f;
  f.stuck_bit = 2;
  f.stuck_value = false;
  ThermoWord word = ThermoWord::of_count(7, 7);  // all ones
  f.apply_word(word);
  EXPECT_FALSE(word.bit(2));
  EXPECT_EQ(word.count_ones(), 6u);

  // A metastable flip on the stuck bit flips the *stuck* level — the DS node
  // is upstream of the FF.
  f.flip_bit = 2;
  word = ThermoWord::of_count(7, 7);
  f.apply_word(word);
  EXPECT_TRUE(word.bit(2));

  // Out-of-range indices are ignored, not UB.
  MeasureFaults oob;
  oob.stuck_bit = 30;
  oob.flip_bit = 31;
  word = ThermoWord::of_count(3, 7);
  oob.apply_word(word);
  EXPECT_EQ(word, ThermoWord::of_count(3, 7));
}

TEST(FaultInjector, AppendEventsEmitsOneEventPerRealizedFault) {
  MeasureFaults f;
  f.hung = true;
  f.flip_bit = 1;
  f.droop_volts = 0.15;
  std::vector<FaultEvent> trace;
  FaultInjector::append_events(f, 5, 9, 2, trace);
  ASSERT_EQ(trace.size(), 3u);
  for (const auto& e : trace) {
    EXPECT_EQ(e.site_id, 5u);
    EXPECT_EQ(e.sample, 9u);
    EXPECT_EQ(e.attempt, 2u);
  }
  EXPECT_EQ(trace[0].kind, FaultKind::kHungSite);
  EXPECT_EQ(trace[1].kind, FaultKind::kMetastableFlip);
  EXPECT_EQ(trace[1].detail, 1);
  EXPECT_EQ(trace[2].kind, FaultKind::kRailDroop);
  EXPECT_EQ(trace[2].detail, -150);  // millivolts, negative = sag

  FaultInjector::append_events(MeasureFaults{}, 0, 0, 0, trace);
  EXPECT_EQ(trace.size(), 3u) << "a clean measure adds no events";
}

TEST(FaultInjector, PdnDroopDepthScalesWithStimulus) {
  psn::LumpedPdnParams pdn;
  const Volt small = pdn_droop_depth(pdn, 1.0);
  const Volt large = pdn_droop_depth(pdn, 4.0);
  EXPECT_GT(small.value(), 0.0);
  EXPECT_GT(large.value(), small.value());
  EXPECT_LT(large.value(), pdn.v_reg.value());
  EXPECT_THROW((void)pdn_droop_depth(pdn, 0.0), std::logic_error);
}

TEST(Resilience, MajorityWordOutvotesSingleCorruptVote) {
  const ThermoWord clean = ThermoWord::of_count(4, 7);
  ThermoWord flipped = clean;
  flipped.set_bit(6, true);
  const std::vector<ThermoWord> votes{clean, flipped, clean};
  EXPECT_EQ(grid::majority_word(votes), clean);

  // Flips on distinct bits: the majority can match no individual vote.
  ThermoWord a = clean, b = clean, c = clean;
  a.set_bit(4, true);
  b.set_bit(5, true);
  c.set_bit(6, true);
  const std::vector<ThermoWord> scattered{a, b, c};
  EXPECT_EQ(grid::majority_word(scattered), clean);
}

TEST(Resilience, MajorityWordValidatesItsPanel) {
  const ThermoWord w7 = ThermoWord::of_count(2, 7);
  EXPECT_THROW((void)grid::majority_word(std::vector<ThermoWord>{}),
               std::logic_error);
  EXPECT_THROW((void)grid::majority_word(std::vector<ThermoWord>{w7, w7}),
               std::logic_error);
  const std::vector<ThermoWord> mixed{w7, ThermoWord::of_count(2, 5), w7};
  EXPECT_THROW((void)grid::majority_word(mixed), std::logic_error);
  EXPECT_EQ(grid::majority_word(std::vector<ThermoWord>{w7}), w7);
}

TEST(Resilience, BoundedBackoffGrowsAndSaturates) {
  grid::ResiliencePolicy policy;
  EXPECT_EQ(grid::bounded_backoff_us(policy, 1), 0u);  // base 0 = no sleep
  policy.backoff_base_us = 10;
  policy.backoff_cap_us = 65;
  EXPECT_EQ(grid::bounded_backoff_us(policy, 0), 0u);
  EXPECT_EQ(grid::bounded_backoff_us(policy, 1), 10u);
  EXPECT_EQ(grid::bounded_backoff_us(policy, 2), 20u);
  EXPECT_EQ(grid::bounded_backoff_us(policy, 3), 40u);
  EXPECT_EQ(grid::bounded_backoff_us(policy, 4), 65u);
  EXPECT_EQ(grid::bounded_backoff_us(policy, 60), 65u);
}

}  // namespace
}  // namespace psnt::fault
