// Grid-level fault-injection & graceful-degradation tests: determinism of
// the chaos path across thread counts, bit-identity of the disabled path
// against the serial scan-chain reference, and the retry / vote / quarantine
// policy outcomes under seeded storms and scheduled faults.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "calib/fit.h"
#include "grid/scan_grid.h"
#include "scan/scan_chain.h"

namespace psnt::grid {
namespace {

using namespace psnt::literals;

ScanGridConfig base_config(std::size_t threads) {
  ScanGridConfig config;
  config.threads = threads;
  config.samples_per_site = 8;
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 7;
  return config;
}

RailFactory test_rails(const scan::Floorplan& fp) {
  return ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 5657.0,
                                     {0.0, 0.0}, /*sigma_volts=*/0.004);
}

std::shared_ptr<fault::FaultInjector> storm_injector(std::uint64_t seed) {
  fault::FaultStormConfig storm;
  storm.p_stuck_site = 0.15;
  storm.p_metastable = 0.1;
  storm.p_code_drift = 0.08;
  storm.p_rail_droop = 0.08;
  storm.p_dead_site = 0.12;
  storm.p_hung = 0.2;
  storm.p_ring_storm = 0.05;
  storm.droop_depth = Volt{0.05};
  storm.dead_onset_horizon = 6;
  storm.ring_storm_pushes = 3;
  return std::make_shared<fault::FaultInjector>(seed, storm);
}

ResiliencePolicy full_policy() {
  ResiliencePolicy policy;
  policy.max_retries = 6;
  policy.votes = 3;
  policy.quarantine_after = 2;
  policy.backoff_base_us = 0;  // keep tests fast; accounting still exercised
  return policy;
}

// With a non-default resilience policy but NO injector, the grid runs the
// chaos measure path — and must still produce words bit-identical to the
// serial scan-chain broadcast reference. This is the "injector disabled ⇒
// bit-identical" acceptance gate, asserted against an independent serial
// reconstruction rather than another grid run.
TEST(GridResilience, ChaosPathWithoutInjectorMatchesSerialReference) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  auto config = base_config(4);
  config.resilience = full_policy();  // chaos path on, zero faults
  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();

  EXPECT_EQ(result.faults_injected, 0u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.vote_overrides, 0u);
  EXPECT_EQ(result.quarantined_sites, 0u);

  const auto& model = calib::calibrated().model;
  const auto factory = test_rails(fp);
  scan::PsnScanChain chain{fp, config.thermometer};
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  for (const auto& site : fp.sites()) {
    auto rng = ScanGrid::site_rng(config.seed, site.id);
    rails.push_back(factory(site, rng));
    chain.attach_site(site.id, analog::RailPair{rails.back().get(), nullptr},
                      calib::make_paper_thermometer(model, config.thermometer));
  }
  for (std::size_t k = 0; k < config.samples_per_site; ++k) {
    const auto snapshot =
        chain.broadcast_measure(grid.sample_time(k), config.code);
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      ASSERT_TRUE(result.sites[i].valid[k]);
      EXPECT_EQ(result.sites[i].samples[k].word, snapshot[i].measurement.word)
          << "site " << i << " sample " << k
          << ": resilience machinery altered a fault-free word";
      EXPECT_TRUE(result.sites[i].fault_events.empty());
    }
  }
}

// Same seed + same schedule ⇒ identical fault traces AND identical words at
// 1, 2 and 8 grid threads. The storm exercises every fault lane.
TEST(GridResilience, SeededStormIsDeterministicAcrossThreadCounts) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  auto make_config = [](std::size_t threads) {
    auto config = base_config(threads);
    auto injector = storm_injector(99);
    injector->schedule({.site_id = 5,
                        .first_sample = 2,
                        .last_sample = 4,
                        .kind = fault::FaultKind::kRailDroop,
                        .droop_volts = Volt{0.03}});
    config.injector = injector;
    config.resilience = full_policy();
    return config;
  };

  ScanGrid g1{fp, make_config(1), test_rails(fp)};
  ScanGrid g2{fp, make_config(2), test_rails(fp)};
  ScanGrid g8{fp, make_config(8), test_rails(fp)};
  const auto r1 = g1.run();
  const auto r2 = g2.run();
  const auto r8 = g8.run();

  EXPECT_GT(r1.faults_injected, 0u);
  for (const auto* r : {&r2, &r8}) {
    EXPECT_EQ(r1.faults_injected, r->faults_injected);
    EXPECT_EQ(r1.retries, r->retries);
    EXPECT_EQ(r1.recovered, r->recovered);
    EXPECT_EQ(r1.lost, r->lost);
    EXPECT_EQ(r1.vote_overrides, r->vote_overrides);
    EXPECT_EQ(r1.quarantined_sites, r->quarantined_sites);
    ASSERT_EQ(r1.sites.size(), r->sites.size());
    for (std::size_t i = 0; i < r1.sites.size(); ++i) {
      const auto& a = r1.sites[i];
      const auto& b = r->sites[i];
      EXPECT_EQ(a.fault_events, b.fault_events) << "site " << i;
      EXPECT_EQ(a.quarantined, b.quarantined);
      EXPECT_EQ(a.quarantine_sample, b.quarantine_sample);
      EXPECT_EQ(a.retries, b.retries);
      EXPECT_EQ(a.lost, b.lost);
      ASSERT_EQ(a.valid, b.valid) << "site " << i;
      for (std::size_t k = 0; k < a.samples.size(); ++k) {
        if (!a.valid[k]) continue;
        EXPECT_EQ(a.samples[k].word, b.samples[k].word)
            << "site " << i << " sample " << k;
        EXPECT_EQ(a.samples[k].code, b.samples[k].code);
      }
    }
  }
}

// A scheduled dead site converges to quarantine; every healthy site's words
// are bit-identical to a fault-free run of the same grid.
TEST(GridResilience, ScheduledDeadSiteIsQuarantinedOthersUnaffected) {
  const auto fp = scan::Floorplan::grid(3000.0, 3000.0, 3, 3);
  const std::uint32_t victim = fp.sites()[4].id;

  auto chaos_config = base_config(3);
  auto injector = std::make_shared<fault::FaultInjector>(1);  // schedule only
  injector->schedule({.site_id = victim,
                      .first_sample = 0,
                      .kind = fault::FaultKind::kDeadSite});
  chaos_config.injector = injector;
  chaos_config.resilience.max_retries = 1;
  chaos_config.resilience.quarantine_after = 2;
  ScanGrid chaos{fp, chaos_config, test_rails(fp)};
  const auto degraded = chaos.run();

  ScanGrid clean{fp, base_config(3), test_rails(fp)};
  const auto reference = clean.run();

  ASSERT_EQ(degraded.sites.size(), 9u);
  EXPECT_EQ(degraded.quarantined_sites, 1u);
  for (std::size_t i = 0; i < degraded.sites.size(); ++i) {
    const auto& site = degraded.sites[i];
    if (site.site_id == victim) {
      EXPECT_TRUE(site.quarantined);
      // Two losses trip quarantine_after=2; the rest are skipped as lost.
      EXPECT_EQ(site.quarantine_sample, 2u);
      EXPECT_EQ(site.lost, chaos_config.samples_per_site);
      // Each of the first two samples burned one retry before failing.
      EXPECT_EQ(site.retries, 2u);
      for (bool v : site.valid) EXPECT_FALSE(v);
      ASSERT_FALSE(site.fault_events.empty());
      for (const auto& e : site.fault_events) {
        EXPECT_EQ(e.kind, fault::FaultKind::kDeadSite);
      }
    } else {
      EXPECT_FALSE(site.quarantined);
      EXPECT_EQ(site.lost, 0u);
      for (std::size_t k = 0; k < site.samples.size(); ++k) {
        EXPECT_EQ(site.samples[k].word, reference.sites[i].samples[k].word)
            << "healthy site " << i << " perturbed by a fault on site "
            << victim;
      }
    }
  }
  EXPECT_EQ(chaos.telemetry().counter("grid.sites_quarantined").value(), 1u);
  EXPECT_EQ(chaos.telemetry().counter("grid.samples_lost").value(),
            degraded.lost);
}

// Transient hangs re-roll per attempt: with enough retries every sample is
// eventually delivered — zero losses, recoveries and timeouts accounted.
TEST(GridResilience, RetryRecoversHungMeasures) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  auto config = base_config(2);
  fault::FaultStormConfig storm;
  storm.p_hung = 0.25;
  config.injector = std::make_shared<fault::FaultInjector>(21, storm);
  config.resilience.max_retries = 8;
  config.resilience.backoff_base_us = 1;  // exercise the sleep path too
  config.resilience.backoff_cap_us = 4;
  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();

  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.produced, 4u * config.samples_per_site);
  EXPECT_GT(result.retries, 0u);
  EXPECT_GT(result.recovered, 0u);
  EXPECT_EQ(result.quarantined_sites, 0u);
  EXPECT_GT(grid.telemetry().counter("grid.measure_timeouts").value(), 0u);
  EXPECT_EQ(grid.telemetry().counter("grid.retries").value(), result.retries);
  EXPECT_GT(grid.telemetry().counter("grid.backoff_us").value(), 0u);
  EXPECT_GT(grid.telemetry().counter("grid.fault.hung_site").value(), 0u);
}

// A lone metastable flip is outvoted 2:1: every published word matches the
// fault-free reference even though flips demonstrably struck.
TEST(GridResilience, MajorityVoteOutvotesMetastableFlips) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  auto config = base_config(2);
  config.samples_per_site = 10;
  fault::FaultStormConfig storm;
  storm.p_metastable = 0.1;
  config.injector = std::make_shared<fault::FaultInjector>(5, storm);
  config.resilience.votes = 3;
  ScanGrid voting{fp, config, test_rails(fp)};
  const auto voted = voting.run();

  auto clean_config = base_config(2);
  clean_config.samples_per_site = 10;
  ScanGrid clean{fp, clean_config, test_rails(fp)};
  const auto reference = clean.run();

  EXPECT_GT(voted.faults_injected, 0u);
  EXPECT_GT(voted.vote_overrides, 0u);
  EXPECT_EQ(voted.lost, 0u);
  for (std::size_t i = 0; i < voted.sites.size(); ++i) {
    for (std::size_t k = 0; k < 10u; ++k) {
      EXPECT_EQ(voted.sites[i].samples[k].word,
                reference.sites[i].samples[k].word)
          << "site " << i << " sample " << k
          << ": a transient flip leaked past the majority vote";
    }
  }
}

// A stuck DS node is persistent: every vote sees it, so voting must NOT mask
// it — the corruption stays visible in the published words and the trace.
TEST(GridResilience, StuckBitSurvivesVotingAndIsTraced) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  const std::uint32_t victim = fp.sites()[0].id;
  auto config = base_config(1);
  auto injector = std::make_shared<fault::FaultInjector>(1);
  injector->schedule({.site_id = victim,
                      .first_sample = 0,
                      .kind = fault::FaultKind::kStuckDsNode,
                      .detail = 0,           // bit 0 is 1 on a healthy word
                      .stuck_value = false});
  config.injector = injector;
  config.resilience.votes = 3;
  ScanGrid grid{fp, config, ScanGrid::constant_rails(1.0_V)};
  const auto result = grid.run();

  ScanGrid clean{fp, base_config(1), ScanGrid::constant_rails(1.0_V)};
  const auto reference = clean.run();
  ASSERT_TRUE(reference.sites[0].samples[0].word.bit(0))
      << "test premise: a healthy word at nominal VDD has bit 0 set";

  const auto& site = result.sites[0];
  EXPECT_EQ(site.vote_overrides, 0u) << "all votes agree on a stuck bit";
  std::size_t stuck_events = 0;
  for (const auto& e : site.fault_events) {
    stuck_events += e.kind == fault::FaultKind::kStuckDsNode ? 1 : 0;
  }
  // One event per vote attempt: 3 votes x 8 samples.
  EXPECT_EQ(stuck_events, 3u * config.samples_per_site);
  for (std::size_t k = 0; k < config.samples_per_site; ++k) {
    EXPECT_FALSE(site.samples[k].word.bit(0));
    EXPECT_NE(site.samples[k].word, reference.sites[0].samples[k].word);
  }
  // The untouched neighbor is bit-identical to the reference.
  for (std::size_t k = 0; k < config.samples_per_site; ++k) {
    EXPECT_EQ(result.sites[1].samples[k].word,
              reference.sites[1].samples[k].word);
  }
}

// A ring-overflow storm forces full-ring pushes: the producer stalls
// (counted) but no sample is lost or corrupted.
TEST(GridResilience, RingOverflowStormIsLosslessUnderBlockPolicy) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  auto injector = std::make_shared<fault::FaultInjector>(1);
  for (const auto& site : fp.sites()) {
    injector->schedule({.site_id = site.id,
                        .first_sample = 0,
                        .kind = fault::FaultKind::kRingOverflow,
                        .detail = 4});
  }
  config.injector = injector;
  ScanGrid grid{fp, config, ScanGrid::constant_rails(1.0_V)};
  const auto result = grid.run();

  ScanGrid clean{fp, base_config(2), ScanGrid::constant_rails(1.0_V)};
  const auto reference = clean.run();

  EXPECT_EQ(result.lost, 0u);
  // 4 forced stalls per sample per site.
  EXPECT_GE(result.ring_stalls, 4u * 2u * config.samples_per_site);
  for (std::size_t i = 0; i < result.sites.size(); ++i) {
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      EXPECT_TRUE(result.sites[i].valid[k]);
      EXPECT_EQ(result.sites[i].samples[k].word,
                reference.sites[i].samples[k].word);
    }
  }
  EXPECT_GT(grid.telemetry().counter("grid.fault.ring_overflow").value(), 0u);
}

// Code drift slips the trimmed Delay Code for one sample; the drifted code
// is recorded in the measurement and the event lands in the trace.
TEST(GridResilience, CodeDriftIsAppliedAndRecorded) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  const std::uint32_t victim = fp.sites()[1].id;
  auto config = base_config(1);
  auto injector = std::make_shared<fault::FaultInjector>(1);
  injector->schedule({.site_id = victim,
                      .first_sample = 2,
                      .last_sample = 3,
                      .kind = fault::FaultKind::kCodeDrift,
                      .detail = 1});
  config.injector = injector;
  ScanGrid grid{fp, config, ScanGrid::constant_rails(1.0_V)};
  const auto result = grid.run();

  const auto& site = result.sites[1];
  for (std::size_t k = 0; k < config.samples_per_site; ++k) {
    const bool drifted = k == 2 || k == 3;
    EXPECT_EQ(site.samples[k].code,
              drifted ? core::DelayCode{4} : config.code)
        << "sample " << k;
  }
  ASSERT_EQ(site.fault_events.size(), 2u);
  EXPECT_EQ(site.fault_events[0].kind, fault::FaultKind::kCodeDrift);
  EXPECT_EQ(site.fault_events[0].sample, 2u);
  EXPECT_EQ(site.fault_events[1].sample, 3u);
  EXPECT_EQ(result.sites[0].fault_events.size(), 0u);
}

// A droop spike sags the site rail for exactly its scheduled window: the
// word moves (fewer ones at lower VDD) and snaps back after the window.
TEST(GridResilience, RailDroopSpikeSagsTheWordThenRecovers) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  const std::uint32_t victim = fp.sites()[0].id;
  auto config = base_config(1);
  auto injector = std::make_shared<fault::FaultInjector>(1);
  injector->schedule({.site_id = victim,
                      .first_sample = 3,
                      .last_sample = 3,
                      .kind = fault::FaultKind::kRailDroop,
                      .droop_volts = Volt{0.08}});
  config.injector = injector;
  ScanGrid grid{fp, config, ScanGrid::constant_rails(1.0_V)};
  const auto result = grid.run();

  const auto& site = result.sites[0];
  const auto clean_word = site.samples[0].word;
  EXPECT_LT(site.samples[3].word.count_ones(), clean_word.count_ones())
      << "an 80 mV sag must slow the DS inverter visibly";
  for (std::size_t k = 0; k < config.samples_per_site; ++k) {
    if (k == 3) continue;
    EXPECT_EQ(site.samples[k].word, clean_word) << "sample " << k;
  }
  ASSERT_EQ(site.fault_events.size(), 1u);
  EXPECT_EQ(site.fault_events[0].kind, fault::FaultKind::kRailDroop);
  EXPECT_EQ(site.fault_events[0].detail, -80);  // millivolts
}

// Gate-level chaos: a dead structural site quarantines, its stuck neighbor
// keeps publishing corrupted words, and the whole thing is thread-invariant.
TEST(GridResilience, StructuralChaosQuarantinesAndStaysDeterministic) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto make_config = [&](std::size_t threads) {
    auto config = base_config(threads);
    config.fidelity = SiteFidelity::kStructural;
    config.samples_per_site = 3;
    auto injector = std::make_shared<fault::FaultInjector>(3);
    injector->schedule({.site_id = fp.sites()[0].id,
                        .first_sample = 1,
                        .kind = fault::FaultKind::kDeadSite});
    injector->schedule({.site_id = fp.sites()[1].id,
                        .first_sample = 0,
                        .kind = fault::FaultKind::kStuckDsNode,
                        .detail = 0,
                        .stuck_value = false});
    config.injector = injector;
    config.resilience.quarantine_after = 1;
    return config;
  };

  ScanGrid serial{fp, make_config(1), ScanGrid::constant_rails(1.0_V)};
  ScanGrid parallel{fp, make_config(2), ScanGrid::constant_rails(1.0_V)};
  const auto a = serial.run();
  const auto b = parallel.run();

  EXPECT_TRUE(a.sites[0].valid[0]) << "site dies at sample 1, not 0";
  EXPECT_TRUE(a.sites[0].quarantined);
  EXPECT_EQ(a.sites[0].quarantine_sample, 2u);
  EXPECT_EQ(a.sites[0].lost, 2u);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(a.sites[1].valid[k]);
    EXPECT_FALSE(a.sites[1].samples[k].word.bit(0));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.sites[i].fault_events, b.sites[i].fault_events);
    EXPECT_EQ(a.sites[i].quarantined, b.sites[i].quarantined);
    ASSERT_EQ(a.sites[i].valid, b.sites[i].valid);
    for (std::size_t k = 0; k < 3; ++k) {
      if (!a.sites[i].valid[k]) continue;
      EXPECT_EQ(a.sites[i].samples[k].word, b.sites[i].samples[k].word)
          << "structural site " << i << " sample " << k;
    }
  }
}

// The chaos-soak acceptance gate: under the reference storm with the full
// policy, every loss is attributable to a quarantined (dead) site — healthy
// sites recover 100% of their samples, so the delivered fraction is bounded
// below by the surviving-site share (documented in DESIGN.md §10).
TEST(GridResilience, StormLossesAreConfinedToQuarantinedSites) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  auto config = base_config(4);
  config.injector = storm_injector(99);
  config.resilience = full_policy();
  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();

  EXPECT_GT(result.quarantined_sites, 0u);
  EXPECT_GT(result.recovered, 0u);
  std::uint64_t quarantined_losses = 0;
  for (const auto& site : result.sites) {
    if (site.quarantined) {
      quarantined_losses += site.lost;
    } else {
      EXPECT_EQ(site.lost, 0u)
          << "site " << site.site_id
          << " lost samples without being quarantined: retry/vote failed";
    }
  }
  EXPECT_EQ(result.lost, quarantined_losses);
  const double delivered =
      static_cast<double>(result.produced) /
      static_cast<double>(16u * config.samples_per_site);
  // 16 sites, p_dead_site = 0.12: the storm kills ~2 sites; ≥ 60% delivery
  // is the documented floor for this reference storm.
  EXPECT_GE(delivered, 0.6);
  EXPECT_EQ(result.produced + result.lost, 16u * config.samples_per_site);
}

TEST(GridResilience, RejectsInvalidResilienceConfigurations) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto even_votes = base_config(1);
  even_votes.resilience.votes = 2;
  EXPECT_THROW((ScanGrid{fp, even_votes, ScanGrid::constant_rails(1.0_V)}),
               std::logic_error);

  auto structural_votes = base_config(1);
  structural_votes.fidelity = SiteFidelity::kStructural;
  structural_votes.resilience.votes = 3;
  EXPECT_THROW(
      (ScanGrid{fp, structural_votes, ScanGrid::constant_rails(1.0_V)}),
      std::logic_error);
}

}  // namespace
}  // namespace psnt::grid
