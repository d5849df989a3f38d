// Chaos soak: the scan grid under a deterministic fault storm, with the
// graceful-degradation policy doing its job in front of you.
//
// A 4×4 die grid runs a seeded fault::FaultInjector storm — stuck DS nodes,
// metastable flips, delay-code drift, PDN-derived droop spikes, dead and
// hung sites, ring-overflow storms — plus one scheduled kill of a chosen
// site, against the retry / majority-vote / quarantine ResiliencePolicy.
// The soak prints the degradation scoreboard (injected faults by kind,
// retries, recoveries, losses, quarantines), the delivered fraction, the
// serving store's latency/voltage summary of the delivered samples, and the
// full telemetry registry. Because the injector is a pure counter-hash of
// (seed, site, sample, attempt), rerunning this binary reproduces the same
// storm, the same traces, and the same words at any thread count.
//
// Note on capture: attaching an injector switches every site to per-sample
// capture — retry/vote/quarantine wrap each single-sample engine call — but
// decode is unchanged: the published (majority) words stream through the
// rings like any other, and the drain pass runs ENC + voltage conversion.
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "fault/fault_injector.h"
#include "grid/scan_grid.h"
#include "serve/query.h"
#include "serve/store.h"

int main() {
  using namespace psnt;
  using namespace psnt::literals;

  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);

  // The reference storm (mirrored by tests/test_grid_resilience.cpp): every
  // fault lane live, droop depth derived from a solved PDN step response.
  fault::FaultStormConfig storm;
  storm.p_stuck_site = 0.15;
  storm.p_metastable = 0.10;
  storm.p_code_drift = 0.08;
  storm.p_rail_droop = 0.08;
  storm.p_dead_site = 0.12;
  storm.p_hung = 0.20;
  storm.p_ring_storm = 0.05;
  storm.droop_depth = fault::pdn_droop_depth(psn::LumpedPdnParams{}, 2.0);
  storm.dead_onset_horizon = 24;
  storm.ring_storm_pushes = 3;

  auto injector = std::make_shared<fault::FaultInjector>(2026, storm);
  // On top of the storm, an explicit kill: site 5 dies at sample 12.
  injector->schedule({.site_id = fp.sites()[5].id,
                      .first_sample = 12,
                      .kind = fault::FaultKind::kDeadSite});

  grid::ScanGridConfig config;
  config.threads = std::max(1u, std::thread::hardware_concurrency());
  config.samples_per_site = 48;
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 2026;
  config.injector = injector;
  config.resilience.max_retries = 6;
  config.resilience.votes = 3;
  config.resilience.quarantine_after = 3;
  config.resilience.backoff_base_us = 2;
  config.resilience.backoff_cap_us = 64;
  config.snapshot_csv_path = "chaos_soak_telemetry.csv";

  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 1;  // the drain is the single writer
  store_config.v_nominal = 1.0;
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;

  grid::ScanGrid grid{fp, config,
                      grid::ScanGrid::ir_gradient_rails(
                          fp, 1.01_V, 0.05 / 5657.0, {0.0, 0.0}, 0.004)};

  std::printf("chaos soak: %zu sites x %zu samples on %zu threads\n"
              "storm seed %llu, droop depth %.0f mV (PDN-derived), "
              "policy: %zu retries / %zu votes / quarantine after %zu\n\n",
              fp.site_count(), config.samples_per_site,
              static_cast<std::size_t>(config.threads),
              static_cast<unsigned long long>(injector->seed()),
              storm.droop_depth.value() * 1e3, config.resilience.max_retries,
              config.resilience.votes, config.resilience.quarantine_after);

  const auto result = grid.run();

  const auto total =
      static_cast<double>(fp.site_count() * config.samples_per_site);
  std::printf("soak complete in %.1f ms: %llu/%zu samples delivered "
              "(%.1f%%), %llu lost, %llu sites quarantined\n",
              result.wall_seconds * 1e3,
              static_cast<unsigned long long>(result.produced),
              static_cast<std::size_t>(total), 100.0 * result.produced / total,
              static_cast<unsigned long long>(result.lost),
              static_cast<unsigned long long>(result.quarantined_sites));
  std::printf("resilience: %llu retries, %llu samples recovered by retry, "
              "%llu vote overrides\n\n",
              static_cast<unsigned long long>(result.retries),
              static_cast<unsigned long long>(result.recovered),
              static_cast<unsigned long long>(result.vote_overrides));

  // Fault scoreboard by kind, tallied from the deterministic per-site traces.
  std::map<std::string, std::size_t> by_kind;
  for (const auto& site : result.sites) {
    for (const auto& event : site.fault_events) {
      ++by_kind[fault::to_string(event.kind)];
    }
  }
  std::printf("injected faults (%llu events):\n",
              static_cast<unsigned long long>(result.faults_injected));
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-16s %6zu\n", kind.c_str(), count);
  }

  std::printf("\ndegraded sites:\n");
  for (const auto& site : result.sites) {
    if (!site.quarantined && site.lost == 0 && site.vote_overrides == 0 &&
        site.recovered == 0) {
      continue;
    }
    std::printf("  site %2u: %s%llu lost, %llu recovered, %llu retries, "
                "%llu vote overrides\n",
                site.site_id,
                site.quarantined ? "QUARANTINED, " : "",
                static_cast<unsigned long long>(site.lost),
                static_cast<unsigned long long>(site.recovered),
                static_cast<unsigned long long>(site.retries),
                static_cast<unsigned long long>(site.vote_overrides));
  }

  serve::QueryEngine query(*store);
  std::printf("\n%s\n", query.render_summary(5).c_str());

  std::printf("telemetry:\n");
  grid.telemetry().write_text(std::cout);
  std::printf("\ntelemetry snapshot exported to %s\n",
              config.snapshot_csv_path.c_str());
  return 0;
}
