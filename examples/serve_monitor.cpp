// Live monitor queries under active ingest (DESIGN.md §13).
//
// The serving layer's end-to-end demo: a scan grid runs on a background
// thread with a serve::TelemetryStore attached to its drain, while the main
// thread plays operator — polling a QueryEngine for throughput, voltage
// quantiles and the worst-droop leaderboard as samples stream in. This is
// the deployment the store exists for: queries answered mid-run from
// snapshots, never stalling the drain.
//
// Exits 0 only if the live queries actually observed ingest in flight and
// the final store state is consistent with the grid result.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "cut/scenarios.h"
#include "grid/scan_grid.h"
#include "serve/query.h"
#include "serve/store.h"

int main() {
  using namespace psnt;
  using namespace psnt::literals;

  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);

  cut::ScenarioConfig scenario_config;
  scenario_config.horizon = Picoseconds{500000.0};
  const auto scenario =
      cut::make_scenario(cut::ScenarioKind::kFirstDroop, scenario_config);
  auto waveform =
      std::make_shared<const analog::SampledRail>(scenario.vdd.to_rail());

  grid::ScanGridConfig config;
  config.threads = std::max(1u, std::thread::hardware_concurrency());
  config.samples_per_site = 6000;  // long enough to query mid-run
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 2026;

  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 1;  // the drain is the store's single writer
  store_config.v_nominal = 1.0;
  store_config.publish_every = 256;  // fresh snapshots every ~0.25 sweeps
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;

  grid::ScanGrid grid{
      fp, config,
      grid::ScanGrid::scaled_waveform_rails(fp, waveform, 1.0_V, 1.8)};

  std::printf("serve monitor: %zu sites x %zu samples, store attached "
              "(publish every %zu)\n(scenario: %s)\n\n",
              fp.site_count(), config.samples_per_site,
              store_config.publish_every, scenario.description.c_str());

  // Grid runs in the background; this thread is a dashboard.
  grid::RunResult result;
  std::thread runner([&] { result = grid.run(); });

  serve::QueryEngine query(*store);
  std::size_t live_polls = 0;
  std::size_t live_observations = 0;  // polls that saw published data
  std::uint64_t last_seq = 0;
  while (store->total_ingested() <
         fp.site_count() * config.samples_per_site) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    query.refresh();
    ++live_polls;
    const std::uint64_t seq = query.published_seq();
    if (seq == 0) continue;  // nothing published yet
    ++live_observations;
    const auto worst = query.top_droop(1);
    std::printf("  [live %2zu] published=%7llu  vdd p50=%.4f V  p99 "
                "droop=%5.1f mV  worst site=%u (%.1f mV)\n",
                live_polls, static_cast<unsigned long long>(seq),
                query.voltage_quantile(0.5),
                (store_config.v_nominal - query.voltage_quantile(0.01)) * 1e3,
                worst.empty() ? 0 : worst.front().site,
                worst.empty() ? 0.0 : worst.front().droop * 1e3);
    if (seq == last_seq && seq >= store->total_ingested()) break;
    last_seq = seq;
  }
  runner.join();

  // Final state: drain has called publish_all(), so the snapshots cover
  // every ingested sample.
  query.refresh();
  std::printf("\n%s\n", query.render_summary(5).c_str());

  bool ok = true;
  if (query.published_seq() != result.produced) {
    std::printf("FAIL: store published %llu of %llu drained samples\n",
                static_cast<unsigned long long>(query.published_seq()),
                static_cast<unsigned long long>(result.produced));
    ok = false;
  }
  for (std::uint32_t site = 0; site < fp.site_count(); ++site) {
    if (!query.latest(site)) {
      std::printf("FAIL: site %u has no published reading\n", site);
      ok = false;
    }
  }
  if (live_observations == 0) {
    std::printf("FAIL: no live query ever observed published data\n");
    ok = false;
  }
  std::printf("live queries: %zu polls, %zu observed published snapshots "
              "mid-run\n",
              live_polls, live_observations);
  std::printf("store: %llu ingested, %llu publishes, drain mirrored into "
              "grid.serve.* telemetry\n",
              static_cast<unsigned long long>(store->total_ingested()),
              static_cast<unsigned long long>(store->publishes()));
  std::printf("\n%s\n", ok ? "serve monitor checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
