// Parallel scan-grid monitor: the paper's multi-point usage model as a
// running service.
//
// A 4×4 grid of sensor sites over one die, local rails derived from a solved
// first-droop PDN waveform (corner sites droop harder), sampled by the
// grid::ScanGrid runtime with one worker thread per shard. Workers ship
// capture-only raw words through the SPSC rings (the grid's one capture
// path); the aggregator's drain pass decodes each sample once and feeds it
// into the attached serve::TelemetryStore, the one per-site summary.
// Reporting then goes through the store's query API (DESIGN.md §13) —
// throughput, voltage quantiles, worst-droop leaderboard, degradation —
// plus the runtime counters and the die voltage map. The CSV counter dump
// is opt-in: pass `--csv [path]` to also export it.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

#include "cut/scenarios.h"
#include "grid/scan_grid.h"
#include "scan/die_map.h"
#include "serve/query.h"
#include "serve/store.h"

int main(int argc, char** argv) {
  using namespace psnt;
  using namespace psnt::literals;

  // CSV telemetry export is opt-in (`--csv` or `--csv path`); default
  // reporting queries the in-memory store instead.
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv_path = (i + 1 < argc && argv[i + 1][0] != '-')
                     ? argv[++i]
                     : "grid_monitor_telemetry.csv";
    } else {
      std::fprintf(stderr, "usage: %s [--csv [path]]\n", argv[0]);
      return 2;
    }
  }

  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);

  // One solved PDN waveform, shared; per-site deviations scale up to 1.8×
  // toward the far corner of the die.
  cut::ScenarioConfig scenario_config;
  scenario_config.horizon = Picoseconds{500000.0};
  const auto scenario =
      cut::make_scenario(cut::ScenarioKind::kFirstDroop, scenario_config);
  auto waveform =
      std::make_shared<const analog::SampledRail>(scenario.vdd.to_rail());

  grid::ScanGridConfig config;
  config.threads = std::max(1u, std::thread::hardware_concurrency());
  config.samples_per_site = 48;
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 2026;
  config.snapshot_csv_path = csv_path;

  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 1;  // the drain is the single writer
  store_config.v_nominal = 1.0;
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;

  grid::ScanGrid grid{
      fp, config,
      grid::ScanGrid::scaled_waveform_rails(fp, waveform, 1.0_V, 1.8)};

  std::printf("parallel PSN scan grid: %zu sites x %zu samples on %zu "
              "threads\n(scenario: %s)\n\n",
              fp.site_count(), config.samples_per_site,
              static_cast<std::size_t>(config.threads),
              scenario.description.c_str());

  const auto result = grid.run();

  std::printf("scan complete: %llu samples in %.1f ms (%.0f samples/sec, "
              "%llu ring stalls)\n\n",
              static_cast<unsigned long long>(result.produced),
              result.wall_seconds * 1e3, result.samples_per_second,
              static_cast<unsigned long long>(result.ring_stalls));

  // Store-backed report: what an operator dashboard would query.
  serve::QueryEngine query(*store);
  std::printf("%s\n", query.render_summary(5).c_str());

  grid.telemetry().write_text(std::cout);

  // Worst-droop snapshot: re-assemble the final sample of every site into a
  // scan-chain snapshot and render the die map.
  std::vector<scan::SiteMeasurement> snapshot;
  for (const auto& site : result.sites) {
    scan::SiteMeasurement sm;
    sm.site_id = site.site_id;
    sm.measurement = site.samples.back();
    snapshot.push_back(sm);
  }
  scan::DieMap map{fp, 1.0_V};
  map.ingest(snapshot);
  std::printf("\ndie map at final sample (per-mille droop, HI/LOW = "
              "saturated):\n%s", map.render(4, 4).c_str());
  std::printf("worst site: %u (%.3f V), gradient %.1f mV\n",
              map.worst_site().site_id, map.worst_site().estimate.value(),
              map.gradient().value() * 1e3);

  if (!csv_path.empty()) {
    std::printf("\ntelemetry snapshot exported to %s\n", csv_path.c_str());
  }
  return 0;
}
