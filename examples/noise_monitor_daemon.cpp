// Continuous noise monitor: auto-ranging thermometer + serving-layer report.
//
// The deployment the paper's conclusions sketch: the sensor runs
// continuously inside the CUT, the controller picks Delay Codes by itself
// (the "internal policy"), and what escapes for analysis is no longer a
// raw measurement dump — it is the serve::TelemetryStore the drain feeds
// (DESIGN.md §13). Per-scenario health is judged from store queries: the
// site's out-of-range fraction from its published counters, the worst/best
// readings from its merged windowed rollups, throughput and droop from the
// global snapshot. The old CSV telemetry export is opt-in via `--csv`.
//
// The measurement loop itself is the grid::ScanGrid runtime: each scenario
// is one site of a scan grid with the per-site auto-range code policy, so
// all scenarios are monitored concurrently on the grid's shard threads and
// the per-sample measure/observe/retrim sequencing lives in one place
// instead of a hand-rolled polling loop here.
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "cut/scenarios.h"
#include "grid/scan_grid.h"
#include "serve/query.h"
#include "serve/store.h"

int main(int argc, char** argv) {
  using namespace psnt;
  using namespace psnt::literals;

  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv_path = (i + 1 < argc && argv[i + 1][0] != '-')
                     ? argv[++i]
                     : "noise_monitor_telemetry.csv";
    } else {
      std::fprintf(stderr, "usage: %s [--csv [path]]\n", argv[0]);
      return 2;
    }
  }

  std::printf("continuous PSN monitor: auto-ranged, store-backed reports\n\n");

  // One grid site per scenario; the site's local rails are that scenario's
  // solved VDD-n / GND-n waveforms.
  const auto kinds = cut::all_scenarios();
  std::vector<cut::Scenario> scenarios;
  std::vector<std::shared_ptr<const analog::SampledRail>> vdd_rails;
  std::vector<std::shared_ptr<const analog::SampledRail>> gnd_rails;
  scan::Floorplan fp{1000.0, 1000.0};
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    cut::ScenarioConfig config;
    config.horizon = Picoseconds{500000.0};
    scenarios.push_back(cut::make_scenario(kinds[i], config));
    vdd_rails.push_back(std::make_shared<const analog::SampledRail>(
        scenarios.back().vdd.to_rail()));
    gnd_rails.push_back(std::make_shared<const analog::SampledRail>(
        scenarios.back().gnd.to_rail()));
    fp.add_site(cut::to_string(kinds[i]),
                {100.0 + 150.0 * static_cast<double>(i), 500.0});
  }

  grid::ScanGridConfig config;
  config.threads = std::max(1u, std::thread::hardware_concurrency());
  config.samples_per_site = 48;
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.code_policy = grid::CodePolicy::kAutoRange;
  config.snapshot_csv_path = csv_path;

  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 1;  // the drain is the single writer
  store_config.v_nominal = 1.0;
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;

  auto vdd_factory = [&vdd_rails](const scan::SensorSite& site,
                                  stats::Xoshiro256&)
      -> std::unique_ptr<analog::RailSource> {
    return std::make_unique<analog::SampledRail>(*vdd_rails[site.id]);
  };
  auto gnd_factory = [&gnd_rails](const scan::SensorSite& site,
                                  stats::Xoshiro256&)
      -> std::unique_ptr<analog::RailSource> {
    return std::make_unique<analog::SampledRail>(*gnd_rails[site.id]);
  };

  grid::ScanGrid grid{fp, config, vdd_factory, gnd_factory};
  const auto result = grid.run();

  // All reporting below reads the published store snapshots — the same
  // query surface a remote operator would hit — not the raw result matrix.
  serve::QueryEngine query(*store);

  int failures = 0;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto kind = kinds[i];
    const auto& site = result.sites[i];
    const auto site_id = static_cast<std::uint32_t>(i);
    const auto* snap = query.site(site_id);
    if (snap == nullptr) {
      std::printf("[%s] !! no published store snapshot\n", cut::to_string(kind));
      ++failures;
      continue;
    }
    const double oor_fraction =
        snap->ingested > 0 ? static_cast<double>(snap->out_of_range) /
                                 static_cast<double>(snap->ingested)
                           : 0.0;

    std::printf("[%s] %s\n", cut::to_string(kind),
                scenarios[i].description.c_str());
    std::printf("  measures=%llu  out-of-range=%.1f%%  code steps=%llu  "
                "final code=%s\n",
                static_cast<unsigned long long>(snap->ingested),
                oor_fraction * 100.0,
                static_cast<unsigned long long>(site.code_steps),
                site.final_code.to_string().c_str());
    const auto windowed =
        query.windowed(site_id, store_config.window.windows);
    if (windowed && windowed->stats.count() > 0) {
      std::printf("  windowed rollup: worst %.3f V, best %.3f V, mean %.3f V "
                  "over %zu live windows; latest %.3f V at t=%.1f ns\n",
                  windowed->stats.min(), windowed->stats.max(),
                  windowed->stats.mean(), windowed->windows_live,
                  snap->latest.volts, snap->latest.timestamp.value() * 1e-3);
    }

    if (kind == cut::ScenarioKind::kResonantRipple) {
      // Known-pathological case: the rail swings wider than any code window
      // at a period faster than the re-trim loop — auto-ranging cannot keep
      // up and the code register hunts. That hunting itself is the alarm an
      // operator acts on (switch to iterated fixed-code capture instead).
      const bool hunting_detected = site.code_steps > 10;
      std::printf("  resonance exceeds the window+loop bandwidth: %s\n",
                  hunting_detected ? "hunting alarm raised (expected)"
                                   : "!! hunting NOT detected");
      if (!hunting_detected) ++failures;
    } else if (oor_fraction > 0.34) {
      // With auto-ranging, at most a third of the readings may saturate in
      // the other scenarios (the policy needs a few measures to walk over).
      std::printf("  !! excessive saturation\n");
      ++failures;
    }
    std::printf("\n");
  }

  // Fleet-level view across all scenario sites, straight from the store.
  std::printf("%s\n", query.render_summary(3).c_str());
  if (!csv_path.empty()) {
    std::printf("telemetry snapshot exported to %s\n\n", csv_path.c_str());
  }

  std::printf(failures == 0
                  ? "all scenarios handled (resonance correctly alarmed).\n"
                  : "%d scenario(s) mishandled.\n",
              failures);
  return failures;
}
