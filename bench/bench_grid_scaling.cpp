// Grid runtime scaling — parallel scan-grid samples/sec vs thread count.
//
// The ROADMAP's scaling story quantified: a 16-site PSN scan grid (the
// paper's Fig. 6 sensor replicated across a 4×4 floorplan) sampled through
// the grid::ScanGrid runtime at 1/2/4/8 threads, against the single-thread
// configuration as baseline. The table reports throughput, speedup, and a
// bit-identity check of every per-site thermometer code against the serial
// scan::PsnScanChain::broadcast_measure reference — parallelism must never
// change a single measured word.
//
// A second section times the grid's one capture path at one thread — the
// vectorized SoA batch capture + bulk drain — and lands it in
// BENCH_grid.json as `grid_batch`, gated on ns/measure, allocs/measure and
// bit-identity to the serial reference.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/alloc_probe.h"
#include "bench/bench_util.h"
#include "calib/fit.h"
#include "grid/scan_grid.h"
#include "scan/scan_chain.h"

namespace psnt {
namespace {

using namespace psnt::literals;

constexpr std::size_t kRows = 4;
constexpr std::size_t kCols = 4;
constexpr std::size_t kSamples = 96;
constexpr std::uint64_t kSeed = 2026;

grid::ScanGridConfig grid_config(std::size_t threads) {
  grid::ScanGridConfig config;
  config.threads = threads;
  config.samples_per_site = kSamples;
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = kSeed;
  return config;
}

grid::RailFactory bench_rails(const scan::Floorplan& fp) {
  // ~50 mV IR gradient corner-to-corner plus a 4 mV per-site random offset:
  // every site measures a genuinely different rail.
  return grid::ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 5657.0,
                                           {0.0, 0.0}, 0.004);
}

// Serial reference words[site][sample] via the scan-chain broadcast API.
std::vector<std::vector<core::ThermoWord>> serial_reference(
    const scan::Floorplan& fp) {
  const auto config = grid_config(1);
  const auto& model = calib::calibrated().model;
  const auto factory = bench_rails(fp);
  scan::PsnScanChain chain{fp, config.thermometer};
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  for (const auto& site : fp.sites()) {
    auto rng = grid::ScanGrid::site_rng(config.seed, site.id);
    rails.push_back(factory(site, rng));
    chain.attach_site(site.id, analog::RailPair{rails.back().get(), nullptr},
                      calib::make_paper_thermometer(model, config.thermometer));
  }
  std::vector<std::vector<core::ThermoWord>> words(
      fp.site_count(), std::vector<core::ThermoWord>(kSamples));
  for (std::size_t k = 0; k < kSamples; ++k) {
    const auto snapshot = chain.broadcast_measure(
        Picoseconds{static_cast<double>(k) * 10000.0}, config.code);
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      words[i][k] = snapshot[i].measurement.word;
    }
  }
  return words;
}

void report_simcore_structural();

// The grid measured serially: 1 thread, min-of-`repeats` wall time
// (behavioral measures are sub-microsecond, shared CI machines are noisy),
// allocs from the least-recently-disturbed run, first run's words kept for
// the bit-identity check.
struct PathRun {
  double ns_per_measure = 0.0;
  double allocs_per_measure = 0.0;
  double samples_per_sec = 0.0;
  grid::RunResult result;
};

PathRun measure_serial(const scan::Floorplan& fp, int repeats = 3) {
  PathRun best;
  for (int r = 0; r < repeats; ++r) {
    grid::ScanGrid g{fp, grid_config(1), bench_rails(fp)};
    const std::uint64_t allocs_before = bench::alloc_count();
    auto run = g.run();
    const auto allocs =
        static_cast<double>(bench::alloc_count() - allocs_before);
    const double ns =
        run.wall_seconds * 1e9 / static_cast<double>(run.produced);
    if (r == 0 || ns < best.ns_per_measure) {
      best.ns_per_measure = ns;
      best.samples_per_sec = run.samples_per_second;
    }
    best.allocs_per_measure = allocs / static_cast<double>(run.produced);
    if (r == 0) best.result = std::move(run);
  }
  return best;
}

void report() {
  bench::section(
      "grid scaling — 16-site scan grid, samples/sec vs threads");
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, kRows, kCols);
  const auto reference = serial_reference(fp);

  const auto identical_to_reference = [&](const grid::RunResult& result) {
    bool identical = true;
    for (std::size_t i = 0; i < result.sites.size(); ++i) {
      for (std::size_t k = 0; k < kSamples; ++k) {
        identical &= result.sites[i].samples[k].word == reference[i][k];
      }
    }
    return identical;
  };

  // Thread sweep over the one capture path.
  util::CsvTable table({"threads", "sites", "samples", "wall_ms",
                        "samples_per_sec", "speedup_vs_1t", "ring_stalls",
                        "bit_identical_to_serial"});
  double baseline_sps = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    grid::ScanGrid g{fp, grid_config(threads), bench_rails(fp)};
    const auto result = g.run();
    if (threads == 1) baseline_sps = result.samples_per_second;
    table.new_row()
        .add(static_cast<long long>(threads))
        .add(static_cast<long long>(fp.site_count()))
        .add(static_cast<long long>(result.produced))
        .add(result.wall_seconds * 1e3, 4)
        .add(result.samples_per_second, 7)
        .add(baseline_sps > 0.0 ? result.samples_per_second / baseline_sps
                                : 0.0,
             3)
        .add(static_cast<long long>(result.ring_stalls))
        .add(identical_to_reference(result) ? "yes" : "NO");
  }
  bench::print_table(table);
  bench::note("hardware_concurrency=" +
              std::to_string(std::thread::hardware_concurrency()) +
              "; speedup tracks physical cores — runs on a single-core "
              "machine serialise and report ~1.0x");
  bench::note("bit_identical_to_serial must read 'yes' in every row: the "
              "runtime guarantees thread count never changes a measurement");

  // The one capture path at 1 thread on the same 16-site × 96-sample scan:
  // each site batch is one vectorized SoA capture, decoded in the drain.
  bench::section("grid batch — one capture path, serial (1 thread)");
  const auto batch = measure_serial(fp);
  const bool batch_serial_ok = identical_to_reference(batch.result);

  util::CsvTable cmp({"path", "ns_per_measure", "allocs_per_measure",
                      "samples_per_sec_1t", "bit_identical_to_serial"});
  cmp.new_row()
      .add("batch")
      .add(batch.ns_per_measure, 2)
      .add(batch.allocs_per_measure, 3)
      .add(batch.samples_per_sec, 2)
      .add(batch_serial_ok ? "yes" : "NO");
  bench::print_table(cmp);

  // Behavioral-grid perf baseline → BENCH_grid.json, gated by
  // bench/check_bench_regression.py exactly like BENCH_simcore.json.
  // ns_per_measure is the serial (1-thread) end-to-end cost per published
  // sample through the engine layer; allocs_per_measure counts every
  // operator-new in the process across that run (engine construction
  // amortised over sites × samples).
  bench::JsonReport grid_json{"BENCH_grid.json"};
  grid_json.set("grid_batch", "ns_per_measure", batch.ns_per_measure);
  grid_json.set("grid_batch", "allocs_per_measure", batch.allocs_per_measure);
  grid_json.set("grid_batch", "samples_per_sec_1t", batch.samples_per_sec);
  grid_json.set("grid_batch", "bit_identical_to_serial",
                batch_serial_ok ? 1.0 : 0.0);
  grid_json.write();
  report_simcore_structural();
}

// Simulation-core perf baseline: gate-level (structural) measure cost into
// BENCH_simcore.json. 4 sites × 128 samples = 512 structural measures, the
// same count as the pre-overhaul baseline run whose numbers the seed_* keys
// record. Event and scheduler-allocation counts come from the grid's
// "grid.sim_events" / "grid.sim_allocs" telemetry counters; the allocs_*
// metric counts every operator-new in the process during the run.
void report_simcore_structural() {
  bench::section("simcore — structural fidelity → BENCH_simcore.json");
  constexpr double kSeedNsPerMeasure = 160000.0;
  constexpr double kSeedEventsPerMeasure = 1006.2;
  constexpr double kSeedAllocsPerMeasure = 3015.7;

  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 2, 2);
  auto config = grid_config(1);
  config.fidelity = grid::SiteFidelity::kStructural;
  config.samples_per_site = 128;

  // Shared CI machines are noisy; repeat the run and keep the least-disturbed
  // (minimum) per-measure times. ns_per_measure is worker-side simulation
  // time ("grid.structural_ns", excludes ring/aggregator, matching how the
  // seed baseline was taken); wall_ns_per_measure is end-to-end for context.
  constexpr int kRepeats = 3;
  double ns_per_measure = 0.0;
  double wall_ns_per_measure = 0.0;
  double events_per_measure = 0.0;
  double allocs_per_measure = 0.0;
  double measures_per_sec = 0.0;
  double events_per_sec = 0.0;
  grid::RunResult result;
  for (int r = 0; r < kRepeats; ++r) {
    grid::ScanGrid g{fp, config, bench_rails(fp)};
    const std::uint64_t allocs_before = bench::alloc_count();
    auto run = g.run();
    const auto allocs =
        static_cast<double>(bench::alloc_count() - allocs_before);
    const auto measures = static_cast<double>(run.produced);
    const double events =
        static_cast<double>(g.telemetry().counter("grid.sim_events").value());
    const double sim_ns = static_cast<double>(
        g.telemetry().counter("grid.structural_ns").value());
    if (r == 0 || sim_ns / measures < ns_per_measure) {
      ns_per_measure = sim_ns / measures;
      measures_per_sec = measures / (sim_ns * 1e-9);
      events_per_sec = events / (sim_ns * 1e-9);
    }
    if (r == 0 || run.wall_seconds * 1e9 / measures < wall_ns_per_measure) {
      wall_ns_per_measure = run.wall_seconds * 1e9 / measures;
    }
    events_per_measure = events / measures;
    allocs_per_measure = allocs / measures;
    if (r == 0) result = std::move(run);
  }

  // Thread-invariance spot check: the same structural grid on 2 threads must
  // produce bit-identical words.
  auto config2 = config;
  config2.threads = 2;
  grid::ScanGrid g2{fp, config2, bench_rails(fp)};
  const auto result2 = g2.run();
  bool identical = true;
  for (std::size_t i = 0; i < result.sites.size(); ++i) {
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      identical &=
          result.sites[i].samples[k].word == result2.sites[i].samples[k].word;
    }
  }

  bench::JsonReport json;
  json.set("grid_structural", "measures_per_sec", measures_per_sec);
  json.set("grid_structural", "events_per_sec", events_per_sec);
  json.set("grid_structural", "ns_per_measure", ns_per_measure);
  json.set("grid_structural", "wall_ns_per_measure", wall_ns_per_measure);
  json.set("grid_structural", "events_per_measure", events_per_measure);
  json.set("grid_structural", "allocs_per_measure", allocs_per_measure);
  json.set("grid_structural", "thread_invariant", identical ? 1.0 : 0.0);
  json.set("grid_structural", "seed_ns_per_measure", kSeedNsPerMeasure);
  json.set("grid_structural", "seed_events_per_measure",
           kSeedEventsPerMeasure);
  json.set("grid_structural", "seed_allocs_per_measure",
           kSeedAllocsPerMeasure);
  json.set("grid_structural", "speedup_vs_seed",
           kSeedNsPerMeasure / ns_per_measure);
  json.write();

  char line[200];
  std::snprintf(line, sizeof(line),
                "%.0f ns/measure (wall %.0f), %.1f events/measure, %.2f "
                "allocs/measure (seed: %.0f ns, %.1f ev, %.1f allocs) — "
                "%.1fx, thread-invariant=%s",
                ns_per_measure, wall_ns_per_measure, events_per_measure,
                allocs_per_measure, kSeedNsPerMeasure, kSeedEventsPerMeasure,
                kSeedAllocsPerMeasure, kSeedNsPerMeasure / ns_per_measure,
                identical ? "yes" : "NO");
  bench::note(line);
}

void BM_GridScan(benchmark::State& state) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, kRows, kCols);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto config = grid_config(threads);
    config.samples_per_site = 16;
    grid::ScanGrid g{fp, config, bench_rails(fp)};
    const auto result = g.run();
    benchmark::DoNotOptimize(result.produced);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fp.site_count()) * 16);
}
BENCHMARK(BM_GridScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace psnt

PSNT_BENCH_MAIN(psnt::report)
