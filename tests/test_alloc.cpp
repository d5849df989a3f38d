// Allocation counts of the hot paths, pinned deterministically.
//
// The grid's steady state must not allocate per sample, and the serving
// store must hold fixed memory however long it ingests. Wall-clock and RSS
// numbers are noisy across hosts; operator-new counts are not, so these
// properties are asserted exactly (or against a tight per-measure bound)
// here, and the timing side is left to bench/pipeline's alternated pairs.
//
// alloc_probe.h replaces the process-wide operator new, so this file is the
// only translation unit of its test binary.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>

#include "alloc_probe.h"
#include "fault/fault_injector.h"
#include "grid/scan_grid.h"
#include "serve/store.h"

namespace psnt::grid {
namespace {

using namespace psnt::literals;

ScanGridConfig alloc_config(std::size_t threads, std::size_t samples) {
  ScanGridConfig config;
  config.threads = threads;
  config.samples_per_site = samples;
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 2026;
  return config;
}

std::shared_ptr<serve::TelemetryStore> grid_store(std::size_t sites) {
  serve::StoreConfig store_config;
  store_config.site_count = sites;
  store_config.shards = 1;
  return std::make_shared<serve::TelemetryStore>(store_config);
}

// Heap allocations of one ScanGrid::run(). The grid's constructor is not
// counted; structural engines are elaborated inside run(), so their
// netlist build is.
std::uint64_t run_allocations(const scan::Floorplan& fp,
                              const ScanGridConfig& config) {
  ScanGrid grid{fp, config,
                ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 5657.0,
                                            {0.0, 0.0}, 0.004)};
  const std::uint64_t before = test::alloc_count();
  const RunResult result = grid.run();
  const std::uint64_t allocations = test::alloc_count() - before;
  EXPECT_EQ(result.produced, fp.site_count() * config.samples_per_site);
  return allocations;
}

TEST(Allocations, BehavioralGridRunIsIndependentOfSampleCount) {
  // 16 sites: 96 samples is one capture batch per site, 960 is ten. Every
  // buffer is sized up front or reused across batches, so ten times the
  // samples costs exactly the same allocations. Auto-ranged sites included:
  // the grid solves every code's firing ladder before run(), so walking to
  // a new code allocates nothing.
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  for (const CodePolicy policy : {CodePolicy::kFixed, CodePolicy::kAutoRange}) {
    for (const std::size_t threads : {1u, 2u}) {
      for (const bool with_store : {false, true}) {
        std::uint64_t counts[2] = {};
        const std::size_t samples[2] = {96, 960};
        for (int i = 0; i < 2; ++i) {
          auto config = alloc_config(threads, samples[i]);
          config.code_policy = policy;
          if (with_store) config.store = grid_store(fp.site_count());
          counts[i] = run_allocations(fp, config);
        }
        EXPECT_EQ(counts[0], counts[1])
            << (policy == CodePolicy::kFixed ? "fixed" : "auto-ranged")
            << ", " << threads << " thread(s), store "
            << (with_store ? "on" : "off");
      }
    }
  }
}

// Allocations per extra measure of a 4-site gate-level grid, 64 against
// 1024 samples per site. The gate-level engines are elaborated inside
// run(), so both counts carry the netlist build; what may grow with the
// sample count is only the scheduler's amortized arena growth.
double structural_growth_per_measure(CodePolicy policy, std::size_t threads) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  auto config = alloc_config(threads, 64);
  config.fidelity = SiteFidelity::kStructural;
  config.code_policy = policy;
  const std::uint64_t short_run = run_allocations(fp, config);
  config.samples_per_site = 1024;
  const std::uint64_t long_run = run_allocations(fp, config);
  const double extra_measures =
      static_cast<double>(fp.site_count() * (1024 - 64));
  return (static_cast<double>(long_run) - static_cast<double>(short_run)) /
         extra_measures;
}

TEST(Allocations, StructuralGridGrowsUnderOneAllocationPer20Measures) {
  for (const std::size_t threads : {1u, 2u}) {
    EXPECT_LE(structural_growth_per_measure(CodePolicy::kFixed, threads),
              0.05)
        << threads << " thread(s)";
  }
}

TEST(Allocations, AutoRangedStructuralGridGrowsUnderOneAllocationPer20Measures) {
  // An auto-ranged gate-level site runs one netlist transaction per sample;
  // the engine reuses its word buffer across them.
  for (const std::size_t threads : {1u, 2u}) {
    EXPECT_LE(structural_growth_per_measure(CodePolicy::kAutoRange, threads),
              0.05)
        << threads << " thread(s)";
  }
}

TEST(Allocations, ChaosGridGrowsOnlyByItsFaultTrace) {
  // Every fault lane, 3 votes, retries and quarantine. The vote panel lives
  // in reused shard buffers, so what may grow with the sample count is the
  // fault trace's amortized growth — logarithmic, far under one allocation
  // per published sample.
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  fault::FaultStormConfig storm;
  storm.p_stuck_site = 0.15;
  storm.p_metastable = 0.1;
  storm.p_code_drift = 0.08;
  storm.p_rail_droop = 0.08;
  storm.p_dead_site = 0.02;
  storm.p_hung = 0.2;
  storm.p_ring_storm = 0.05;
  for (const std::size_t threads : {1u, 2u}) {
    auto config = alloc_config(threads, 64);
    config.injector = std::make_shared<fault::FaultInjector>(7, storm);
    config.resilience.max_retries = 6;
    config.resilience.votes = 3;
    config.resilience.quarantine_after = 3;
    const std::uint64_t short_run = run_allocations(fp, config);
    config.samples_per_site = 1024;
    const std::uint64_t long_run = run_allocations(fp, config);
    const double extra_samples = static_cast<double>(
        fp.site_count() * (1024 - 64));
    const double growth =
        (static_cast<double>(long_run) - static_cast<double>(short_run)) /
        extra_samples;
    EXPECT_LE(growth, 0.05) << threads << " thread(s): " << short_run
                            << " -> " << long_run << " allocations";
  }
}

TEST(Allocations, StoreIngestWithAutoPublishIsAllocationFree) {
  // Auto-publish every 1024 ingests over 64 sites. Once the shard holds a
  // published and an idle snapshot, every later publish refreshes the idle
  // one in place, so a million ingests allocate nothing.
  serve::StoreConfig store_config;
  store_config.site_count = 64;
  store_config.shards = 1;
  store_config.publish_every = 1024;
  serve::TelemetryStore store(store_config);

  std::uint64_t k = 0;
  serve::IngestRecord rec;
  const auto ingest = [&](std::uint64_t records) {
    for (std::uint64_t i = 0; i < records; ++i, ++k) {
      rec.site = static_cast<std::uint32_t>(k % 64);
      rec.timestamp = Picoseconds{static_cast<double>(k / 64) * 10000.0};
      rec.volts = 1.0 - 0.001 * static_cast<double>(k % 64) -
                  0.0001 * static_cast<double>(k % 7);
      rec.latency_us = 0.2 + 0.01 * static_cast<double>(k % 5);
      rec.in_range = true;
      rec.valid = true;
      store.ingest(rec);
    }
  };
  ingest(16 * 1024);  // warm-up: both snapshots built, windows wrapped
  const std::uint64_t publishes_before = store.publishes();
  const std::uint64_t before = test::alloc_count();
  ingest(1000000);
  EXPECT_EQ(test::alloc_count() - before, 0u);
  EXPECT_GT(store.publishes() - publishes_before, 900u);
}

TEST(Allocations, SpanIngestLockedIsAllocationFree) {
  // The fleet aggregator's path: 64-record spans, one site each, handed to
  // a two-shard store in one ingest_locked call per span. Past warm-up a
  // million records allocate nothing, auto-publishes included.
  serve::StoreConfig store_config;
  store_config.site_count = 64;
  store_config.shards = 2;
  store_config.publish_every = 1024;
  serve::TelemetryStore store(store_config);

  std::uint64_t k = 0;
  std::array<serve::IngestRecord, 64> span{};
  const auto ingest = [&](std::uint64_t spans) {
    for (std::uint64_t i = 0; i < spans; ++i, ++k) {
      const auto site = static_cast<std::uint32_t>(k % 64);
      for (std::size_t j = 0; j < span.size(); ++j) {
        serve::IngestRecord& rec = span[j];
        rec.site = site;
        rec.timestamp = Picoseconds{
            static_cast<double>((k / 64) * span.size() + j) * 10000.0};
        rec.volts = 1.0 - 0.001 * static_cast<double>(site) -
                    0.0001 * static_cast<double>(j % 7);
        rec.latency_us = 0.2 + 0.01 * static_cast<double>(j % 5);
      }
      store.ingest_locked(span);
    }
  };
  ingest(256);  // warm-up: both snapshots of each shard built
  const std::uint64_t publishes_before = store.publishes();
  const std::uint64_t before = test::alloc_count();
  ingest(16000);
  EXPECT_EQ(test::alloc_count() - before, 0u);
  EXPECT_GT(store.publishes() - publishes_before, 900u);
}

TEST(Allocations, StoreWithLaggingReaderRecyclesEverySnapshot) {
  // A reader that takes snapshot() after every second publish and holds it
  // until its next one keeps each snapshot across two publishes. The shard
  // then cycles four buffers (published, held, two idle), so the only
  // allocations left are the reader's own: one StoreView vector per call.
  serve::StoreConfig store_config;
  store_config.site_count = 64;
  store_config.shards = 1;
  store_config.publish_every = 1024;
  serve::TelemetryStore store(store_config);

  std::uint64_t k = 0;
  std::uint64_t reader_snapshots = 0;
  serve::StoreView held;
  serve::IngestRecord rec;
  const auto ingest = [&](std::uint64_t records) {
    for (std::uint64_t i = 0; i < records; ++i, ++k) {
      rec.site = static_cast<std::uint32_t>(k % 64);
      rec.timestamp = Picoseconds{static_cast<double>(k / 64) * 10000.0};
      rec.volts = 1.0 - 0.001 * static_cast<double>(k % 64) -
                  0.0001 * static_cast<double>(k % 7);
      rec.latency_us = 0.2 + 0.01 * static_cast<double>(k % 5);
      rec.in_range = true;
      rec.valid = true;
      const std::uint64_t publishes = store.publishes();
      store.ingest(rec);
      if (store.publishes() != publishes && store.publishes() % 2 == 0) {
        held = store.snapshot();
        ++reader_snapshots;
      }
    }
  };
  ingest(16 * 1024);  // warm-up: every buffer built, windows wrapped
  const std::uint64_t publishes_before = store.publishes();
  const std::uint64_t snapshots_before = reader_snapshots;
  const std::uint64_t before = test::alloc_count();
  ingest(1000000);
  EXPECT_EQ(test::alloc_count() - before, reader_snapshots - snapshots_before);
  EXPECT_GT(store.publishes() - publishes_before, 900u);
  EXPECT_GT(reader_snapshots - snapshots_before, 450u);
}

}  // namespace
}  // namespace psnt::grid
