// Fleet conformance and failure-model tests (DESIGN.md §15).
//
// The conformance requirement: a multi-process fleet run is bit-identical in
// decoded words to the same sites captured in-process — at 1, 2 and 8
// aggregator threads, and still when a worker is SIGKILLed mid-run and its
// assignment re-run on a pre-forked spare. With no spare left, the loss is
// counted and mirrored into the serving layer's degradation status.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>

#include "fleet/fleet.h"
#include "fleet/partition.h"
#include "net/wire.h"
#include "serve/store.h"

namespace psnt::fleet {
namespace {

FleetConfig small_config() {
  FleetConfig config;
  config.sites = 8;
  config.samples_per_site = 24;
  config.seed = 77;
  config.workers = 3;
  config.spares = 0;
  config.span_samples = 7;  // force multi-span streams + a partial tail span
  return config;
}

// --- partition policy ------------------------------------------------------

TEST(Partition, BlockedSpreadsRemainderOverLeadingWorkers) {
  PartitionPolicy policy;  // kBlocked default
  const auto parts = policy.shard(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(parts[1], (std::vector<std::uint32_t>{4, 5, 6}));
  EXPECT_EQ(parts[2], (std::vector<std::uint32_t>{7, 8, 9}));
}

TEST(Partition, RoundRobinInterleaves) {
  PartitionPolicy policy{PartitionStrategy::kRoundRobin};
  const auto parts = policy.shard(7, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<std::uint32_t>{0, 3, 6}));
  EXPECT_EQ(parts[1], (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(parts[2], (std::vector<std::uint32_t>{2, 5}));
}

TEST(Partition, EverySiteAssignedExactlyOnce) {
  for (const auto strategy :
       {PartitionStrategy::kBlocked, PartitionStrategy::kRoundRobin}) {
    PartitionPolicy policy{strategy};
    const auto parts = policy.shard(23, 5);
    std::vector<int> seen(23, 0);
    for (const auto& part : parts) {
      for (const auto site : part) seen[site]++;
    }
    for (std::size_t s = 0; s < seen.size(); ++s) {
      EXPECT_EQ(seen[s], 1) << "site " << s << " under "
                            << to_string(strategy);
    }
  }
}

// --- conformance -----------------------------------------------------------

TEST(Fleet, MatchesInProcessReferenceAcrossAggregatorThreads) {
  const auto reference = FleetCoordinator::run_in_process(small_config());
  ASSERT_EQ(reference.count_valid(),
            small_config().sites * small_config().samples_per_site);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    auto config = small_config();
    config.aggregator_threads = threads;
    FleetCoordinator fleet(config);
    const auto result = fleet.run();

    EXPECT_TRUE(result.completed) << threads << " aggregator threads";
    EXPECT_EQ(result.samples_lost, 0u);
    EXPECT_EQ(result.frame_errors, 0u);
    EXPECT_EQ(result.samples_valid, result.samples_expected);
    EXPECT_TRUE(result.matrix.identical_to(reference))
        << "fleet diverged from in-process at " << threads
        << " aggregator threads";
    EXPECT_GT(result.spans, 0u);
    EXPECT_GT(result.samples_per_second, 0.0);
    EXPECT_FALSE(result.span_latency_ns.empty());
  }
}

TEST(Fleet, RoundRobinPartitionIsStillBitIdentical) {
  auto config = small_config();
  config.partition.strategy = PartitionStrategy::kRoundRobin;
  const auto reference = FleetCoordinator::run_in_process(config);
  FleetCoordinator fleet(config);
  const auto result = fleet.run();
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.matrix.identical_to(reference));
}

// --- failure model ---------------------------------------------------------

TEST(Fleet, KilledWorkerIsRestartedOnASpareBitIdentically) {
  auto config = small_config();
  // Big enough that worker 1 cannot finish its assignment before the kill
  // lands (a 600-sample run completed in under 5 ms on a fast box and the
  // kill found the worker already gone).
  config.samples_per_site = 20000;
  config.span_samples = 64;
  config.spares = 1;
  config.aggregator_threads = 2;

  FleetCoordinator fleet(config);
  fleet.schedule_kill(1, /*after_ms=*/2);
  const auto result = fleet.run();

  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.workers_killed, 1u)
      << "kill landed after the assignment finished; grow samples_per_site";
  // Whether the kill landed before or after the worker's kDone, the matrix
  // must be complete and bit-identical: a spare re-runs the deterministic
  // assignment and overwrites any already-delivered slots with equal values.
  EXPECT_EQ(result.assignments_lost, 0u);
  EXPECT_EQ(result.samples_lost, 0u);
  EXPECT_EQ(result.frame_errors, 0u);
  EXPECT_TRUE(
      result.matrix.identical_to(FleetCoordinator::run_in_process(config)));
}

TEST(Fleet, KillWithoutSpareCountsLossAndDegradation) {
  auto config = small_config();
  // Big enough that worker 0 cannot outrun a kill scheduled a few ms in.
  config.samples_per_site = 20000;
  config.span_samples = 64;
  config.spares = 0;
  config.store = std::make_shared<serve::TelemetryStore>([&] {
    serve::StoreConfig sc;
    sc.site_count = config.sites;
    sc.shards = 2;
    return sc;
  }());

  FleetCoordinator fleet(config);
  fleet.schedule_kill(0, /*after_ms=*/2);
  const auto result = fleet.run();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.workers_killed, 1u);
  EXPECT_EQ(result.workers_restarted, 0u);
  ASSERT_GT(result.samples_lost, 0u) << "kill landed after the assignment "
                                        "finished; grow samples_per_site";
  EXPECT_EQ(result.assignments_lost, 1u);
  EXPECT_EQ(result.samples_valid + result.samples_lost,
            result.samples_expected);

  // Surviving workers' samples are still bit-identical to the reference.
  const auto reference = FleetCoordinator::run_in_process(config);
  for (std::uint32_t site = 0; site < config.sites; ++site) {
    for (std::uint32_t k = 0; k < config.samples_per_site; ++k) {
      const std::size_t i = result.matrix.index(site, k);
      if (!result.matrix.valid[i]) continue;
      EXPECT_EQ(result.matrix.words[i], reference.words[i])
          << "site " << site << " sample " << k;
    }
  }

  // The serving layer saw the loss (degradation mirror) and the deliveries.
  const auto degradation = result.samples_lost;
  EXPECT_EQ(config.store->degradation().samples_lost, degradation);
  EXPECT_EQ(config.store->degradation().sites_quarantined, 1u);
  EXPECT_EQ(config.store->total_ingested(), result.samples_valid);
}

TEST(Fleet, RejectsNonFiniteSchedules) {
  // Unchecked, a NaN interval forks the workers and "completes" with every
  // sample lost to the wire's timestamp check.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double start : {kNaN, kInf}) {
    FleetConfig config = small_config();
    config.start = Picoseconds{start};
    EXPECT_THROW(FleetCoordinator{config}, std::logic_error)
        << "start " << start;
  }
  for (const double interval : {0.0, -1.0, kNaN, kInf}) {
    FleetConfig config = small_config();
    config.interval = Picoseconds{interval};
    EXPECT_THROW(FleetCoordinator{config}, std::logic_error)
        << "interval " << interval;
  }
}

TEST(Fleet, RejectsSpansLargerThanOneFrame) {
  FleetConfig config = small_config();
  config.span_samples = net::kMaxSpanSamples;
  EXPECT_NO_THROW(FleetCoordinator{config});
  config.span_samples = net::kMaxSpanSamples + 1;
  EXPECT_THROW(FleetCoordinator{config}, std::logic_error);
}

// --- matrix predicate ------------------------------------------------------

TEST(Fleet, IdenticalToComparesWordsAndValidity) {
  SampleMatrix a(2, 2);
  SampleMatrix b(2, 2);
  EXPECT_TRUE(a.identical_to(b));

  a.valid[a.index(1, 0)] = 1;
  a.words[a.index(1, 0)] = core::ThermoWord{0x3, 4};
  a.code_values[a.index(1, 0)] = 3;
  EXPECT_FALSE(a.identical_to(b));

  b.valid[b.index(1, 0)] = 1;
  b.words[b.index(1, 0)] = core::ThermoWord{0x3, 4};
  b.code_values[b.index(1, 0)] = 3;
  EXPECT_TRUE(a.identical_to(b));

  b.words[b.index(1, 0)] = core::ThermoWord{0x1, 4};
  EXPECT_FALSE(a.identical_to(b));
}

}  // namespace
}  // namespace psnt::fleet
