// Grid drain → TelemetryStore wiring: the aggregator publishes every
// drained sample into an attached store, mirrors resilience telemetry into
// the degradation status, and finishes with a publish_all() so queries see
// the complete run.
#include <gtest/gtest.h>

#include <memory>

#include "grid/scan_grid.h"
#include "serve/query.h"
#include "serve/store.h"

namespace psnt::grid {
namespace {

using namespace psnt::literals;

ScanGridConfig base_config(std::size_t threads) {
  ScanGridConfig config;
  config.threads = threads;
  config.samples_per_site = 12;
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

TEST(ServeGrid, DrainPublishesEverySampleIntoStore) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 3, 3);
  auto config = base_config(2);

  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 1;
  store_config.publish_every = 16;
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;

  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();

  const std::uint64_t drained = result.produced;
  EXPECT_EQ(store->total_ingested(), drained);
  EXPECT_EQ(grid.telemetry().counter("grid.serve.ingested").value(), drained);
  EXPECT_GT(grid.telemetry().counter("grid.serve.publishes").value(), 0u);

  // The final publish_all() makes the whole run queryable.
  serve::QueryEngine query(*store);
  EXPECT_EQ(query.published_seq(), drained);
  // The store is the one home of the run's distributions: every drained
  // sample lands in both the latency and the voltage summary.
  EXPECT_EQ(query.latency_stats().count(), drained);
  EXPECT_EQ(query.voltage_stats().count(), drained);
  for (std::uint32_t site = 0; site < fp.site_count(); ++site) {
    const auto* snap = query.site(site);
    ASSERT_NE(snap, nullptr) << "site " << site;
    EXPECT_EQ(snap->ingested, config.samples_per_site);
    EXPECT_TRUE(query.latest(site).has_value());
  }
  // Voltages land near the nominal rail, quantiles in a sane band.
  EXPECT_GT(query.voltage_quantile(0.5), 0.5);
  EXPECT_LT(query.voltage_quantile(0.5), 1.5);
  EXPECT_FALSE(query.top_droop(3).empty());
  // No chaos configured: the degradation mirror stays clean.
  const auto degradation = query.degradation();
  EXPECT_EQ(degradation.samples_lost, 0u);
  EXPECT_EQ(degradation.sites_quarantined, 0u);
}

// grid.serve.publishes counts the publishes of its own run, not the
// store's lifetime total: a store may outlive (and be shared across) grids.
TEST(ServeGrid, PublishCounterCountsOnlyThisRun) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 3, 3);
  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.publish_every = 16;
  auto store = std::make_shared<serve::TelemetryStore>(store_config);

  auto config = base_config(1);
  config.store = store;
  ScanGrid first{fp, config, test_rails(fp)};
  (void)first.run();
  const std::uint64_t after_first = store->publishes();
  EXPECT_EQ(first.telemetry().counter("grid.serve.publishes").value(),
            after_first);

  ScanGrid second{fp, config, test_rails(fp)};
  (void)second.run();
  const std::uint64_t caused = store->publishes() - after_first;
  EXPECT_GT(caused, 0u);
  EXPECT_EQ(second.telemetry().counter("grid.serve.publishes").value(),
            caused);
}

TEST(ServeGrid, StoreSmallerThanGridIsRejected) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 3, 3);
  auto config = base_config(1);
  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count() - 1;  // too small
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;
  EXPECT_THROW((ScanGrid{fp, config, test_rails(fp)}), std::logic_error);
}

TEST(ServeGrid, MultiShardStoreIsRejected) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 3, 3);
  auto config = base_config(1);
  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 2;  // drain is a single writer
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;
  EXPECT_THROW((ScanGrid{fp, config, test_rails(fp)}), std::logic_error);
}

TEST(ServeGrid, RunWithoutStoreStillWorks) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  auto config = base_config(1);
  ASSERT_EQ(config.store, nullptr);
  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();
  EXPECT_EQ(result.produced, fp.site_count() * config.samples_per_site);
  EXPECT_EQ(grid.telemetry().counter("grid.serve.ingested").value(), 0u);
}

}  // namespace
}  // namespace psnt::grid
