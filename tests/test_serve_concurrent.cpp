// TelemetryStore + QueryEngine under concurrency: one writer thread per
// shard ingesting flat-out while reader threads query continuously. Run
// under TSan in CI (sanitizer matrix) — the snapshot publication and
// the relaxed counter mirrors are exactly the code this must prove clean.
// Also pins down the store's sequential semantics (publication visibility,
// shard partitioning, degradation mirror, grid-drain integration).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "serve/query.h"
#include "serve/store.h"
#include "stats/rng.h"

namespace psnt::serve {
namespace {

StoreConfig make_config(std::size_t sites, std::size_t shards) {
  StoreConfig config;
  config.site_count = sites;
  config.shards = shards;
  config.v_nominal = 1.0;
  config.publish_every = 128;
  config.top_k = 4;
  return config;
}

// The concurrent soak shape shared by the thread-count variants: T writer
// threads (one per shard) + 2 query threads until the writers finish, then
// a final publish and full consistency audit.
void run_concurrent_soak(std::size_t threads) {
  constexpr std::size_t kSites = 16;
  constexpr std::uint64_t kPerSite = 2000;
  TelemetryStore store{make_config(kSites, threads)};

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::size_t shard = 0; shard < threads; ++shard) {
    writers.emplace_back([&store, shard, threads] {
      stats::Xoshiro256 rng(99 + shard);
      IngestRecord rec;
      for (std::uint64_t k = 0; k < kPerSite; ++k) {
        for (std::uint32_t site = static_cast<std::uint32_t>(shard);
             site < kSites; site += static_cast<std::uint32_t>(threads)) {
          rec.site = site;
          rec.timestamp = Picoseconds{static_cast<double>(k) * 1000.0};
          rec.volts = 1.0 - 0.001 * site - 0.01 * rng.uniform01();
          rec.latency_us = 0.1 + 0.01 * rng.uniform01();
          rec.in_range = (k % 7) != 0;
          rec.valid = (k % 11) != 0;
          store.ingest(rec);
        }
      }
    });
  }

  // Readers hammer the full query surface until the writers are done; every
  // observation they make must be internally consistent.
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> observations{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&store, &done, &observations] {
      QueryEngine query(store);
      // do-while: at least one full observation even if this thread is
      // scheduled so late the writers already finished (seen once under a
      // heavily loaded parallel ctest run).
      do {
        query.refresh();
        const std::uint64_t published = query.published_seq();
        // Published work never exceeds ingested work...
        EXPECT_LE(published, query.ingested());
        // ...and snapshots are monotone: per-site counts sum to the seq.
        std::uint64_t site_total = 0;
        for (const auto& shard : query.view().shards) {
          if (!shard) continue;
          for (const auto& site : shard->sites) site_total += site.ingested;
        }
        EXPECT_EQ(site_total, published);
        (void)query.voltage_quantile(0.99);
        (void)query.latency_quantile(0.5);
        (void)query.top_droop(4);
        (void)query.degradation();
        observations.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(observations.load(), 0u);

  // Quiesced: final publication covers every ingest.
  store.publish_all();
  QueryEngine query(store);
  const std::uint64_t expected = kPerSite * kSites;
  EXPECT_EQ(store.total_ingested(), expected);
  EXPECT_EQ(query.published_seq(), expected);

  // Valid/invalid accounting: k % 11 == 0 ingests carried no sample.
  const std::uint64_t invalid_per_site = (kPerSite + 10) / 11;
  std::uint64_t total_invalid = 0;
  for (std::uint32_t site = 0; site < kSites; ++site) {
    const auto* snap = query.site(site);
    ASSERT_NE(snap, nullptr) << "site " << site;
    EXPECT_EQ(snap->ingested, kPerSite);
    EXPECT_EQ(snap->invalid, invalid_per_site);
    // seq is the site's ingest ordinal at its last *valid* sample; the
    // final sample (k = 1999) is valid, so it saw the full count.
    ASSERT_TRUE(query.latest(site).has_value());
    EXPECT_EQ(query.latest(site)->seq, kPerSite);
    total_invalid += snap->invalid;
  }

  // Global sketches hold exactly the valid voltage samples / all latencies.
  EXPECT_EQ(query.voltage_stats().count(), expected - total_invalid);
  EXPECT_EQ(query.latency_stats().count(), expected);

  // Deterministic droop floor (0.001·site) makes the exact top-K order
  // site 15, 14, 13, 12 regardless of shard count or interleaving.
  const auto top = query.top_droop(4);
  ASSERT_EQ(top.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(top[i].site, 15u - i) << "rank " << i;
  }
}

TEST(ServeConcurrent, IngestAndQuerySingleShard) { run_concurrent_soak(1); }
TEST(ServeConcurrent, IngestAndQueryTwoShards) { run_concurrent_soak(2); }
TEST(ServeConcurrent, IngestAndQueryEightShards) { run_concurrent_soak(8); }

// Degradation mirror is a cross-thread bag of relaxed atomics.
TEST(ServeConcurrent, DegradationMirrorVisibleAcrossThreads) {
  TelemetryStore store{make_config(4, 1)};
  DegradationStatus status;
  status.retries = 3;
  status.samples_lost = 1;
  std::thread setter([&store, &status] { store.set_degradation(status); });
  setter.join();
  EXPECT_EQ(store.degradation().retries, 3u);
  EXPECT_EQ(store.degradation().samples_lost, 1u);
  EXPECT_EQ(store.snapshot().degradation.samples_lost, 1u);
}

// Snapshot pinning: a view grabbed before further ingest keeps reading its
// own immutable state while the writer publishes past it.
TEST(ServeConcurrent, PinnedSnapshotsSurviveLaterPublishes) {
  TelemetryStore store{make_config(2, 1)};
  IngestRecord rec;
  rec.site = 0;
  rec.volts = 0.9;
  rec.latency_us = 0.1;
  store.ingest(rec);
  store.publish_all();

  QueryEngine pinned(store);
  ASSERT_EQ(pinned.published_seq(), 1u);

  for (int i = 0; i < 1000; ++i) {
    rec.volts = 0.8;
    store.ingest(rec);
  }
  store.publish_all();

  // The pinned engine still sees the old world; a refresh catches up.
  EXPECT_EQ(pinned.published_seq(), 1u);
  EXPECT_DOUBLE_EQ(pinned.latest(0)->volts, 0.9);
  pinned.refresh();
  EXPECT_EQ(pinned.published_seq(), 1001u);
  EXPECT_DOUBLE_EQ(pinned.latest(0)->volts, 0.8);
}

// Order-sensitive FNV-1a digest of a view's counters, sketches, top-K and
// per-site windows.
std::uint64_t view_digest(const StoreView& view) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_real = [&mix](double v) {
    mix(std::bit_cast<std::uint64_t>(v));
  };
  const auto mix_sketch = [&mix, &mix_real](const HistogramSketch& s) {
    mix(s.count());
    mix(s.zero_count());
    mix_real(s.sum());
    for (std::size_t i = 0; i < s.config().bucket_count; ++i) {
      mix(s.bucket_count_at(i));
    }
  };
  for (const auto& shard : view.shards) {
    if (!shard) continue;
    mix(shard->seq);
    mix_sketch(shard->voltage);
    mix_sketch(shard->latency);
    mix(shard->voltage_stats.count());
    mix_real(shard->voltage_stats.mean());
    for (const auto& entry : shard->top_droop) {
      mix(entry.site);
      mix_real(entry.droop);
    }
    for (const auto& site : shard->sites) {
      mix(site.site);
      mix(site.ingested);
      mix(site.invalid);
      mix(site.out_of_range);
      mix(site.latest.seq);
      mix_real(site.latest.volts);
      mix(site.latest_epoch);
      for (const auto& slot : site.windows) {
        mix(slot.epoch);
        mix(slot.stats.count());
        mix_real(slot.stats.mean());
        mix_sketch(slot.sketch);
      }
    }
  }
  return h;
}

// Snapshot buffers are recycled once released; a reader that still holds
// one must never see it rewritten. The reader pins a view, waits out at
// least 8 publishes (whose recycling runs concurrently), and re-digests it.
// Under TSan a rewrite of a pinned buffer is also reported as a race.
TEST(ServeConcurrent, PinnedViewUnchangedAcrossRecyclingPublishes) {
  constexpr std::size_t kSites = 16;
  constexpr std::uint64_t kPerSite = 3000;
  constexpr std::uint64_t kPublishesPinned = 8;
  auto config = make_config(kSites, 1);
  config.publish_every = 16;
  TelemetryStore store{config};
  // Seed one snapshot so the first pinned view already holds data.
  store.ingest(IngestRecord{});
  store.publish_all();

  std::atomic<bool> first_pin{false};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    while (!first_pin.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    stats::Xoshiro256 rng(5);
    IngestRecord rec;
    for (std::uint64_t k = 0; k < kPerSite; ++k) {
      // Hot site 0 plus one rotating site: most sites stay clean between
      // publishes, so recycled buffers are refreshed only in part.
      for (const std::uint32_t site :
           {0u, static_cast<std::uint32_t>(1 + k % (kSites - 1))}) {
        rec.site = site;
        rec.timestamp = Picoseconds{static_cast<double>(k) * 5000.0};
        rec.volts = 1.0 - 0.05 * rng.uniform01();
        rec.latency_us = 0.1;
        store.ingest(rec);
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::uint64_t checks = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    const StoreView view = store.snapshot();
    const std::uint64_t digest = view_digest(view);
    const std::uint64_t pinned_at = store.publishes();
    first_pin.store(true, std::memory_order_release);
    while (store.publishes() < pinned_at + kPublishesPinned &&
           !writer_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    if (store.publishes() < pinned_at + kPublishesPinned) break;
    EXPECT_EQ(view_digest(view), digest) << "pinned at publish " << pinned_at;
    ++checks;
  }
  writer.join();
  EXPECT_GT(checks, 0u);
}

// A reader that lags: it keeps its last two views pinned, each across at
// least two publishes, and releases the older one while the writer keeps
// publishing, so releases race with the recycler's reuse of the two idle
// buffers. Every pinned view must digest as it did when taken.
TEST(ServeConcurrent, LaggingReaderViewsSurviveRecycling) {
  constexpr std::size_t kSites = 16;
  constexpr std::uint64_t kPerSite = 3000;
  constexpr std::uint64_t kLag = 2;
  auto config = make_config(kSites, 1);
  config.publish_every = 16;
  TelemetryStore store{config};
  store.ingest(IngestRecord{});
  store.publish_all();

  std::atomic<bool> first_pin{false};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    while (!first_pin.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    stats::Xoshiro256 rng(8);
    IngestRecord rec;
    for (std::uint64_t k = 0; k < kPerSite; ++k) {
      for (const std::uint32_t site :
           {0u, static_cast<std::uint32_t>(1 + k % (kSites - 1))}) {
        rec.site = site;
        rec.timestamp = Picoseconds{static_cast<double>(k) * 5000.0};
        rec.volts = 1.0 - 0.05 * rng.uniform01();
        rec.latency_us = 0.1 + 0.01 * static_cast<double>(k % 3);
        store.ingest(rec);
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  struct Pinned {
    StoreView view;
    std::uint64_t digest = 0;
  };
  std::deque<Pinned> pinned;
  std::uint64_t checks = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    StoreView view = store.snapshot();
    const std::uint64_t digest = view_digest(view);
    pinned.push_back(Pinned{std::move(view), digest});
    const std::uint64_t pinned_at = store.publishes();
    first_pin.store(true, std::memory_order_release);
    while (store.publishes() < pinned_at + kLag &&
           !writer_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    if (store.publishes() < pinned_at + kLag) break;
    for (const Pinned& p : pinned) {
      EXPECT_EQ(view_digest(p.view), p.digest) << "at publish " << pinned_at;
      ++checks;
    }
    if (pinned.size() == 2) pinned.pop_front();  // races the next publish
  }
  writer.join();
  EXPECT_GT(checks, 0u);
}

TEST(ServeConcurrent, ShardPartitionIsStable) {
  TelemetryStore store{make_config(8, 3)};
  for (std::uint32_t site = 0; site < 8; ++site) {
    EXPECT_EQ(store.shard_of(site), site % store.config().shards);
  }
}

}  // namespace
}  // namespace psnt::serve
