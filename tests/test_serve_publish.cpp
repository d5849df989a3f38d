// Incremental snapshot publication: a shard refreshes a recycled snapshot
// in place, re-copying only the sites that ingested since that snapshot
// was built. The property here is that the result is indistinguishable
// from a snapshot built from scratch: randomized schedules (shard counts,
// publish cadences, invalid samples, time gaps and late drops, locked
// ingest, explicit publishes) run against the store while a reader pins
// 0–3 snapshots across publishes, and every publication is compared field
// by field with a fresh store's first — necessarily from-scratch — publish
// of the same ingest prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/store.h"
#include "stats/rng.h"

namespace psnt::serve {
namespace {

StoreConfig small_config(std::size_t shards, std::size_t publish_every) {
  StoreConfig config;
  config.site_count = 12;
  config.shards = shards;
  config.v_nominal = 1.0;
  config.window = WindowConfig{Picoseconds{1000.0}, 4,
                               SketchConfig{0.01, 0.5, 48}};
  config.top_k = 3;
  config.publish_every = publish_every;
  return config;
}

// First mismatch between two snapshots, or "" when equal field by field.
std::string diff_stats(const stats::OnlineStats& a,
                       const stats::OnlineStats& b) {
  if (a.count() != b.count() || a.mean() != b.mean() ||
      a.variance() != b.variance() || a.min() != b.min() ||
      a.max() != b.max()) {
    return "stats";
  }
  return "";
}

std::string diff_sketch(const HistogramSketch& a, const HistogramSketch& b) {
  if (!(a.config() == b.config()) || a.count() != b.count() ||
      a.zero_count() != b.zero_count() || a.sum() != b.sum() ||
      a.min() != b.min() || a.max() != b.max()) {
    return "sketch totals";
  }
  for (std::size_t i = 0; i < a.config().bucket_count; ++i) {
    if (a.bucket_count_at(i) != b.bucket_count_at(i)) {
      return "sketch bucket " + std::to_string(i);
    }
  }
  return "";
}

std::string diff_site(const SiteSnapshot& a, const SiteSnapshot& b) {
  if (a.site != b.site) return "site id";
  if (a.latest.seq != b.latest.seq ||
      a.latest.timestamp.value() != b.latest.timestamp.value() ||
      a.latest.volts != b.latest.volts ||
      a.latest.in_range != b.latest.in_range) {
    return "latest";
  }
  if (a.ingested != b.ingested || a.out_of_range != b.out_of_range ||
      a.invalid != b.invalid) {
    return "counters";
  }
  if (a.latest_epoch != b.latest_epoch) return "latest_epoch";
  if (a.windows.size() != b.windows.size()) return "window count";
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    const std::string where = "window " + std::to_string(w) + " ";
    if (a.windows[w].epoch != b.windows[w].epoch) return where + "epoch";
    std::string d = diff_stats(a.windows[w].stats, b.windows[w].stats);
    if (d.empty()) d = diff_sketch(a.windows[w].sketch, b.windows[w].sketch);
    if (!d.empty()) return where + d;
  }
  return "";
}

std::string diff_shard(const ShardSnapshot& a, const ShardSnapshot& b) {
  if (a.seq != b.seq) return "seq";
  std::string d = diff_sketch(a.voltage, b.voltage);
  if (!d.empty()) return "voltage " + d;
  d = diff_sketch(a.latency, b.latency);
  if (!d.empty()) return "latency " + d;
  d = diff_stats(a.voltage_stats, b.voltage_stats);
  if (!d.empty()) return "voltage " + d;
  d = diff_stats(a.latency_stats, b.latency_stats);
  if (!d.empty()) return "latency " + d;
  if (a.top_droop.size() != b.top_droop.size()) return "top-K size";
  for (std::size_t i = 0; i < a.top_droop.size(); ++i) {
    if (a.top_droop[i].site != b.top_droop[i].site ||
        a.top_droop[i].droop != b.top_droop[i].droop) {
      return "top-K rank " + std::to_string(i);
    }
  }
  if (a.sites.size() != b.sites.size()) return "site count";
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    d = diff_site(a.sites[i], b.sites[i]);
    if (!d.empty()) return "site slot " + std::to_string(i) + " " + d;
  }
  return "";
}

// One step of a schedule: an ingest (locked or not) or an explicit publish.
struct Op {
  enum class Kind { kIngest, kIngestLocked, kPublish, kPublishAll };
  Kind kind = Kind::kIngest;
  IngestRecord record;
  std::size_t shard = 0;
};

std::vector<Op> random_schedule(std::uint64_t seed, std::size_t length,
                                const StoreConfig& config) {
  stats::Xoshiro256 rng(seed);
  std::vector<double> clock(config.site_count, 0.0);
  const double width = config.window.width.value();
  std::vector<Op> ops;
  ops.reserve(length);
  for (std::size_t k = 0; k < length; ++k) {
    Op op;
    const double u = rng.uniform01();
    if (u < 0.02) {
      op.kind = Op::Kind::kPublish;
      op.shard = rng.uniform_index(config.shards);
      ops.push_back(op);
      continue;
    }
    if (u < 0.03) {
      op.kind = Op::Kind::kPublishAll;
      ops.push_back(op);
      continue;
    }
    op.kind = rng.uniform01() < 0.3 ? Op::Kind::kIngestLocked
                                    : Op::Kind::kIngest;
    // A few hot sites keep most sites clean between publishes.
    const std::uint32_t site = static_cast<std::uint32_t>(
        rng.uniform01() < 0.6 ? rng.uniform_index(3)
                              : rng.uniform_index(config.site_count));
    double& t = clock[site];
    const double step = rng.uniform01();
    double stamp = t;
    if (step < 0.05) {
      t += width * static_cast<double>(2 + rng.uniform_index(8));  // gap
      stamp = t;
    } else if (step < 0.10) {
      stamp = std::max(0.0, t - width * 6.0);  // older than the horizon
    } else {
      t += width * 0.3 * rng.uniform01();
      stamp = t;
    }
    op.record.site = site;
    op.record.timestamp = Picoseconds{stamp};
    op.record.volts = 1.0 - 0.2 * rng.uniform01();
    op.record.latency_us = 0.05 + rng.uniform01();
    op.record.in_range = rng.uniform01() > 0.1;
    op.record.valid = rng.uniform01() > 0.1;
    ops.push_back(op);
  }
  return ops;
}

// The snapshot shard `shard` would hold if built from scratch after
// `records`: the first publish of a fresh store has nothing to recycle.
std::shared_ptr<const ShardSnapshot> scratch_snapshot(
    const StoreConfig& config, const std::vector<IngestRecord>& records,
    std::size_t shard) {
  StoreConfig quiet = config;
  quiet.publish_every = std::numeric_limits<std::size_t>::max();
  TelemetryStore fresh{quiet};
  for (const IngestRecord& record : records) fresh.ingest(record);
  fresh.publish(shard);
  return fresh.snapshot().shards[shard];
}

void check_schedule(std::size_t shards, std::size_t publish_every,
                    std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "shards=" << shards << " publish_every="
                                    << publish_every << " seed=" << seed);
  const StoreConfig config = small_config(shards, publish_every);
  const std::size_t length = publish_every >= 1024 ? 2600 : 700;
  const std::vector<Op> ops = random_schedule(seed, length, config);

  TelemetryStore store{config};
  stats::Xoshiro256 reader_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::deque<StoreView> pinned;
  std::vector<IngestRecord> prefix;
  std::uint64_t checked = 0;

  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Op& op = ops[k];
    const std::uint64_t before = store.publishes();
    std::vector<std::size_t> published;
    switch (op.kind) {
      case Op::Kind::kIngest:
      case Op::Kind::kIngestLocked:
        if (op.kind == Op::Kind::kIngest) {
          store.ingest(op.record);
        } else {
          store.ingest_locked(op.record);
        }
        prefix.push_back(op.record);
        if (store.publishes() != before) {
          published.push_back(store.shard_of(op.record.site));
        }
        break;
      case Op::Kind::kPublish:
        store.publish(op.shard);
        published.push_back(op.shard);
        break;
      case Op::Kind::kPublishAll:
        store.publish_all();
        for (std::size_t s = 0; s < store.config().shards; ++s) {
          published.push_back(s);
        }
        break;
    }
    if (published.empty()) continue;

    StoreView view = store.snapshot();
    for (const std::size_t s : published) {
      ASSERT_NE(view.shards[s], nullptr);
      const auto reference = scratch_snapshot(config, prefix, s);
      ASSERT_EQ(diff_shard(*view.shards[s], *reference), "")
          << "op " << k << " shard " << s;
      ++checked;
    }
    // The reader keeps 0–3 views pinned across publishes.
    pinned.push_back(std::move(view));
    const std::size_t keep = reader_rng.uniform_index(4);
    while (pinned.size() > keep) pinned.pop_front();
  }
  EXPECT_GT(checked, 0u);
}

TEST(ServePublish, IncrementalSnapshotsEqualScratchBuilds) {
  for (const std::size_t shards : {1u, 2u, 8u}) {
    for (const std::size_t publish_every : {1u, 16u, 1024u}) {
      for (const std::uint64_t seed : {11u, 12u}) {
        check_schedule(shards, publish_every, seed);
      }
    }
  }
}

// Steady state with no reader holding on: the shard ping-pongs between two
// snapshot buffers instead of allocating a new one per publish.
TEST(ServePublish, ReleasedSnapshotsAreReused) {
  TelemetryStore store{small_config(1, 1024)};
  IngestRecord rec;
  rec.volts = 0.9;
  const auto publish_and_address = [&store, &rec](std::uint32_t site) {
    rec.site = site;
    store.ingest(rec);
    store.publish(0);
    return store.snapshot().shards[0].get();
  };
  const ShardSnapshot* a = publish_and_address(0);
  const ShardSnapshot* b = publish_and_address(1);
  EXPECT_NE(a, b);
  EXPECT_EQ(publish_and_address(2), a);
  EXPECT_EQ(publish_and_address(3), b);
  EXPECT_EQ(publish_and_address(4), a);
}

// A pinned snapshot is never handed back for reuse, and is left intact.
TEST(ServePublish, PinnedSnapshotIsNeverReused) {
  TelemetryStore store{small_config(1, 1024)};
  IngestRecord rec;
  rec.volts = 0.9;
  store.ingest(rec);
  store.publish(0);
  const StoreView pinned = store.snapshot();
  const ShardSnapshot* held = pinned.shards[0].get();
  for (int i = 0; i < 16; ++i) {
    rec.volts = 0.8;
    store.ingest(rec);
    store.publish(0);
    EXPECT_NE(store.snapshot().shards[0].get(), held);
  }
  EXPECT_EQ(held->seq, 1u);
  EXPECT_DOUBLE_EQ(held->sites[0].latest.volts, 0.9);
}

// Snapshots may outlive their store; releasing them afterwards frees them
// (ASan/LSan in the sanitizer matrix catch a use-after-free or a leak).
TEST(ServePublish, SnapshotOutlivesStore) {
  StoreView view;
  {
    TelemetryStore store{small_config(2, 4)};
    IngestRecord rec;
    for (std::uint32_t k = 0; k < 40; ++k) {
      rec.site = k % 12;
      rec.volts = 0.95;
      store.ingest(rec);
    }
    store.publish_all();
    view = store.snapshot();
  }
  ASSERT_NE(view.shards[0], nullptr);
  EXPECT_EQ(view.shards[0]->seq + view.shards[1]->seq, 40u);
  view.shards.clear();
}

TEST(ServePublish, PublishRejectsShardOutOfRange) {
  TelemetryStore store{small_config(2, 16)};
  EXPECT_NO_THROW(store.publish(1));
  EXPECT_THROW(store.publish(2), std::logic_error);
}

}  // namespace
}  // namespace psnt::serve
