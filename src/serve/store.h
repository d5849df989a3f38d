// Always-on telemetry serving layer: a fixed-memory, queryable in-memory
// time-series store over the scan-grid's streaming drain (DESIGN.md §13).
//
// The pipeline so far ends with the aggregator drain decoding raw
// thermometer words; before this layer the only consumers were a result
// matrix and a CSV dump. TelemetryStore closes the serving loop: the drain
// ingests every published sample and queries answer *while ingest runs* —
// latest per-site readings, windowed rollups, global voltage/latency
// quantiles, the top-K worst-droop sites, and the resilience degradation
// status.
//
// Memory model — fixed at construction, flat forever:
//   * per site: one WindowRing (ring of `windows` OnlineStats+sketch
//     buckets) + a latest-reading record + counters;
//   * per shard: global voltage/latency HistogramSketches, OnlineStats,
//     and a TopKDroop tracker over the shard's sites;
//   * nothing grows with run length — hours of ingest hold the same RSS as
//     seconds (tests/test_alloc.cpp pins zero ingest allocations).
//
// Concurrency model — sharded single-writer ingest, snapshot reads:
//   * Sites are partitioned round-robin (site % shards), matching the
//     grid's own sharding. ingest() for a site may only be called by the
//     thread that owns its shard; the ingest hot path touches exclusively
//     shard-local state plus one relaxed atomic mirror of the ingest count,
//     so shards never contend.
//   * Every `publish_every` ingests (and on publish()/publish_all()) a
//     shard publishes an immutable ShardSnapshot of its state and swaps it
//     into the shard's snapshot slot. The slot is a shared_ptr guarded by
//     a per-shard mutex held only for the pointer swap/copy — never while
//     building a snapshot, releasing the displaced one, or answering a
//     query — so readers (QueryEngine) never observe a torn state, can keep
//     a snapshot alive as long as they like while the writer keeps
//     publishing, and the ingest hot path touches the mutex only at publish
//     boundaries. (A std::atomic<shared_ptr> slot would avoid even that,
//     but libstdc++'s implementation unlocks its reader-side spinlock with
//     a relaxed RMW, which TSan rightly reports — the mutex is the
//     portable, provably clean spelling.) The grid's drain is the sole
//     writer in the scan-grid deployment (shards = 1); the soak bench
//     drives one writer thread per shard.
//   * Publication is incremental and allocation-free in steady state. Each
//     shard counts its publishes (its generation) and ingest() stamps the
//     site it touches with that count. A published snapshot's deleter
//     hands it back to its shard when the last reader releases it; the
//     shard keeps at most two such idle snapshots (so RSS cannot grow, and
//     a reader that holds a snapshot across two publishes still hands back
//     a reusable buffer), and frees instead once the store is gone.
//     publish() refreshes the newest idle snapshot in place — shard-level
//     sketches, stats and top-K always, a site only if its stamp is newer
//     than the snapshot's own build generation — and builds from scratch
//     only when none is idle. Sketches track their occupied bucket span,
//     so a refresh copies the buckets in use, not the whole sketch. The
//     release is detected by the deleter, never by polling use_count():
//     that is a relaxed load, which orders nothing against the readers'
//     last accesses, so a writer reusing the buffers on its say-so races
//     them (TSan reports it).
//   * Degradation status is a bank of relaxed atomics any thread may
//     set/read (the drain mirrors the grid.fault.* telemetry counters into
//     it each sweep).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/histogram_sketch.h"
#include "serve/rollup_window.h"
#include "serve/topk.h"
#include "stats/online_stats.h"
#include "util/units.h"

namespace psnt::serve {

// Global (per-shard, merged at query time) distribution sketches: decoded
// volts over ~0.5–2.4 V and per-measure latency in µs over ~10 ns–1.3 s.
inline constexpr SketchConfig kVoltageSketch{0.005, 0.5, 160};
inline constexpr SketchConfig kLatencySketch{0.025, 0.01, 288};

struct StoreConfig {
  // Number of monitored sites; per-site state is allocated up front.
  std::size_t site_count = 1;
  // Concurrent ingest lanes; site s belongs to shard s % shards.
  std::size_t shards = 1;
  // Droop reference: droop = v_nominal − measured volts.
  double v_nominal = 1.0;
  // Per-site windowed rollups (width, ring depth, per-window sketch).
  WindowConfig window{Picoseconds{50000.0}, 8,
                      SketchConfig{0.005, 0.5, 160}};
  // Worst-droop leaderboard size.
  std::size_t top_k = 8;
  // Ingests per shard between automatic snapshot publications.
  std::size_t publish_every = 1024;
};

// One sample handed to the store by the drain.
struct IngestRecord {
  std::uint32_t site = 0;
  Picoseconds timestamp{0.0};  // sample (simulation) time
  double volts = 0.0;          // decoded estimate (bin midpoint / edge)
  double latency_us = 0.0;     // producer-side measure wall time
  bool in_range = true;        // decoded bin was closed (not saturated)
  bool valid = true;           // false: sample lost to a fault, no volts
};

// Mirror of the grid's resilience telemetry (grid.fault.*, grid.retries,
// ...), refreshed by the drain; all-zero when chaos is off.
struct DegradationStatus {
  std::uint64_t faults_injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t samples_recovered = 0;
  std::uint64_t samples_lost = 0;
  std::uint64_t sites_quarantined = 0;
};

// Latest accepted reading of one site.
struct SiteLatest {
  std::uint64_t seq = 0;  // 1-based ingest ordinal within the site
  Picoseconds timestamp{0.0};
  double volts = 0.0;
  bool in_range = false;
};

// Immutable per-site view inside a ShardSnapshot.
struct SiteSnapshot {
  std::uint32_t site = 0;
  SiteLatest latest;
  std::uint64_t ingested = 0;
  std::uint64_t out_of_range = 0;
  std::uint64_t invalid = 0;
  std::uint64_t latest_epoch = WindowSlot::kNoEpoch;
  std::vector<WindowSlot> windows;  // ring order (epoch % windows)
};

// Immutable copy of one shard's state, published by its writer.
struct ShardSnapshot {
  std::uint64_t seq = 0;  // shard ingests at publish time
  HistogramSketch voltage;
  HistogramSketch latency;
  stats::OnlineStats voltage_stats;
  stats::OnlineStats latency_stats;
  std::vector<TopKDroop::Entry> top_droop;
  std::vector<SiteSnapshot> sites;
};

// A reader's consistent grab of the whole store: one immutable snapshot per
// shard (null until that shard first publishes) + the degradation mirror.
struct StoreView {
  std::vector<std::shared_ptr<const ShardSnapshot>> shards;
  DegradationStatus degradation;
  std::uint64_t ingested = 0;  // live total at grab time (may lead shards)
};

class TelemetryStore {
 public:
  explicit TelemetryStore(const StoreConfig& config);
  ~TelemetryStore();

  TelemetryStore(const TelemetryStore&) = delete;
  TelemetryStore& operator=(const TelemetryStore&) = delete;

  [[nodiscard]] const StoreConfig& config() const { return config_; }
  [[nodiscard]] std::size_t shard_of(std::uint32_t site) const {
    return site % config_.shards;
  }

  // Single writer per shard: the caller must guarantee only one thread
  // ingests sites of a given shard (the grid's drain thread; one soak
  // thread per shard). O(1), allocation-free, auto-publishes every
  // `publish_every` ingests.
  void ingest(const IngestRecord& record);

  // Thread-safe ingest for writers that cannot honor the single-writer-per-
  // shard contract — the fleet's aggregator threads, whose thread↔connection
  // mapping is independent of the store's site↔shard mapping. Same effect as
  // ingest() under a per-shard mutex; zero cost to the lock-free ingest()
  // path (per deployment a shard is driven through exactly one of the two
  // entry points).
  void ingest_locked(const IngestRecord& record);

  // Snapshot publication. publish(shard) must be called by that shard's
  // writer; publish_all() by a single thread after writers quiesce (the
  // grid calls it once the drain completes). Throws std::logic_error on a
  // shard index out of range.
  void publish(std::size_t shard);
  void publish_all();

  // Reader side, any thread, never blocks ingest.
  [[nodiscard]] StoreView snapshot() const;

  // Degradation mirror: any thread.
  void set_degradation(const DegradationStatus& status);
  [[nodiscard]] DegradationStatus degradation() const;

  // Live counters (relaxed atomics, any thread).
  [[nodiscard]] std::uint64_t total_ingested() const;
  [[nodiscard]] std::uint64_t publishes() const;

 private:
  struct Shard;
  // Where a site lives, precomputed so ingest divides by nothing.
  struct SiteRoute {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;  // within the shard's site list
  };

  StoreConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<SiteRoute> routes_;  // indexed by site

  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> deg_faults_{0};
  std::atomic<std::uint64_t> deg_retries_{0};
  std::atomic<std::uint64_t> deg_recovered_{0};
  std::atomic<std::uint64_t> deg_lost_{0};
  std::atomic<std::uint64_t> deg_quarantined_{0};
};

}  // namespace psnt::serve
