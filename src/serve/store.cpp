#include "serve/store.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <utility>

#include "core/measurement.h"
#include "util/cache_line.h"
#include "util/error.h"

namespace psnt::serve {

namespace {

// Hands released snapshots back to the shard that published them. Owned
// jointly by the shard and by every snapshot it published (through the
// snapshot's deleter and control-block allocator), so it lives until the
// last of them is gone. Its pool keeps at most two idle snapshots and two
// idle control blocks: a reader that holds a snapshot across two publishes
// hands it back while the previous one still waits for reuse, and both stay
// buffers the writer refreshes in place. The memory held for reuse is
// bounded by two snapshots no matter how many readers release at once.
// Once the shard is gone (close()), whatever comes back is freed instead.
class SnapshotRecycler {
 public:
  SnapshotRecycler() = default;
  SnapshotRecycler(const SnapshotRecycler&) = delete;
  SnapshotRecycler& operator=(const SnapshotRecycler&) = delete;
  ~SnapshotRecycler() {
    for (Idle& idle : pool_) ::operator delete(idle.block);
  }

  // The idle snapshot built at the newest generation (the one with the
  // fewest sites to refresh), null if none, and that generation.
  std::unique_ptr<ShardSnapshot> take(std::uint64_t& generation) {
    const std::lock_guard<std::mutex> guard(mutex_);
    Idle* newest = nullptr;
    for (Idle& idle : pool_) {
      if (idle.snap != nullptr &&
          (newest == nullptr || idle.generation > newest->generation)) {
        newest = &idle;
      }
    }
    if (newest == nullptr) return nullptr;
    generation = newest->generation;
    return std::move(newest->snap);
  }

  // Runs on whichever thread drops the last reference to `snap`. The
  // snapshot is freed, if at all, after the lock is released.
  void give_back(ShardSnapshot* snap, std::uint64_t generation) {
    std::unique_ptr<ShardSnapshot> owned(snap);
    const std::lock_guard<std::mutex> guard(mutex_);
    if (closed_) return;
    for (Idle& idle : pool_) {
      if (idle.snap == nullptr) {
        idle.snap = std::move(owned);
        idle.generation = generation;
        return;
      }
    }
  }

  void* allocate(std::size_t bytes) {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      for (Idle& idle : pool_) {
        if (idle.block != nullptr && idle.block_bytes == bytes) {
          return std::exchange(idle.block, nullptr);
        }
      }
    }
    return ::operator new(bytes);
  }

  void deallocate(void* block, std::size_t bytes) {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      if (!closed_) {
        for (Idle& idle : pool_) {
          if (idle.block == nullptr) {
            idle.block = block;
            idle.block_bytes = bytes;
            return;
          }
        }
      }
    }
    ::operator delete(block);
  }

  // The shard is being destroyed: free what is idle now, and everything
  // handed back from here on.
  void close() {
    std::unique_ptr<ShardSnapshot> snaps[kPoolSize];
    void* blocks[kPoolSize] = {};
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      closed_ = true;
      for (std::size_t i = 0; i < kPoolSize; ++i) {
        snaps[i] = std::move(pool_[i].snap);
        blocks[i] = std::exchange(pool_[i].block, nullptr);
      }
    }
    for (void* block : blocks) ::operator delete(block);
  }

 private:
  static constexpr std::size_t kPoolSize = 2;

  // A snapshot and a control block wait independently: the deleter hands
  // back the snapshot before the control block is deallocated.
  struct Idle {
    std::unique_ptr<ShardSnapshot> snap;
    std::uint64_t generation = 0;
    void* block = nullptr;
    std::size_t block_bytes = 0;
  };

  std::mutex mutex_;
  bool closed_ = false;
  Idle pool_[kPoolSize];
};

// Deleter of a published snapshot: recycles instead of deleting. The
// recycler, not a use_count() poll, learns that readers are done: the last
// holder's reference drop is an acq_rel RMW, so every reader's accesses
// happen-before the deleter, and the recycler's mutex carries that edge on
// to the writer that reuses the buffers.
struct RecycleDeleter {
  std::shared_ptr<SnapshotRecycler> recycler;
  std::uint64_t generation = 0;

  void operator()(ShardSnapshot* snap) const {
    recycler->give_back(snap, generation);
  }
};

// Control-block allocator of a published snapshot: the block is recycled
// alongside the snapshot, so a steady-state publish allocates nothing.
template <class T>
struct RecyclingAllocator {
  using value_type = T;

  explicit RecyclingAllocator(std::shared_ptr<SnapshotRecycler> r)
      : recycler(std::move(r)) {}
  template <class U>
  RecyclingAllocator(const RecyclingAllocator<U>& other)  // NOLINT: rebind
      : recycler(other.recycler) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    return static_cast<T*>(recycler->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    recycler->deallocate(p, n * sizeof(T));
  }
  template <class U>
  bool operator==(const RecyclingAllocator<U>& other) const {
    return recycler == other.recycler;
  }

  std::shared_ptr<SnapshotRecycler> recycler;
};
}  // namespace

// Writer-exclusive state of one ingest lane plus its published snapshot.
// Heap-allocated and cache-line aligned so lanes never false-share.
struct alignas(util::kCacheLine) TelemetryStore::Shard {
  // --- writer-only (the shard's single ingest thread) -------------------
  struct SiteState {
    SiteLatest latest;
    std::uint64_t ingested = 0;
    std::uint64_t out_of_range = 0;
    std::uint64_t invalid = 0;
    // Shard publish count at this site's last ingest: a snapshot built at
    // generation g holds this site up to date iff stamp <= g.
    std::uint64_t stamp = 0;
    WindowRing windows;

    explicit SiteState(const WindowConfig& config) : windows(config) {}
  };

  std::vector<std::uint32_t> site_ids;  // global ids, ascending
  std::vector<SiteState> sites;         // parallel to site_ids
  HistogramSketch voltage;
  HistogramSketch latency;
  stats::OnlineStats voltage_stats;
  stats::OnlineStats latency_stats;
  TopKDroop top_droop;
  std::uint64_t ingested = 0;
  std::size_t until_publish = 0;
  // Publishes of this shard so far: the generation ingest() stamps and the
  // next snapshot is built at.
  std::uint64_t generation = 0;

  // --- shared ----------------------------------------------------------
  // Live mirror of `ingested` (relaxed store per ingest, read anywhere).
  std::atomic<std::uint64_t> ingested_mirror{0};
  // Snapshot slot: the writer swaps in immutable snapshots, readers copy
  // the pointer. The mutex guards only that assignment/copy.
  mutable std::mutex snap_mutex;
  std::shared_ptr<const ShardSnapshot> published;
  // Where released snapshots come back to (see SnapshotRecycler).
  std::shared_ptr<SnapshotRecycler> recycler =
      std::make_shared<SnapshotRecycler>();
  // Serializes ingest_locked() callers; untouched by the lock-free ingest()
  // contract (one entry point per shard per deployment).
  std::mutex ingest_mutex;

  Shard(const StoreConfig& config, std::size_t shard_index)
      : voltage(kVoltageSketch),
        latency(kLatencySketch),
        top_droop(config.site_count, config.top_k),
        until_publish(config.publish_every) {
    for (std::uint32_t site = static_cast<std::uint32_t>(shard_index);
         site < config.site_count;
         site += static_cast<std::uint32_t>(config.shards)) {
      site_ids.push_back(site);
      sites.emplace_back(config.window);
    }
  }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  ~Shard() { recycler->close(); }
};

TelemetryStore::TelemetryStore(const StoreConfig& config) : config_(config) {
  PSNT_CHECK(config_.site_count > 0, "store needs at least one site");
  PSNT_CHECK(config_.shards > 0, "store needs at least one shard");
  PSNT_CHECK(config_.top_k > 0, "store needs top_k >= 1");
  config_.shards = std::min(config_.shards, config_.site_count);
  if (config_.publish_every == 0) config_.publish_every = 1;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_, s));
  }
  // Round-robin partition: the shard's k-th site is shard + k·shards.
  routes_.reserve(config_.site_count);
  for (std::size_t site = 0; site < config_.site_count; ++site) {
    routes_.push_back(
        SiteRoute{static_cast<std::uint32_t>(site % config_.shards),
                  static_cast<std::uint32_t>(site / config_.shards)});
  }
}

TelemetryStore::~TelemetryStore() = default;

void TelemetryStore::ingest(const IngestRecord& record) {
  PSNT_CHECK(record.site < config_.site_count, "ingest site out of range");
  const SiteRoute route = routes_[record.site];
  Shard& shard = *shards_[route.shard];
  Shard::SiteState& site = shard.sites[route.index];

  ++shard.ingested;
  ++site.ingested;
  site.stamp = shard.generation;
  if (!record.valid) {
    ++site.invalid;
  } else {
    site.latest.seq = site.ingested;
    site.latest.timestamp = record.timestamp;
    site.latest.volts = record.volts;
    site.latest.in_range = record.in_range;
    if (!record.in_range) ++site.out_of_range;
    site.windows.add(record.timestamp, record.volts);
    shard.voltage.add(record.volts);
    shard.voltage_stats.add(record.volts);
    shard.top_droop.update(record.site,
                            core::kNominalSupply.value() - record.volts);
  }
  shard.latency.add(record.latency_us);
  shard.latency_stats.add(record.latency_us);
  shard.ingested_mirror.store(shard.ingested, std::memory_order_relaxed);

  if (--shard.until_publish == 0) {
    shard.until_publish = config_.publish_every;
    publish(route.shard);
  }
}

void TelemetryStore::ingest_locked(std::span<const IngestRecord> records) {
  std::size_t begin = 0;
  while (begin < records.size()) {
    const std::size_t shard_index = shard_of(records[begin].site);
    std::size_t end = begin + 1;
    while (end < records.size() &&
           shard_of(records[end].site) == shard_index) {
      ++end;
    }
    // shard_of() takes any site; ingest() range-checks each one.
    const std::lock_guard<std::mutex> guard(shards_[shard_index]->ingest_mutex);
    for (std::size_t i = begin; i < end; ++i) ingest(records[i]);
    begin = end;
  }
}

void TelemetryStore::publish(std::size_t shard_index) {
  PSNT_CHECK(shard_index < shards_.size(), "publish shard out of range");
  Shard& shard = *shards_[shard_index];
  const std::uint64_t generation = shard.generation++;

  // Refresh the idle snapshot in place when one came back: the shard-level
  // summaries are always re-copied (a few KB), a site only if it ingested
  // since that snapshot was built. Copy-assignment into same-sized buffers
  // allocates nothing. Without an idle snapshot, build one from scratch.
  std::uint64_t built = 0;
  std::unique_ptr<ShardSnapshot> snap = shard.recycler->take(built);
  const bool fresh = snap == nullptr;
  if (fresh) {
    snap = std::make_unique<ShardSnapshot>();
    snap->sites.resize(shard.sites.size());
  }
  snap->seq = shard.ingested;
  snap->voltage = shard.voltage;
  snap->latency = shard.latency;
  snap->voltage_stats = shard.voltage_stats;
  snap->latency_stats = shard.latency_stats;
  shard.top_droop.top_into(snap->top_droop);
  for (std::size_t i = 0; i < shard.sites.size(); ++i) {
    const Shard::SiteState& s = shard.sites[i];
    if (!fresh && s.stamp <= built) continue;
    SiteSnapshot& site = snap->sites[i];
    site.site = shard.site_ids[i];
    site.latest = s.latest;
    site.ingested = s.ingested;
    site.out_of_range = s.out_of_range;
    site.invalid = s.invalid;
    site.latest_epoch = s.windows.latest_epoch();
    site.windows = s.windows.slots();
  }

  std::shared_ptr<const ShardSnapshot> next(
      snap.release(), RecycleDeleter{shard.recycler, generation},
      RecyclingAllocator<ShardSnapshot>{shard.recycler});
  std::shared_ptr<const ShardSnapshot> displaced;
  {
    const std::lock_guard<std::mutex> guard(shard.snap_mutex);
    displaced = std::exchange(shard.published, std::move(next));
  }
  // Outside the slot lock, so readers' snapshot() never waits on it: if no
  // reader holds the displaced snapshot, this recycles it.
  displaced.reset();
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryStore::publish_all() {
  for (std::size_t s = 0; s < shards_.size(); ++s) publish(s);
}

StoreView TelemetryStore::snapshot() const {
  StoreView view;
  view.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> guard(shard->snap_mutex);
      view.shards.push_back(shard->published);
    }
    view.ingested += shard->ingested_mirror.load(std::memory_order_relaxed);
  }
  view.degradation = degradation();
  return view;
}

void TelemetryStore::set_degradation(const DegradationStatus& status) {
  deg_faults_.store(status.faults_injected, std::memory_order_relaxed);
  deg_retries_.store(status.retries, std::memory_order_relaxed);
  deg_recovered_.store(status.samples_recovered, std::memory_order_relaxed);
  deg_lost_.store(status.samples_lost, std::memory_order_relaxed);
  deg_quarantined_.store(status.sites_quarantined, std::memory_order_relaxed);
}

DegradationStatus TelemetryStore::degradation() const {
  DegradationStatus status;
  status.faults_injected = deg_faults_.load(std::memory_order_relaxed);
  status.retries = deg_retries_.load(std::memory_order_relaxed);
  status.samples_recovered = deg_recovered_.load(std::memory_order_relaxed);
  status.samples_lost = deg_lost_.load(std::memory_order_relaxed);
  status.sites_quarantined = deg_quarantined_.load(std::memory_order_relaxed);
  return status;
}

std::uint64_t TelemetryStore::total_ingested() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ingested_mirror.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TelemetryStore::publishes() const {
  return publishes_.load(std::memory_order_relaxed);
}

}  // namespace psnt::serve
