// Bench-side buffers and the dashboard client. Everything here is fixed-size
// after construction, so the workload's peak RSS measures the program, not
// the harness.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "pipeline.h"
#include "util/error.h"

namespace psnt::bench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// --- Reservoir --------------------------------------------------------------

Reservoir::Reservoir(std::size_t capacity) : capacity_(capacity) {
  values_.reserve(capacity_);
}

void Reservoir::add(double v) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(v);
    return;
  }
  // xorshift64: deterministic replacement, Algorithm R.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t j = rng_ % seen_;
  if (j < capacity_) values_[j] = v;
}

// --- StampTable -------------------------------------------------------------

StampTable::StampTable(std::size_t sites)
    : sites_(sites), slots_(std::make_unique<Slot[]>(sites * kSlotsPerSite)) {}

StampTable::Slot& StampTable::slot(std::uint32_t site,
                                   std::uint64_t sample) const {
  PSNT_CHECK(site < sites_, "stamp site out of range");
  return slots_[site * kSlotsPerSite + (sample / kStampEvery) % kSlotsPerSite];
}

// Seqlock per slot: the tag is cleared while the time is rewritten, so a
// reader racing a ring wrap discards the slot instead of pairing a sample
// with another sample's time.
void StampTable::stamp(std::uint32_t site, std::uint64_t sample) {
  Slot& s = slot(site, sample);
  const std::uint64_t tag = sample + 1;
  if (s.tag.load(std::memory_order_relaxed) == tag) return;  // not the first read
  s.tag.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.ns.store(now_ns(), std::memory_order_relaxed);
  s.tag.store(tag, std::memory_order_release);
}

std::optional<std::int64_t> StampTable::lookup(std::uint32_t site,
                                               std::uint64_t sample) const {
  const Slot& s = slot(site, sample);
  const std::uint64_t tag = sample + 1;
  if (s.tag.load(std::memory_order_acquire) != tag) return std::nullopt;
  const std::int64_t ns = s.ns.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.tag.load(std::memory_order_relaxed) != tag) return std::nullopt;
  return ns;
}

namespace {

// The sample index is floor(t / interval): behavioral engines read the rail
// at the launch instant, a few control cycles after the sample's start.
class StampingRail final : public analog::RailSource {
 public:
  StampingRail(std::unique_ptr<analog::RailSource> inner, StampTable& table,
               std::uint32_t site)
      : inner_(std::move(inner)), table_(table), site_(site) {}

  [[nodiscard]] Volt at(Picoseconds t) const override {
    const auto sample = static_cast<std::uint64_t>(t.value() * kInvInterval);
    if (sample % kStampEvery == 0) table_.stamp(site_, sample);
    return inner_->at(t);
  }

 private:
  static constexpr double kInvInterval = 1.0 / kIntervalPs;
  std::unique_ptr<analog::RailSource> inner_;
  StampTable& table_;
  std::uint32_t site_;
};

}  // namespace

grid::RailFactory stamping_rails(grid::RailFactory inner, StampTable& table) {
  return [inner = std::move(inner), &table](
             const scan::SensorSite& site,
             stats::Xoshiro256& rng) -> std::unique_ptr<analog::RailSource> {
    return std::make_unique<StampingRail>(inner(site, rng), table, site.id);
  };
}

// --- DashboardClient --------------------------------------------------------

namespace {
constexpr std::size_t kReservoirCapacity = std::size_t{1} << 17;
}  // namespace

DashboardClient::DashboardClient(const serve::TelemetryStore& store,
                                 std::size_t sites, const StampTable* stamps)
    : store_(store),
      sites_(sites),
      stamps_(stamps),
      query_us_(kReservoirCapacity),
      new_data_query_us_(kReservoirCapacity),
      fresh_ms_(kReservoirCapacity),
      next_stamp_(sites, 0),
      progress_(kProgressRecords),
      thread_([this] { loop(); }) {}

DashboardClient::~DashboardClient() { stop(); }

void DashboardClient::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

double DashboardClient::cpu_seconds() const {
  clockid_t cid{};
  timespec ts{};
  if (!thread_.joinable() ||
      pthread_getcpuclockid(const_cast<std::thread&>(thread_).native_handle(),
                            &cid) != 0 ||
      clock_gettime(cid, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double dashboard_query(serve::QueryEngine& query, std::uint32_t site) {
  query.refresh();
  double v = query.voltage_quantile(0.5) + query.voltage_quantile(0.99);
  v += static_cast<double>(query.top_droop(8).size());
  if (const auto w = query.windowed(site, 4)) v += w->stats.mean();
  return v;
}

void DashboardClient::loop() {
  serve::QueryEngine query(store_);
  std::uint32_t site = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t seq_before = query.published_seq();
    const std::int64_t t0 = now_ns();
    try {
      sink_ += dashboard_query(query, site);
    } catch (...) {
      ++failed_;
    }
    const std::int64_t t1 = now_ns();
    ++queries_;
    const double us = static_cast<double>(t1 - t0) * 1e-3;
    query_us_.add(us);
    if (query.published_seq() != seq_before) new_data_query_us_.add(us);
    site = static_cast<std::uint32_t>((site + 1) % sites_);
    if (stamps_ != nullptr) {
      resolve_stamps(query, t1);
    } else {
      resolve_progress(query, t1);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// A stamped sample is seen by the first query whose latest(site) has reached
// it; lost samples (chaos) were never read, so they have no stamp.
void DashboardClient::resolve_stamps(const serve::QueryEngine& query,
                                     std::int64_t seen_ns) {
  for (std::uint32_t s = 0; s < sites_; ++s) {
    const auto latest = query.latest(s);
    if (!latest) continue;
    const auto newest =
        static_cast<std::uint64_t>(latest->timestamp.value() / kIntervalPs);
    std::uint64_t& next = next_stamp_[s];
    for (; next <= newest; next += kStampEvery) {
      if (const auto ns = stamps_->lookup(s, next)) {
        fresh_ms_.add(static_cast<double>(seen_ns - *ns) * 1e-6);
      } else {
        ++missed_;
      }
    }
  }
}

// Without capture stamps, freshness is ingest → visible, tracked for every
// kStampEvery-th ingest ordinal: its ingest time lies between the last
// progress record below the ordinal and the first at or above it (the
// midpoint is used), and it is seen by the first query whose snapshot covers
// it.
void DashboardClient::resolve_progress(const serve::QueryEngine& query,
                                       std::int64_t seen_ns) {
  progress_[progress_count_ % kProgressRecords] =
      Progress{seen_ns, store_.total_ingested()};
  ++progress_count_;
  const std::uint64_t published = query.published_seq();
  const std::uint64_t oldest = progress_count_ > kProgressRecords
                                   ? progress_count_ - kProgressRecords
                                   : 0;
  cursor_ = std::max(cursor_, oldest);
  for (; next_ordinal_ <= published; next_ordinal_ += kStampEvery) {
    // Terminates: the newest record counts every published ingest.
    while (progress_[cursor_ % kProgressRecords].ingested < next_ordinal_) {
      ++cursor_;
    }
    if (cursor_ == oldest) {
      ++missed_;
      continue;
    }
    const std::int64_t reached = progress_[cursor_ % kProgressRecords].ns;
    const std::int64_t below = progress_[(cursor_ - 1) % kProgressRecords].ns;
    fresh_ms_.add(static_cast<double>(seen_ns - (reached + below) / 2) * 1e-6);
  }
}

}  // namespace psnt::bench
