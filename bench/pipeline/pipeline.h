// bench_pipeline: one rail-to-query benchmark over the whole PSN pipeline.
//
// A workload process drives the real entry points (grid::ScanGrid::run,
// fleet::FleetCoordinator::run) in closed-loop scan rounds for a fixed wall
// window, with a serve::TelemetryStore attached and a dashboard client thread
// querying it alongside. The traced mode adds a single-threaded replay of one
// round that times each layer's public calls per batch or span. See README.md
// for the metric dictionary and why each workload exists.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analog/rail.h"
#include "fleet/fleet.h"
#include "grid/scan_grid.h"
#include "scan/floorplan.h"
#include "serve/query.h"
#include "serve/store.h"

namespace psnt::bench {

// Every workload samples its sites on this schedule.
inline constexpr double kIntervalPs = 10000.0;

[[nodiscard]] std::int64_t now_ns();

// Metric name → value, as the workload measured it.
using Metrics = std::map<std::string, double>;

// --- inputs -----------------------------------------------------------------

// Everything --seed feeds; the program under test only sees what these make.
struct SeedInputs {
  explicit SeedInputs(std::uint64_t seed);
  std::uint64_t grid_seed = 0;
  std::uint64_t injector_seed = 0;
  std::uint64_t fleet_seed = 0;
  double rail_offset_volts = 0.0;  // shifts every grid rail, within ±5 mV
};

// A grid workload: floorplan, round-0 configuration (no store attached; the
// window sets start and store per round) and the unstamped rail factory.
struct GridWorkload {
  scan::Floorplan floorplan{1.0, 1.0};
  grid::ScanGridConfig config;
  grid::RailFactory rails;
  // Thread count of the determinism rerun (differs from config.threads).
  std::size_t check_threads = 1;
  // Capture stamps come from the rails: true for behavioral engines, which
  // read the rail at the sample's launch instant. The structural simulator
  // reads rails on its own clock, so its freshness comes from ingest progress.
  bool stamped = true;
};

[[nodiscard]] bool is_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] GridWorkload make_grid_workload(const std::string& name,
                                              const SeedInputs& inputs);
[[nodiscard]] fleet::FleetConfig make_fleet_config(const SeedInputs& inputs);
[[nodiscard]] serve::StoreConfig store_config(std::size_t sites);

// --- bench-side buffers (fixed size) ----------------------------------------

// Linear interpolation between order statistics; NaN when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// Uniform fixed-capacity sample of a value stream (reservoir sampling with a
// deterministic generator), so quantiles come from real observations.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity);
  void add(double v);
  [[nodiscard]] std::uint64_t count() const { return seen_; }
  [[nodiscard]] double quantile(double q) const {
    return bench::quantile(values_, q);
  }

 private:
  std::vector<double> values_;
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

// Capture stamps: steady_clock at the first rail read of every kStampEvery-th
// sample of each site, in a per-site ring the dashboard client reads back.
inline constexpr std::uint64_t kStampEvery = 64;

class StampTable {
 public:
  explicit StampTable(std::size_t sites);
  // Writer: the thread capturing `site` (one at a time per site).
  void stamp(std::uint32_t site, std::uint64_t sample);
  // Reader: any thread; nullopt when the slot holds another sample.
  [[nodiscard]] std::optional<std::int64_t> lookup(std::uint32_t site,
                                                   std::uint64_t sample) const;
  [[nodiscard]] std::size_t sites() const { return sites_; }

 private:
  static constexpr std::size_t kSlotsPerSite = 1024;
  struct Slot {
    std::atomic<std::uint64_t> tag{0};  // sample + 1; 0 while being written
    std::atomic<std::int64_t> ns{0};
  };
  [[nodiscard]] Slot& slot(std::uint32_t site, std::uint64_t sample) const;

  std::size_t sites_;
  std::unique_ptr<Slot[]> slots_;
};

// Wraps a rail factory so every site rail stamps into `table`.
[[nodiscard]] grid::RailFactory stamping_rails(grid::RailFactory inner,
                                               StampTable& table);

// --- dashboard client -------------------------------------------------------

// One dashboard query against a fresh snapshot: refresh(),
// voltage_quantile(0.5), voltage_quantile(0.99), top_droop(8) and
// windowed(site, 4). Returns a value derived from the answers.
double dashboard_query(serve::QueryEngine& query, std::uint32_t site);

// One closed-loop query thread with a 100 µs think time. Each query is
// refresh(), voltage_quantile(0.5), voltage_quantile(0.99), top_droop(8) and
// windowed(site, 4) over a rotating site. After each query it resolves
// freshness: from capture stamps when `stamps` is set, else from ingest
// progress (the store's live ingest count, polled once per query).
class DashboardClient {
 public:
  DashboardClient(const serve::TelemetryStore& store, std::size_t sites,
                  const StampTable* stamps);
  ~DashboardClient();
  DashboardClient(const DashboardClient&) = delete;
  DashboardClient& operator=(const DashboardClient&) = delete;

  void stop();
  // CPU time the client thread has used so far.
  [[nodiscard]] double cpu_seconds() const;

  // Valid after stop(). The reservoirs span the whole run; new-data queries
  // are those whose refresh() found a newly published snapshot.
  [[nodiscard]] const Reservoir& query_us() const { return query_us_; }
  [[nodiscard]] const Reservoir& new_data_query_us() const {
    return new_data_query_us_;
  }
  [[nodiscard]] const Reservoir& fresh_ms() const { return fresh_ms_; }
  [[nodiscard]] std::uint64_t queries() const { return queries_; }
  [[nodiscard]] std::uint64_t failed_queries() const { return failed_; }
  [[nodiscard]] std::uint64_t unresolved_stamps() const { return missed_; }

 private:
  void loop();
  void resolve_stamps(const serve::QueryEngine& query, std::int64_t seen_ns);
  void resolve_progress(const serve::QueryEngine& query, std::int64_t seen_ns);

  // One (time, live ingest count) record per query, for ingest progress.
  struct Progress {
    std::int64_t ns = 0;
    std::uint64_t ingested = 0;
  };
  static constexpr std::size_t kProgressRecords = 4096;

  const serve::TelemetryStore& store_;
  std::size_t sites_;
  const StampTable* stamps_;
  Reservoir query_us_;
  Reservoir new_data_query_us_;
  Reservoir fresh_ms_;
  std::uint64_t queries_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t missed_ = 0;
  std::vector<std::uint64_t> next_stamp_;  // per site: oldest unresolved
  std::vector<Progress> progress_;         // ring of kProgressRecords
  std::uint64_t progress_count_ = 0;
  std::uint64_t cursor_ = 0;  // first record at or above next_ordinal_
  std::uint64_t next_ordinal_ = kStampEvery;
  double sink_ = 0.0;  // keeps query results observable
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it uses
};

// --- timed window -----------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool setup_only = false;
  std::int64_t t0_ns = 0;  // process start, as the launcher stamped it
};

// Window-level results: the end-to-end metrics plus the counts the per-layer
// list reports (taken from the untraced rounds).
struct WindowResult {
  Metrics metrics;
  bool correct = true;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> samples;  // sample counts of timings
};

// Setup, the timed window of closed-loop rounds, then the output checks.
[[nodiscard]] WindowResult run_grid_window(const RunOptions& options,
                                           const GridWorkload& workload);
[[nodiscard]] WindowResult run_fleet_window(const RunOptions& options,
                                            const fleet::FleetConfig& config);

// --- traced replay ----------------------------------------------------------

// Per-layer timings of one round of the workload, single-threaded, each on
// the workload's own configuration.
[[nodiscard]] Metrics replay_grid(const GridWorkload& workload);
[[nodiscard]] Metrics replay_fleet(const fleet::FleetConfig& config);

}  // namespace psnt::bench
