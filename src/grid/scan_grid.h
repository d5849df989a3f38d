// Parallel PSN scan-grid runtime.
//
// The paper's scan-chain usage model at datacenter scale: many independent
// per-site sensor simulations run on a fixed set of shard threads, each
// site's captures stream through a bounded SPSC ring into a central
// aggregator that keeps the runtime counters and gauges, publishes every
// sample into an attached serve::TelemetryStore (the one per-site summary
// and the one home of latency/voltage distributions) and logs one 16-byte
// CaptureRecord per (site, sample), decoded on read. The ring carries
// wire-sized capture-only core::RawSamples, and the aggregator's drain pass
// owns ENC + voltage conversion — the paper's capture/encode split (Fig. 6:
// FF array → ENC → OUTE) applied to the runtime.
//
// One capture path
//   Workers capture through the one engine entry point,
//   IMeasureEngine::measure_raw_batch, and never decode. A site batch is
//   either one engine call for the whole batch (the vectorized behavioral
//   SoA capture, the structural netlist run) or a per-sample loop of count-1
//   calls. The loop runs when the grid must act between two captures of a
//   site:
//     * auto-range: the site's code policy observes every published word
//       before the next PREPARE. Feedback stays capture-side, once per
//       published sample: the paper's CNTR trims the delay code on-die, and
//       re-trimming from the drain would make code selection depend on
//       aggregator timing — breaking the (site, sample) determinism below;
//     * resilience: retry, vote and quarantine wrap each count-1 capture.
//   The drain makes one pass per sample: its CaptureRecord into the run's
//   site-major CaptureLog, then with a store attached one read of the shared
//   immutable core::DecodeLadder (the ENC: popcount → bin) and store ingest.
//   SiteResult's columns decode a record through the same ladder when read.
//
// Threading model
//   * Sites are sharded round-robin across `threads` shards; each shard
//     runs on its own std::jthread, so exactly one thread produces into
//     each shard's SpscRing (the SPSC contract).
//   * The caller's thread is the aggregator: it drains every ring until all
//     shards report done, then joins every shard thread and rethrows the
//     exception of the lowest-index shard that threw, if any.
//
// Determinism
//   Results are keyed by (site index, sample index) — never by arrival
//   order — and every stochastic input is derived from the grid seed:
//   site i's RNG stream is site_rng(seed, i) regardless of which thread
//   simulates it, and each site owns its thermometer, so the per-site call
//   sequence (sample 0, 1, 2, ...) is identical to a serial run. A parallel
//   run is therefore bit-identical, words and bins, to
//   scan::PsnScanChain::broadcast_measure iterated over the same times with
//   the same rails and thermometers (tests/test_scan_grid.cpp asserts this
//   site-for-site).
//
// Backpressure
//   A full ring stalls the producing worker (yield loop; stalls counted in
//   telemetry). The ring is lossless, so every scheduled sample reaches the
//   capture log — the completeness every determinism guarantee above
//   assumes.
//
// Measurement backends
//   Every site measures through a core::EngineHandle (measure_engine.h).
//   Site fidelity (behavioral model vs gate-level netlist), fault-hook
//   installation and the delay-code policy are engine *construction
//   parameters* — the grid's site-batch loop is backend-agnostic and never
//   branches on fidelity past the one factory call per site.
//
// Fault injection & graceful degradation
//   Attaching a fault::FaultInjector (ScanGridConfig::injector) or a
//   non-default ResiliencePolicy makes every capture resilient:
//   deterministic sensor-level faults reach the engine through one
//   fault::FaultSession per site (the context word hook + rail offset — the
//   single hook surface), plus forced-full pushes in the ring path, and the
//   ResiliencePolicy decides recovery — bounded-backoff retry, majority
//   vote, and site quarantine. Degradation telemetry (grid.fault.*,
//   grid.retries, grid.samples_lost, grid.sites_quarantined, ...) flows
//   through the TelemetryRegistry, published once per site batch (exact
//   after run(), up to one batch per shard behind while it runs), and the
//   per-site trace lands in SiteResult::fault_events. With no injector and the default policy no
//   fault lane exists and words stay bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analog/rail.h"
#include "core/measure_engine.h"
#include "core/streaming_encoder.h"
#include "fault/fault_injector.h"
#include "grid/resilience.h"
#include "grid/telemetry.h"
#include "scan/floorplan.h"
#include "stats/rng.h"
#include "util/units.h"

namespace psnt::serve {
class TelemetryStore;
}  // namespace psnt::serve

namespace psnt::grid {

// Per-site engine backend. kBehavioral uses core::BehavioralEngine (the
// scan-chain reference path). kStructural builds a gate-level engine —
// a private sim::Simulator + core::FullStructuralSystem netlist — per site
// on its worker thread and runs real PREPARE/SENSE transactions (≈1000×
// slower per sample). Fidelity is purely an engine construction parameter.
enum class SiteFidelity { kBehavioral, kStructural };

// How each site picks its Delay Code. kFixed uses config.code for every
// sample; kAutoRange seeds each site engine's context with an
// AutoRangeController at config.code that re-trims after every published
// sample (still deterministic: the controller only sees the site's own
// sample sequence). The policy lives in the engine's EngineContext and the
// engine runs it inside each batch capture; only the resilient loop, whose
// captures carry explicit codes, feeds its published words back itself.
enum class CodePolicy { kFixed, kAutoRange };

// Builds one site's rail source, deterministically, from the site record and
// the site's private RNG stream. Must be pure apart from the RNG (it may be
// invoked from the grid constructor for every site, in site order).
using RailFactory = std::function<std::unique_ptr<analog::RailSource>(
    const scan::SensorSite&, stats::Xoshiro256&)>;

struct ScanGridConfig {
  std::size_t threads = 1;
  std::size_t samples_per_site = 16;
  Picoseconds start{0.0};
  Picoseconds interval{10000.0};
  core::DelayCode code{3};
  std::uint64_t seed = 2026;
  core::ThermometerConfig thermometer;
  SiteFidelity fidelity = SiteFidelity::kBehavioral;
  CodePolicy code_policy = CodePolicy::kFixed;
  // When set, each site's starting Delay Code is resolved once at engine
  // construction by core::tune_for_window over this window (Sec. III-A),
  // instead of taking `code` as-is. Works for both fidelities (the
  // structural netlist loads the tuned tap through its live code register).
  std::optional<core::CodeWindow> code_window;
  // Samples a worker runs per site before moving to the next site of its
  // shard — the PREPARE/SENSE batch size, and the span one engine call
  // covers when the site captures a whole batch at once. Per-site sample
  // order is unaffected, so determinism holds. 96 keeps a whole batch's SoA
  // scratch inside L1 while amortizing the per-batch dispatch (see
  // DESIGN.md §14).
  std::size_t batch = 96;
  // When non-empty, run() exports the telemetry snapshot to this CSV path
  // once, after the scan completes.
  std::string snapshot_csv_path;
  // Always-on serving layer (null = off). When set, the aggregator's drain
  // publishes every sample into the store — latest/windowed per-site
  // rollups, global voltage/latency sketches, top-K droop — keyed by the
  // grid site *index* (capture log row), and mirrors the resilience telemetry
  // into the store's degradation status after each drain pass that drained
  // samples. The store's
  // site_count must cover the floorplan; the drain is its single writer
  // (the store must be configured with shards = 1 for grid use). Queries
  // (serve::QueryEngine) run concurrently against published snapshots and
  // never stall the drain. grid.serve.* telemetry counts the traffic.
  std::shared_ptr<serve::TelemetryStore> store;
  // Deterministic fault injector (null = off). When null and `resilience`
  // is the default policy, no fault lane exists and every word is
  // bit-identical to a fault-free run.
  std::shared_ptr<const fault::FaultInjector> injector;
  // Retry / vote / quarantine policy applied per sample (see resilience.h).
  ResiliencePolicy resilience;
};

// Sample k of a schedule lands at start + k × interval. Throws
// std::logic_error unless `start` is finite and `interval` is finite and
// positive: otherwise sample 0 can land at 0 × inf = NaN, a time no rail
// can be read at and the wire rejects. ScanGrid and fleet::FleetCoordinator
// both validate their schedule through this one check.
void check_schedule(Picoseconds start, Picoseconds interval);

// One (site, sample) of a run as the drain logs it: the word the FF array
// latched, the code and sense instant it was captured at, and whether it
// arrived. The log is site-major, so the record's position is its (site,
// sample) key. ENC and voltage conversion run when a column reads it.
struct CaptureRecord {
  double timestamp_ps = 0.0;  // time of the SENSE sampling edge
  std::uint32_t bits = 0;
  std::uint8_t width = 0;
  std::uint8_t code = 0;
  core::SenseTarget target = core::SenseTarget::kVdd;
  bool valid = false;  // false: lost to faults or skipped after quarantine
};
static_assert(sizeof(CaptureRecord) == 16, "one capture record is 16 bytes");

// A run's capture log, `samples_per_site` records per site in site order,
// and the ladder that decodes it. Every column of every SiteResult of the
// run shares it, so a copied SiteResult or RunResult never dangles.
struct CaptureLog {
  std::vector<CaptureRecord> records;
  std::size_t samples_per_site = 0;
  std::shared_ptr<const core::DecodeLadder> ladder;
};

// Read-only view of one site's row of a CaptureLog.
class CaptureRow {
 public:
  CaptureRow() = default;
  CaptureRow(std::shared_ptr<const CaptureLog> log, std::size_t site)
      : log_(std::move(log)),
        row_(log_->records.data() + site * log_->samples_per_site),
        size_(log_->samples_per_site) {}

  [[nodiscard]] std::size_t size() const { return size_; }

 protected:
  std::shared_ptr<const CaptureLog> log_;
  const CaptureRecord* row_ = nullptr;
  std::size_t size_ = 0;
};

// A site's samples by sample number, decoded on read through the run's
// shared DecodeLadder: bit-identical to the engine's own measure(). An
// invalid sample reads as a default Measurement.
class SampleColumn : public CaptureRow {
 public:
  using CaptureRow::CaptureRow;

  [[nodiscard]] core::Measurement operator[](std::size_t k) const;
  [[nodiscard]] core::Measurement back() const { return (*this)[size_ - 1]; }
};

// A site's validity bits by sample number.
class ValidColumn : public CaptureRow {
 public:
  using CaptureRow::CaptureRow;

  class Iterator {
   public:
    explicit Iterator(const CaptureRecord* at) : at_(at) {}
    bool operator*() const { return at_->valid; }
    Iterator& operator++() {
      ++at_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const CaptureRecord* at_;
  };
  using const_iterator = Iterator;

  [[nodiscard]] bool operator[](std::size_t k) const { return row_[k].valid; }
  [[nodiscard]] Iterator begin() const { return Iterator{row_}; }
  [[nodiscard]] Iterator end() const { return Iterator{row_ + size_}; }

  friend bool operator==(const ValidColumn& a, const ValidColumn& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k] != b[k]) return false;
    }
    return true;
  }
};

struct SiteResult {
  std::uint32_t site_id = 0;
  // Indexed by sample number: read-only columns over the run's CaptureLog.
  // `valid[k]` is false for samples lost to faults or skipped after
  // quarantine.
  SampleColumn samples;
  ValidColumn valid;
  core::DelayCode final_code;
  std::uint64_t code_steps = 0;  // auto-range steps (0 under kFixed)
  // --- degradation accounting (all zero without faults) -----------------
  bool quarantined = false;
  std::uint32_t quarantine_sample = 0;  // first sample skipped by quarantine
  std::uint64_t retries = 0;            // failed attempts that were retried
  std::uint64_t recovered = 0;          // samples salvaged by retry
  std::uint64_t lost = 0;               // samples with no successful measure
  std::uint64_t vote_overrides = 0;     // samples where majority != a vote
  // Realized faults in (sample, attempt) order — deterministic for a given
  // (seed, schedule) at any thread count.
  std::vector<fault::FaultEvent> fault_events;
};

struct RunResult {
  std::vector<SiteResult> sites;  // ordered by floorplan site index
  std::uint64_t produced = 0;
  std::uint64_t ring_stalls = 0;
  // Grid-wide degradation rollup (sums of the per-site fields).
  std::uint64_t faults_injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  std::uint64_t lost = 0;
  std::uint64_t vote_overrides = 0;
  std::uint64_t quarantined_sites = 0;
  double wall_seconds = 0.0;
  double samples_per_second = 0.0;
};

class ScanGrid {
 public:
  // Thermometers are calib::make_paper_thermometer(calibrated().model,
  // config.thermometer) — one per site, same as the serial scan-chain
  // reference. `gnd_factory` may be null (sites sense against ideal ground).
  ScanGrid(const scan::Floorplan& floorplan, ScanGridConfig config,
           RailFactory vdd_factory, RailFactory gnd_factory = nullptr);
  ~ScanGrid();

  ScanGrid(const ScanGrid&) = delete;
  ScanGrid& operator=(const ScanGrid&) = delete;

  // Executes the full scan (blocking; the calling thread aggregates).
  // Callable once per ScanGrid instance.
  RunResult run();

  [[nodiscard]] TelemetryRegistry& telemetry() { return telemetry_; }
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }

  // The deterministic per-site RNG stream: what site i's RailFactory sees.
  // Exposed so a serial reference can reconstruct identical rails.
  [[nodiscard]] static stats::Xoshiro256 site_rng(std::uint64_t seed,
                                                  std::uint32_t site_id);

  // Sample k of every site is measured at this instant (matching an
  // iterated broadcast_measure schedule).
  [[nodiscard]] Picoseconds sample_time(std::size_t k) const;

  // --- stock rail factories -------------------------------------------
  // IR-drop gradient: v_pad minus drop_per_um × distance to `pad`, plus a
  // per-site N(0, sigma_volts) offset from the site's RNG stream.
  [[nodiscard]] static RailFactory ir_gradient_rails(
      const scan::Floorplan& floorplan, Volt v_pad, double drop_per_um,
      scan::Point pad = {0.0, 0.0}, double sigma_volts = 0.0);
  // Shared waveform, per-site scaled deviations: site voltage is
  // v_nominal + k(site) × (w(t) − v_nominal) where k grows linearly from
  // 1.0 at `pad` to `far_scale` at the far corner — the classic "corner
  // sites droop more" pattern over one solved PDN waveform.
  [[nodiscard]] static RailFactory scaled_waveform_rails(
      const scan::Floorplan& floorplan,
      std::shared_ptr<const analog::SampledRail> waveform, Volt v_nominal,
      double far_scale, scan::Point pad = {0.0, 0.0});

 private:
  struct Site;
  struct Shard;
  struct ChaosCounters;

  // Hot-path telemetry instruments, resolved once at construction. Counter
  // lookup takes the name as std::string; the grid.* names are long enough
  // to defeat SSO, so per-batch lookups were the drain's residual
  // allocations (~0.4 per measure before caching).
  struct HotCounters {
    Counter* stalls = nullptr;
    Counter* produced = nullptr;
    Counter* sim_events = nullptr;
    Counter* sim_allocs = nullptr;
    Counter* structural_ns = nullptr;
  };

  // A shard thread's body: every batch of every site of the shard, in
  // order. Catches into Shard::error and marks the shard done either way.
  void worker_run_shard(Shard& shard);
  // Builds the site's engine (and fault session) if not built yet — the ONE
  // place the grid distinguishes site fidelities. Behavioral engines are
  // built by the constructor in site order; structural engines lazily on
  // their worker thread (the netlist is thread-confined).
  void ensure_engine(Site& site);
  // The one site-batch worker: captures samples [first, first + count) of
  // `site` — one engine call for the batch (auto-ranged sites included: the
  // engine runs the feedback), or a per-sample loop under resilience — and
  // ships RawSamples into the shard's ring.
  void run_site_batch(Site& site, std::size_t first, std::size_t count,
                      Shard& shard);
  // One published sample under the resilience policy, backend-agnostic: up
  // to `votes` successful count-1 captures (voting only when the engine
  // supports it), each with bounded retry; the published word is their
  // bitwise majority. Returns false when every attempt of every vote failed.
  // The vote panel lives in `shard`'s reused buffers.
  bool resilient_capture(Site& site, std::size_t sample, Shard& shard,
                         core::RawSample& out,
                         std::uint32_t& forced_full_pushes);
  // The caller thread's drain: every ring until all shards are done, one
  // pass per sample — a CaptureRecord into `log`, decode and store ingest.
  void aggregate(CaptureLog& log);

  const scan::Floorplan& floorplan_;
  ScanGridConfig config_;
  TelemetryRegistry telemetry_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // The drain's voltage conversion: built once in the constructor,
  // immutable afterwards, so the drain never touches a worker's engine.
  // Shared with the run's CaptureLog, whose columns decode through it.
  std::shared_ptr<const core::DecodeLadder> ladder_;
  HotCounters hot_;
  // Resilience telemetry; null unless an injector is attached or the
  // resilience policy is non-default (the per-sample resilient loop).
  std::unique_ptr<ChaosCounters> chaos_;
  bool ran_ = false;
};

}  // namespace psnt::grid
