#include "grid/scan_grid.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "calib/fit.h"
#include "fault/fault_session.h"
#include "grid/spsc_ring.h"
#include "serve/store.h"
#include "util/error.h"

namespace psnt::grid {

namespace {

// One capture in flight from a worker to the aggregator. `raw.site_id`
// carries the grid-internal site *index* (matrix row), `raw.sample_index`
// the column; the drain pass owns ENC + voltage conversion.
struct GridSample {
  core::RawSample raw;
  double wall_us = 0.0;  // producer-side capture wall time, batch average
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct ScanGrid::Site {
  std::uint32_t id = 0;
  std::uint32_t index = 0;
  std::unique_ptr<analog::RailSource> vdd;
  std::unique_ptr<analog::RailSource> gnd;  // may be null (ideal ground)

  // The site's measurement backend. Behavioral engines are built by the grid
  // constructor in site order (so calibration and code-policy resolution are
  // deterministic); structural engines are built lazily on the owning worker
  // thread so the whole netlist stays thread-confined.
  core::EngineHandle engine;
  // Binds the grid's FaultInjector to this engine's context — the one
  // fault↔engine coupling. Declared after `engine`: destroyed first, so the
  // hook detaches before the context it points into goes away.
  std::unique_ptr<fault::FaultSession> fault_session;

  // --- degradation accounting (idle unless resilient capture runs) -----
  bool quarantined = false;
  std::uint32_t quarantine_sample = 0;
  std::uint32_t fail_streak = 0;  // consecutive lost samples
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  std::uint64_t lost = 0;
  std::uint64_t vote_overrides = 0;
  std::vector<fault::FaultEvent> trace;
};

struct ScanGrid::Shard {
  std::size_t index = 0;
  std::vector<Site*> sites;
  SpscRing<GridSample> ring;
  // Capture buffers, reused across batches. Touched only by the shard's
  // single worker thread.
  std::vector<core::RawSample> scratch;
  std::vector<GridSample> sample_scratch;
  // The worker's exception, if it threw; run() rethrows it after the join.
  std::exception_ptr error;
  // Polled by the drain on every idle pass: on its own line, so the
  // worker's per-sample writes to the scratch vectors above never evict it.
  alignas(kCacheLine) std::atomic<bool> done{false};

  explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
};

namespace {

// Ring-overflow-storm hook: `forced_full_pushes` pushes are treated as
// having hit a full ring before the sample's real push — counted stalls;
// the sample still ships.
void absorb_forced_full(std::uint32_t forced_full_pushes, Counter& stalls) {
  for (std::uint32_t i = 0; i < forced_full_pushes; ++i) {
    stalls.increment();
    std::this_thread::yield();
  }
}

// Producer-side backpressure for one site batch: one try_push_span call
// moves the whole batch through two atomics when the ring has room; the
// remainder (a full ring) blocks and yields with stalls counted. Lossless:
// `produced` counts every sample, and every sample is pushed.
void push_span_with_backpressure(SpscRing<GridSample>& ring,
                                 GridSample* samples, std::size_t n,
                                 Counter& stalls, Counter& produced) {
  produced.increment(n);
  std::size_t done = ring.try_push_span(samples, n);
  while (done < n) {
    stalls.increment();
    std::this_thread::yield();
    done += ring.try_push_span(samples + done, n - done);
  }
}

}  // namespace

// Telemetry instruments of the resilient capture, resolved once at
// construction.
struct ScanGrid::ChaosCounters {
  explicit ChaosCounters(TelemetryRegistry& t)
      : injected(t.counter("grid.fault.injected")),
        retries(t.counter("grid.retries")),
        recovered(t.counter("grid.samples_recovered")),
        lost(t.counter("grid.samples_lost")),
        quarantined(t.counter("grid.sites_quarantined")),
        vote_overrides(t.counter("grid.vote_overrides")),
        timeouts(t.counter("grid.measure_timeouts")),
        backoff_us(t.counter("grid.backoff_us")) {
    for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
      by_kind[k] = &t.counter(std::string("grid.fault.") +
                              fault::to_string(static_cast<fault::FaultKind>(k)));
    }
  }

  Counter& injected;
  Counter& retries;
  Counter& recovered;
  Counter& lost;
  Counter& quarantined;
  Counter& vote_overrides;
  Counter& timeouts;
  Counter& backoff_us;
  std::array<Counter*, fault::kFaultKindCount> by_kind{};
};

void check_schedule(Picoseconds start, Picoseconds interval) {
  PSNT_CHECK(std::isfinite(start.value()), "schedule start must be finite");
  PSNT_CHECK(std::isfinite(interval.value()) && interval.value() > 0.0,
             "sample interval must be finite and positive");
}

ScanGrid::ScanGrid(const scan::Floorplan& floorplan, ScanGridConfig config,
                   RailFactory vdd_factory, RailFactory gnd_factory)
    : floorplan_(floorplan), config_(config) {
  PSNT_CHECK(floorplan.site_count() > 0, "grid needs at least one site");
  PSNT_CHECK(config_.samples_per_site > 0, "need at least one sample");
  check_schedule(config_.start, config_.interval);
  PSNT_CHECK(vdd_factory != nullptr, "a vdd RailFactory is required");
  PSNT_CHECK(config_.resilience.votes >= 1 &&
                 config_.resilience.votes % 2 == 1,
             "resilience votes must be odd (majority needs a tiebreak)");
  PSNT_CHECK(config_.fidelity == SiteFidelity::kBehavioral ||
                 config_.resilience.votes == 1,
             "majority voting requires the behavioral fidelity");
  if (config_.threads == 0) config_.threads = 1;
  if (config_.batch == 0) config_.batch = 1;
  if (config_.store) {
    PSNT_CHECK(config_.store->config().site_count >= floorplan.site_count(),
               "serve store is sized for fewer sites than the floorplan");
    PSNT_CHECK(config_.store->config().shards == 1,
               "the grid drain is a single writer; use a 1-shard store");
  }
  if (config_.injector != nullptr || config_.resilience.enabled()) {
    chaos_ = std::make_unique<ChaosCounters>(telemetry_);
  }

  // Resolve the hot-path instruments once: counter() takes a std::string
  // and these names overflow SSO, so looking them up per site batch was the
  // measure loop's residual allocation source.
  hot_.stalls = &telemetry_.counter("grid.ring_stalls");
  hot_.produced = &telemetry_.counter("grid.samples_produced");
  hot_.sim_events = &telemetry_.counter("grid.sim_events");
  hot_.sim_allocs = &telemetry_.counter("grid.sim_allocs");
  hot_.structural_ns = &telemetry_.counter("grid.structural_ns");

  // Force the (thread-safe, but serial) calibration fit before any worker
  // can race to be first through the magic static.
  (void)calib::calibrated();
  ladder_ = calib::make_paper_decode_ladder(calib::calibrated().model);

  // Sites are built in floorplan order on the caller thread so every
  // stochastic draw happens in a deterministic sequence per site.
  sites_.reserve(floorplan.site_count());
  for (const auto& record : floorplan.sites()) {
    auto site = std::make_unique<Site>();
    site->id = record.id;
    site->index = static_cast<std::uint32_t>(sites_.size());
    auto rng = site_rng(config_.seed, record.id);
    site->vdd = vdd_factory(record, rng);
    PSNT_CHECK(site->vdd != nullptr, "RailFactory returned null vdd rail");
    if (gnd_factory) site->gnd = gnd_factory(record, rng);
    if (config_.fidelity == SiteFidelity::kBehavioral) ensure_engine(*site);
    sites_.push_back(std::move(site));
  }

  // Cross-site firing-ladder sharing: all behavioral sites wrap the same
  // calibrated array, so the per-code ladder solve (a ~7-bisection pass per
  // kernel, ~10 us) would otherwise be repaid once per site inside run().
  // Solve it once on site 0 for the configured code and adopt the tables
  // everywhere else; share_sense_ladders fingerprints the array parameters
  // and copies nothing if they differ, so this is amortization only, never a
  // behavior change. Auto-ranged grids walk codes at runtime; their first
  // step per code still solves lazily (and correctly) as before.
  if (config_.fidelity == SiteFidelity::kBehavioral && sites_.size() > 1) {
    core::IMeasureEngine& first = *sites_.front()->engine;
    if (core::prewarm_sense_ladders(first,
                                    first.context().current_code())) {
      for (std::size_t i = 1; i < sites_.size(); ++i) {
        (void)core::share_sense_ladders(*sites_[i]->engine, first);
      }
    }
  }

  // Round-robin sharding: shard s owns sites s, s+S, s+2S, ... One worker
  // job per shard keeps the SPSC producer contract.
  const std::size_t shard_count = std::min(config_.threads, sites_.size());
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(config_.ring_capacity);
    shard->index = s;
    for (std::size_t i = s; i < sites_.size(); i += shard_count) {
      shard->sites.push_back(sites_[i].get());
    }
    shards_.push_back(std::move(shard));
  }
}

ScanGrid::~ScanGrid() = default;

stats::Xoshiro256 ScanGrid::site_rng(std::uint64_t seed,
                                     std::uint32_t site_id) {
  // Decorrelate the per-site streams: hash the master seed once, then mix in
  // the site id with the golden-ratio multiplier. Thread-count independent.
  stats::SplitMix64 mix(seed);
  const std::uint64_t base = mix.next();
  return stats::Xoshiro256(
      base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(site_id) + 1)));
}

Picoseconds ScanGrid::sample_time(std::size_t k) const {
  return Picoseconds{config_.start.value() +
                     static_cast<double>(k) * config_.interval.value()};
}

void ScanGrid::ensure_engine(Site& site) {
  if (site.engine) return;

  core::EngineSiteOptions options;
  options.fault_hooks = config_.injector != nullptr;
  options.code_policy.initial = config_.code;
  options.code_policy.window = config_.code_window;
  options.code_policy.auto_range =
      config_.code_policy == CodePolicy::kAutoRange;

  const analog::RailPair rails{site.vdd.get(), site.gnd.get()};
  const auto& model = calib::calibrated().model;
  // The only fidelity branch in the grid: everything past construction
  // speaks the EngineHandle contract.
  if (config_.fidelity == SiteFidelity::kBehavioral) {
    site.engine = core::make_behavioral_engine(
        calib::make_paper_engine(model, config_.thermometer), rails, options);
  } else {
    site.engine = core::make_structural_engine(
        calib::make_paper_array(model),
        core::PulseGenerator{model.pg_config()}, rails,
        config_.thermometer.control_period, options);
  }
  if (config_.injector) {
    site.fault_session = std::make_unique<fault::FaultSession>(
        config_.injector, site.id, site.engine->context());
  }
}

void ScanGrid::run_site_batch(Site& site, std::size_t first, std::size_t count,
                              Shard& shard) {
  ensure_engine(site);
  core::IMeasureEngine& engine = *site.engine;
  core::EngineContext& ctx = engine.context();
  const ResiliencePolicy& policy = config_.resilience;
  shard.scratch.clear();
  core::MeasureRequest req;
  const double t0 = now_seconds();
  if (!chaos_ && !ctx.auto_ranging()) {
    // Nothing to do between two captures: one engine call for the whole
    // batch — the vectorized behavioral SoA capture or one netlist run.
    req.start = sample_time(first);
    engine.measure_raw_batch(req, config_.interval, count, shard.scratch);
    for (std::size_t k = 0; k < count; ++k) {
      shard.scratch[k].sample_index = static_cast<std::uint32_t>(first + k);
    }
  } else {
    // Per-sample loop: auto-range observes each published word before the
    // next PREPARE; retry, vote and quarantine wrap each count-1 capture.
    for (std::size_t k = first; k < first + count; ++k) {
      if (site.quarantined) {
        ++site.lost;
        chaos_->lost.increment();
        continue;
      }
      std::uint32_t forced_full_pushes = 0;
      if (chaos_) {
        core::RawSample raw;
        if (!resilient_capture(site, k, raw, forced_full_pushes)) {
          ++site.lost;
          chaos_->lost.increment();
          ++site.fail_streak;
          if (policy.quarantine_after > 0 &&
              site.fail_streak >= policy.quarantine_after) {
            site.quarantined = true;
            site.quarantine_sample = static_cast<std::uint32_t>(k + 1);
            chaos_->quarantined.increment();
          }
          continue;
        }
        site.fail_streak = 0;
        shard.scratch.push_back(raw);
      } else {
        req.start = sample_time(k);
        engine.measure_raw_batch(req, config_.interval, 1, shard.scratch);
      }
      core::RawSample& raw = shard.scratch.back();
      raw.sample_index = static_cast<std::uint32_t>(k);
      // Auto-range feedback: once per published sample, on the published
      // (majority) word — never per capture, so votes and retries leave
      // the trim sequence untouched.
      if (ctx.auto_ranging()) {
        ctx.observe(engine.encode(raw.word), raw.word.width());
      }
      absorb_forced_full(forced_full_pushes, *hot_.stalls);
    }
  }
  const double batch_seconds = now_seconds() - t0;

  const core::EngineBatchStats stats = engine.take_batch_stats();
  if (stats.sim_events > 0) {
    hot_.sim_events->increment(stats.sim_events);
    hot_.sim_allocs->increment(stats.sim_allocs);
    // Worker-side simulation time (excludes ring/aggregator); the perf
    // bench derives its ns-per-structural-measure from this. Guarded so
    // behavioral captures (zero sim events) don't dilute it.
    hot_.structural_ns->increment(
        static_cast<std::uint64_t>(batch_seconds * 1e9));
  }

  const double per_sample_us =
      batch_seconds * 1e6 / static_cast<double>(count);
  shard.sample_scratch.clear();
  for (const core::RawSample& raw : shard.scratch) {
    GridSample s;
    s.raw = raw;
    s.raw.site_id = site.index;
    s.wall_us = per_sample_us;
    shard.sample_scratch.push_back(s);
  }
  push_span_with_backpressure(shard.ring, shard.sample_scratch.data(),
                              shard.sample_scratch.size(), *hot_.stalls,
                              *hot_.produced);
}

void ScanGrid::record_fault_events(Site& site,
                                   const fault::MeasureFaults& faults,
                                   std::size_t sample, std::uint32_t attempt) {
  if (!faults.any()) return;
  const std::size_t before = site.trace.size();
  fault::FaultInjector::append_events(faults, site.id,
                                      static_cast<std::uint32_t>(sample),
                                      attempt, site.trace);
  const std::size_t added = site.trace.size() - before;
  chaos_->injected.increment(added);
  for (std::size_t i = before; i < site.trace.size(); ++i) {
    chaos_->by_kind[static_cast<std::size_t>(site.trace[i].kind)]
        ->increment();
  }
}

namespace {

core::DelayCode drifted_code(core::DelayCode code, std::int32_t delta) {
  const int v = std::clamp(static_cast<int>(code.value()) + delta, 0,
                           static_cast<int>(core::DelayCode::kCount) - 1);
  return core::DelayCode{static_cast<std::uint8_t>(v)};
}

// Deterministic-outcome backoff: the sleep affects wall time only, never
// which faults strike next (those re-roll off the attempt index).
void apply_backoff(const ResiliencePolicy& policy, std::size_t attempt,
                   Counter& backoff_us_counter) {
  const std::uint32_t us = bounded_backoff_us(policy, attempt);
  if (us == 0) return;
  backoff_us_counter.increment(us);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

bool ScanGrid::resilient_capture(Site& site, std::size_t sample,
                                 core::RawSample& out,
                                 std::uint32_t& forced_full_pushes) {
  const ResiliencePolicy& policy = config_.resilience;
  ChaosCounters& counters = *chaos_;
  core::IMeasureEngine& engine = *site.engine;
  // Voting re-measures the sample; engines that cannot (the live netlist)
  // run a single vote. Retrying a capture re-measures either way, exactly
  // as silicon would.
  const std::size_t votes =
      engine.supports_voting() ? std::max<std::size_t>(1, policy.votes) : 1;
  const std::size_t attempts_per_vote = policy.max_retries + 1;
  const std::size_t width = engine.word_bits();

  std::vector<core::RawSample> vote_raws;
  vote_raws.reserve(votes);
  bool needed_retry = false;
  const auto retry_after_failure = [&](std::size_t a) {
    if (a + 1 < attempts_per_vote) {
      ++site.retries;
      counters.retries.increment();
      apply_backoff(policy, a + 1, counters.backoff_us);
      needed_retry = true;
    }
  };

  for (std::size_t v = 0; v < votes; ++v) {
    for (std::size_t a = 0; a < attempts_per_vote; ++a) {
      const auto attempt =
          static_cast<std::uint32_t>(v * attempts_per_vote + a);
      fault::MeasureFaults f;
      if (site.fault_session) {
        f = site.fault_session->roll(static_cast<std::uint32_t>(sample),
                                     attempt, width);
      }
      record_fault_events(site, f, sample, attempt);
      if (f.dead || f.hung) {
        if (f.hung) counters.timeouts.increment();
        retry_after_failure(a);
        continue;
      }
      core::MeasureRequest req;
      req.start = sample_time(sample);
      req.code = drifted_code(engine.context().current_code(), f.code_delta);
      if (site.fault_session) site.fault_session->arm(f);
      engine.measure_raw_batch(req, config_.interval, 1, vote_raws);
      if (site.fault_session) site.fault_session->disarm();
      if (a > 0) needed_retry = true;
      forced_full_pushes = std::max(forced_full_pushes, f.ring_stall_pushes);
      break;
    }
  }
  if (vote_raws.empty()) return false;

  if (vote_raws.size() == 1) {
    out = vote_raws.front();
  } else {
    // Lost votes shrink the panel; keep it odd so majority stays defined.
    std::size_t panel = vote_raws.size();
    if (panel % 2 == 0) --panel;
    std::vector<core::ThermoWord> words;
    words.reserve(panel);
    for (std::size_t i = 0; i < panel; ++i) words.push_back(vote_raws[i].word);
    const core::ThermoWord winner = majority_word(words);
    bool overridden = false;
    std::size_t match = panel;  // first vote that already equals the winner
    for (std::size_t i = 0; i < panel; ++i) {
      if (words[i] == winner) {
        if (match == panel) match = i;
      } else {
        overridden = true;
      }
    }
    // Publish the first vote that carries the winner; when the majority
    // matches no single vote (flips on distinct bits), the first vote's
    // schedule with the majority word. The drain decodes either.
    out = vote_raws[match < panel ? match : 0];
    out.word = winner;
    if (overridden) {
      ++site.vote_overrides;
      counters.vote_overrides.increment();
    }
  }
  if (needed_retry) {
    ++site.recovered;
    counters.recovered.increment();
  }
  return true;
}

void ScanGrid::worker_run_shard(Shard& shard) {
  struct DoneGuard {
    Shard& shard;
    ~DoneGuard() { shard.done.store(true, std::memory_order_release); }
  } guard{shard};

  try {
    const std::size_t samples = config_.samples_per_site;
    for (std::size_t base = 0; base < samples; base += config_.batch) {
      const std::size_t count = std::min(config_.batch, samples - base);
      for (Site* site : shard.sites) run_site_batch(*site, base, count, shard);
    }
  } catch (...) {
    shard.error = std::current_exception();
  }
}

void ScanGrid::aggregate(RunResult& result) {
  auto& drained_counter = telemetry_.counter("grid.samples_drained");
  auto& depth = telemetry_.gauge("grid.ring_depth_last");

  // Serving layer: the drain is the store's single writer. Ingest happens
  // per sample; the degradation mirror (resilience telemetry → store
  // atomics) refreshes once per drain sweep, not per sample.
  serve::TelemetryStore* store = config_.store.get();
  // The store may outlive this grid: count only the publishes of this run.
  const std::uint64_t publishes_before =
      store != nullptr ? store->publishes() : 0;
  Counter* serve_ingested = nullptr;
  Counter* deg_injected = nullptr;
  Counter* deg_retries = nullptr;
  Counter* deg_recovered = nullptr;
  Counter* deg_lost = nullptr;
  Counter* deg_quarantined = nullptr;
  if (store != nullptr) {
    serve_ingested = &telemetry_.counter("grid.serve.ingested");
    deg_injected = &telemetry_.counter("grid.fault.injected");
    deg_retries = &telemetry_.counter("grid.retries");
    deg_recovered = &telemetry_.counter("grid.samples_recovered");
    deg_lost = &telemetry_.counter("grid.samples_lost");
    deg_quarantined = &telemetry_.counter("grid.sites_quarantined");
  }
  const auto mirror_degradation = [&] {
    serve::DegradationStatus status;
    status.faults_injected = deg_injected->value();
    status.retries = deg_retries->value();
    status.samples_recovered = deg_recovered->value();
    status.samples_lost = deg_lost->value();
    status.sites_quarantined = deg_quarantined->value();
    store->set_degradation(status);
  };

  // Samples come off each ring in chunks; each sample then takes one pass:
  // ENC + voltage conversion on the shared immutable ladder (a popcount
  // table read), assembly into the result matrix, store ingest. The chunk
  // buffer is sized once, so the steady state performs no allocation.
  constexpr std::size_t kDrainChunk = 256;
  std::vector<GridSample> chunk(kDrainChunk);

  for (;;) {
    // Read the done flags BEFORE the drain pass: if every worker had
    // finished before we drained and the rings still came up empty, no new
    // sample can appear and the scan is complete.
    bool all_done = true;
    for (const auto& shard : shards_) {
      if (!shard->done.load(std::memory_order_acquire)) {
        all_done = false;
        break;
      }
    }

    bool any = false;
    for (const auto& shard : shards_) {
      for (;;) {
        const std::size_t got =
            shard->ring.try_pop_span(chunk.data(), kDrainChunk);
        if (got == 0) break;
        any = true;
        drained_counter.increment(got);
        for (std::size_t i = 0; i < got; ++i) {
          const GridSample& s = chunk[i];
          const core::VoltageBin bin = ladder_.decode(s.raw.word, s.raw.code);
          auto& sr = result.sites[s.raw.site_id];
          sr.samples[s.raw.sample_index] =
              core::assemble_measurement(s.raw, bin);
          sr.valid[s.raw.sample_index] = true;
          if (store != nullptr) {
            serve::IngestRecord rec;
            rec.site = s.raw.site_id;
            rec.timestamp = s.raw.timestamp;
            rec.volts = bin.estimate().value();
            rec.latency_us = s.wall_us;
            rec.in_range = bin.in_range();
            store->ingest(rec);
          }
        }
        if (store != nullptr) serve_ingested->increment(got);
      }
      depth.set(static_cast<double>(shard->ring.size()));
    }
    if (store != nullptr) mirror_degradation();

    if (!any) {
      if (all_done) break;
      std::this_thread::yield();
    }
  }

  // Final serving-layer flush: one last degradation mirror, then force a
  // snapshot so queries after run() observe every drained sample.
  if (store != nullptr) {
    mirror_degradation();
    store->publish_all();
    telemetry_.counter("grid.serve.publishes")
        .increment(store->publishes() - publishes_before);
  }
}

RunResult ScanGrid::run() {
  PSNT_CHECK(!ran_, "ScanGrid::run is single-shot; build a fresh grid");
  ran_ = true;

  RunResult result;
  result.sites.resize(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    auto& sr = result.sites[i];
    sr.site_id = sites_[i]->id;
    sr.samples.resize(config_.samples_per_site);
    sr.valid.assign(config_.samples_per_site, false);
  }

  const double t0 = now_seconds();
  {
    // One thread per shard: the single producer of its ring. The jthreads
    // join when this scope ends, on every exit path, before anything below
    // reads site state.
    std::vector<std::jthread> workers;
    workers.reserve(shards_.size());
    for (auto& shard : shards_) {
      workers.emplace_back([this, s = shard.get()] { worker_run_shard(*s); });
    }
    aggregate(result);
  }
  for (const auto& shard : shards_) {
    if (shard->error) std::rethrow_exception(shard->error);
  }
  result.wall_seconds = now_seconds() - t0;

  for (std::size_t i = 0; i < sites_.size(); ++i) {
    auto& sr = result.sites[i];
    Site& site = *sites_[i];
    if (site.engine) {
      sr.final_code = site.engine->context().current_code();
      sr.code_steps = site.engine->context().code_steps();
    } else {
      sr.final_code = config_.code;
    }
    sr.quarantined = site.quarantined;
    sr.quarantine_sample = site.quarantine_sample;
    sr.retries = site.retries;
    sr.recovered = site.recovered;
    sr.lost = site.lost;
    sr.vote_overrides = site.vote_overrides;
    sr.fault_events = std::move(site.trace);
    result.faults_injected += sr.fault_events.size();
    result.retries += sr.retries;
    result.recovered += sr.recovered;
    result.lost += sr.lost;
    result.vote_overrides += sr.vote_overrides;
    result.quarantined_sites += sr.quarantined ? 1 : 0;
  }
  result.produced = telemetry_.counter("grid.samples_produced").value();
  result.ring_stalls = telemetry_.counter("grid.ring_stalls").value();
  result.samples_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.produced) / result.wall_seconds
          : 0.0;

  if (!config_.snapshot_csv_path.empty()) {
    if (telemetry_.export_csv(config_.snapshot_csv_path)) {
      telemetry_.counter("grid.snapshots_exported").increment();
    }
  }
  return result;
}

RailFactory ScanGrid::constant_rails(Volt v) {
  return [v](const scan::SensorSite&, stats::Xoshiro256&) {
    return std::make_unique<analog::ConstantRail>(v);
  };
}

RailFactory ScanGrid::ir_gradient_rails(const scan::Floorplan& floorplan,
                                        Volt v_pad, double drop_per_um,
                                        scan::Point pad, double sigma_volts) {
  (void)floorplan;  // geometry comes from the site record itself
  return [=](const scan::SensorSite& site, stats::Xoshiro256& rng) {
    const double dist = std::hypot(site.position.x_um - pad.x_um,
                                   site.position.y_um - pad.y_um);
    double v = v_pad.value() - drop_per_um * dist;
    if (sigma_volts > 0.0) v += rng.normal(0.0, sigma_volts);
    return std::make_unique<analog::ConstantRail>(Volt{v});
  };
}

RailFactory ScanGrid::scaled_waveform_rails(
    const scan::Floorplan& floorplan,
    std::shared_ptr<const analog::SampledRail> waveform, Volt v_nominal,
    double far_scale, scan::Point pad) {
  PSNT_CHECK(waveform != nullptr, "scaled_waveform_rails needs a waveform");
  // Farthest corner of the die from the pad normalises the scaling ramp.
  double dist_max = 1.0;
  for (const double cx : {0.0, floorplan.width_um()}) {
    for (const double cy : {0.0, floorplan.height_um()}) {
      dist_max = std::max(
          dist_max, std::hypot(cx - pad.x_um, cy - pad.y_um));
    }
  }
  return [=](const scan::SensorSite& site, stats::Xoshiro256&)
             -> std::unique_ptr<analog::RailSource> {
    const double dist = std::hypot(site.position.x_um - pad.x_um,
                                   site.position.y_um - pad.y_um);
    const double scale = 1.0 + (far_scale - 1.0) * dist / dist_max;
    const double v_nom = v_nominal.value();
    return std::make_unique<analog::CallbackRail>(
        [waveform, scale, v_nom](Picoseconds t) {
          return Volt{v_nom + scale * (waveform->at(t).value() - v_nom)};
        });
  };
}

}  // namespace psnt::grid
