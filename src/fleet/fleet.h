// FleetCoordinator: the multi-process scan fleet (DESIGN.md §15).
//
// The paper's instrument is distributed — many sensor sites feeding one
// readout chain — and this layer takes the scan grid's capture/encode split
// across process boundaries: N forked worker processes each own a shard of
// the floorplan (fleet::partition_sites), run deterministic captures into a
// grid::SpscRing, and a bridge loop batches the ring's RawSamples into
// framed spans over a net::BufferedWriter (explicit flush when the ring goes
// idle). The parent merges every worker stream in its aggregator threads:
// parse → CRC check → decode samples in place → one drain pass (ENC via
// core::StreamingEncoder, voltage via the shared core::DecodeLadder) feeding
// the serve::TelemetryStore once per span. The coordinator thread waits on
// the aggregators' events (worker done, connection closed, kill due).
//
// Determinism & conformance
//   A site's capture sequence is a pure function of (seed, site, sample) —
//   the same site_rng stream and paper engine the in-process reference uses
//   — so a fleet run is bit-identical in decoded words to run_in_process()
//   over the same config, at any worker count and any aggregator thread
//   count (tests/test_fleet.cpp pins 1/2/8). The same purity is what makes
//   worker restart trivial: a spare re-runs the dead worker's whole
//   assignment and overwrites any slots the original already delivered with
//   identical values.
//
// Failure model
//   Workers die (SIGKILL mid-soak is the benched case; schedule_kill ties
//   it to a worker's progress). The aggregator sees
//   the connection close; a partial trailing frame is counted as a truncated
//   tail, never decoded (complete CRC-verified frames before the cut stay
//   accepted). The coordinator then re-assigns the logical worker to a
//   pre-forked spare — all fork() calls happen before any thread starts, so
//   the fleet is safe under TSan and never forks a multithreaded process.
//   With no spare left the assignment's missing samples are counted lost and
//   mirrored into the store's DegradationStatus, exactly like a quarantined
//   grid site.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/measure_engine.h"
#include "core/measurement.h"
#include "core/streaming_encoder.h"
#include "util/units.h"

namespace psnt::serve {
class TelemetryStore;
}  // namespace psnt::serve

namespace psnt::fleet {

// Shards `sites` site indices across `workers` workers in contiguous blocks,
// the remainder spread over the leading workers: every site appears exactly
// once, block sizes differ by at most one, and neighbouring floorplan sites
// share a worker's engine caches. workers must be > 0. The assignment is
// static, computed once before any worker forks, so a restarted spare
// reproduces a dead worker's workload from the logical worker index alone.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> partition_sites(
    std::size_t sites, std::size_t workers);

struct FleetConfig {
  // --- workload (mirrors ScanGridConfig's schedule) ---------------------
  std::size_t sites = 16;
  std::size_t samples_per_site = 64;
  Picoseconds start{0.0};
  Picoseconds interval{10000.0};
  core::DelayCode code{3};
  std::uint64_t seed = 2026;

  // --- topology ----------------------------------------------------------
  std::size_t workers = 3;
  // Pre-forked standby workers; one is consumed per mid-run restart.
  std::size_t spares = 1;
  std::size_t aggregator_threads = 1;

  // --- transport ---------------------------------------------------------
  std::size_t span_samples = 64;       // RawSamples per kSampleSpan frame

  // Optional serving layer: every decoded sample is ingested, one
  // ingest_locked call per span (thread-safe — aggregator threads don't map
  // 1:1 onto store shards).
  std::shared_ptr<serve::TelemetryStore> store;
};

// Dense (site, sample) result matrix. Slots are disjoint per (site, sample);
// `valid` marks delivered samples (a lost worker with no spare leaves its
// shard's slots invalid).
struct SampleMatrix {
  std::size_t sites = 0;
  std::size_t samples = 0;
  std::vector<core::ThermoWord> words;       // site-major [site*samples + k]
  std::vector<std::uint8_t> code_values;     // DelayCode per slot
  std::vector<std::uint8_t> valid;

  SampleMatrix() = default;
  SampleMatrix(std::size_t sites_, std::size_t samples_)
      : sites(sites_),
        samples(samples_),
        words(sites_ * samples_),
        code_values(sites_ * samples_, 0),
        valid(sites_ * samples_, 0) {}

  [[nodiscard]] std::size_t index(std::uint32_t site, std::uint32_t k) const {
    return static_cast<std::size_t>(site) * samples + k;
  }
  [[nodiscard]] std::uint64_t count_valid() const;
  // True when every valid slot of `other` matches bit-for-bit AND validity
  // itself matches — the conformance predicate.
  [[nodiscard]] bool identical_to(const SampleMatrix& other) const;
};

struct FleetResult {
  SampleMatrix matrix;
  std::uint64_t samples_expected = 0;
  std::uint64_t samples_valid = 0;
  std::uint64_t samples_lost = 0;

  // Transport accounting.
  std::uint64_t spans = 0;
  std::uint64_t frames = 0;
  std::uint64_t truncated_tails = 0;  // connections dead mid-frame (benign)
  std::uint64_t frame_errors = 0;     // sticky parser failures (corruption)

  // Failure/recovery accounting.
  std::uint64_t workers_killed = 0;
  std::uint64_t workers_restarted = 0;
  std::uint64_t assignments_lost = 0;  // died with no spare left

  // Flush→drain latency per span (sender CLOCK_MONOTONIC to aggregator
  // decode), capped in length; enough for p50/p99.
  std::vector<std::uint64_t> span_latency_ns;

  core::StreamingEncodeStats enc;  // drain-pass ENC stats, all threads
  double wall_seconds = 0.0;
  double samples_per_second = 0.0;
  bool completed = false;  // false: run deadline hit before all workers done
};

class FleetCoordinator {
 public:
  explicit FleetCoordinator(FleetConfig config);
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  // Forks workers + spares, runs the full scan, merges streams, reaps every
  // child. MUST be called from a single-threaded process point (all forks
  // happen before the aggregator threads start). Callable once.
  FleetResult run();

  // Arms a SIGKILL of primary worker slot `worker` once the aggregator has
  // drained `after_spans` spans from it (0: before any). The aggregator
  // holds that connection until the coordinator has fired the kill, then
  // drains what the worker had already sent. Call before run().
  void schedule_kill(std::size_t worker, std::uint64_t after_spans);

  // The in-process reference: identical engines, identical schedule, no
  // processes — the right-hand side of the conformance requirement.
  [[nodiscard]] static SampleMatrix run_in_process(const FleetConfig& config);

  // Deterministic per-site capture engine (rails owned alongside). Exposed
  // so tests can probe single-site sequences.
  struct SiteEngine {
    std::unique_ptr<analog::RailSource> vdd;
    std::unique_ptr<analog::RailSource> gnd;
    core::EngineHandle engine;
  };
  [[nodiscard]] static SiteEngine make_site_engine(const FleetConfig& config,
                                                   std::uint32_t site);
  // Captures samples [first, first+count) of `site` into `out` (appended),
  // site_id/sample_index filled. The one capture routine workers and the
  // in-process reference share.
  static void capture_site(const FleetConfig& config, std::uint32_t site,
                           std::uint32_t first, std::uint32_t count,
                           std::vector<core::RawSample>& out);

 private:
  struct Slot;
  struct ThreadTally;

  void aggregator_loop(std::vector<Slot*>& owned, SampleMatrix& matrix,
                       ThreadTally& tally);
  // Aggregator side: counts an event and wakes the coordinator, which waits
  // until the count differs from the one it last saw (or 1 ms passes).
  void notify_coordinator();
  std::uint64_t wait_for_event(std::uint64_t seen);

  FleetConfig config_;
  std::vector<std::vector<std::uint32_t>> parts_;
  core::DecodeLadder ladder_;
  std::vector<std::unique_ptr<Slot>> slots_;
  // Index: logical worker. Set by whichever aggregator thread processes the
  // worker's kDone; read by the coordinator loop after each wake-up.
  std::unique_ptr<std::atomic<bool>[]> logical_done_;
  std::atomic<bool> stop_{false};
  // Aggregator → coordinator wake-up: a counter bumped under the mutex, so
  // an event between the coordinator's checks and its wait is never lost.
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::uint64_t events_ = 0;
  bool ran_ = false;
};

}  // namespace psnt::fleet
