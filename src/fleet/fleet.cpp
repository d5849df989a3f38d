#include "fleet/fleet.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "calib/fit.h"
#include "grid/scan_grid.h"
#include "grid/spsc_ring.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/store.h"
#include "util/error.h"

namespace psnt::fleet {
namespace {

constexpr double kTwoPi = 6.283185307179586;
// Enough latency samples for stable p99 without unbounded growth.
constexpr std::size_t kMaxLatencySamples = 1u << 20;

std::int64_t elapsed_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// --- worker (child-process) side ------------------------------------------

// Captures one assignment and streams it out: capture thread → SpscRing →
// framed spans in a BufferedWriter with explicit flush when the ring idles.
void run_worker_assignment(const FleetConfig& config,
                           const std::vector<std::uint32_t>& sites,
                           const net::AssignPayload& assign,
                           const net::Fd& conn, std::uint32_t& seq) {
  grid::SpscRing<core::RawSample> ring(config.ring_capacity);
  std::atomic<bool> capture_done{false};

  std::thread producer([&] {
    std::vector<core::RawSample> scratch;
    for (const std::uint32_t site : sites) {
      scratch.clear();
      FleetCoordinator::capture_site(config, site, assign.first_sample,
                                     assign.sample_count, scratch);
      std::size_t pushed = 0;
      while (pushed < scratch.size()) {
        const std::size_t n = ring.try_push_span(scratch.data() + pushed,
                                                 scratch.size() - pushed);
        if (n == 0) {
          std::this_thread::yield();  // lossless backpressure
          continue;
        }
        pushed += n;
      }
    }
    capture_done.store(true, std::memory_order_release);
  });

  net::BufferedWriter writer(conn, config.flush_threshold,
                             config.io_deadline_ms);
  std::vector<core::RawSample> span(config.span_samples);
  std::uint64_t produced = 0;
  for (;;) {
    const std::size_t n = ring.try_pop_span(span.data(), span.size());
    if (n == 0) {
      // Ring idle: everything batched so far goes out NOW — the explicit
      // flush that bounds worker-side latency when capture is the
      // bottleneck.
      (void)writer.flush();
      if (capture_done.load(std::memory_order_acquire) && ring.empty()) break;
      std::this_thread::yield();
      continue;
    }
    produced += n;
    // A latched writer failure (dead coordinator) stops sends but not the
    // ring drain: the producer must never block on a full ring forever.
    if (writer.status() == net::IoStatus::kOk) {
      net::SpanHeader header;
      header.worker = assign.worker;
      header.seq = seq++;
      header.send_ns = net::monotonic_ns();
      net::FrameWriter::append_sample_span(writer.buffer(), header,
                                           span.data(), n);
      if (writer.buffer().size() >= config.flush_threshold) {
        (void)writer.flush();
      }
    }
  }
  producer.join();

  if (writer.status() == net::IoStatus::kOk) {
    net::DonePayload done;
    done.worker = assign.worker;
    done.produced = produced;
    net::FrameWriter::append_done(writer.buffer(), done);
    (void)writer.flush();
  }
}

// Child-process entry: wait for kAssign frames (a spare may wait a long
// time), run each assignment, exit on kShutdown or a dead coordinator.
// Exits with _exit so no parent-side state (atexit handlers, buffered
// streams) runs twice.
[[noreturn]] void worker_main(
    const FleetConfig& config,
    const std::vector<std::vector<std::uint32_t>>& parts, net::Fd conn) {
  net::FrameParser parser;
  std::uint32_t seq = 0;
  std::uint8_t chunk[4096];
  for (;;) {
    while (auto frame = parser.next()) {
      if (frame->type == net::FrameType::kShutdown) ::_exit(0);
      if (frame->type != net::FrameType::kAssign) continue;
      net::AssignPayload assign;
      if (net::decode_assign(*frame, assign) || assign.worker >= parts.size()) {
        ::_exit(1);
      }
      run_worker_assignment(config, parts[assign.worker], assign, conn, seq);
    }
    if (parser.failed()) ::_exit(1);
    std::size_t got = 0;
    const net::IoStatus st = net::recv_some(conn, chunk, sizeof(chunk),
                                            /*deadline_ms=*/60000, got);
    if (st == net::IoStatus::kTimeout) continue;
    if (st != net::IoStatus::kOk) ::_exit(0);
    parser.feed(chunk, got);
  }
}

bool send_frames(const net::Fd& fd, const std::vector<std::uint8_t>& tx,
                 int deadline_ms) {
  return net::send_all(fd, tx.data(), tx.size(), deadline_ms) ==
         net::IoStatus::kOk;
}

}  // namespace

// --- SampleMatrix ----------------------------------------------------------

std::uint64_t SampleMatrix::count_valid() const {
  std::uint64_t n = 0;
  for (const std::uint8_t v : valid) n += v;
  return n;
}

bool SampleMatrix::identical_to(const SampleMatrix& other) const {
  if (sites != other.sites || samples != other.samples) return false;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    if (valid[i] != other.valid[i]) return false;
    if (!valid[i]) continue;
    if (words[i].raw() != other.words[i].raw() ||
        words[i].width() != other.words[i].width() ||
        code_values[i] != other.code_values[i]) {
      return false;
    }
  }
  return true;
}

// --- deterministic site capture (shared by workers and the reference) ------

FleetCoordinator::SiteEngine FleetCoordinator::make_site_engine(
    const FleetConfig& config, std::uint32_t site) {
  // Same per-site stream the grid's rail factories draw from: capture is a
  // pure function of (seed, site, sample) no matter which process runs it —
  // the property every conformance and restart guarantee rests on.
  stats::Xoshiro256 rng = grid::ScanGrid::site_rng(config.seed, site);
  const double v_nom = config.thermometer.v_nominal.value();
  const double drop = std::abs(rng.normal(0.0, config.rail_sigma * 0.5));
  const double amp =
      std::abs(rng.normal(config.rail_sigma, config.rail_sigma * 0.5));
  const double period_ps = rng.uniform(20000.0, 80000.0);
  const double phase = rng.uniform(0.0, kTwoPi);

  SiteEngine out;
  out.vdd = std::make_unique<analog::CallbackRail>([=](Picoseconds t) {
    return Volt{v_nom - drop +
                amp * std::sin(phase + kTwoPi * t.value() / period_ps)};
  });
  out.gnd = std::make_unique<analog::ConstantRail>(Volt{0.0});
  core::EngineSiteOptions options;
  options.code_policy.initial = config.code;
  out.engine = core::make_behavioral_engine(
      calib::make_paper_engine(calib::calibrated().model, config.thermometer),
      analog::RailPair{out.vdd.get(), out.gnd.get()}, options);
  return out;
}

void FleetCoordinator::capture_site(const FleetConfig& config,
                                    std::uint32_t site, std::uint32_t first,
                                    std::uint32_t count,
                                    std::vector<core::RawSample>& out) {
  SiteEngine se = make_site_engine(config, site);
  core::MeasureRequest req;
  req.start = Picoseconds{config.start.value() +
                          static_cast<double>(first) * config.interval.value()};
  req.target = core::SenseTarget::kVdd;
  req.code = config.code;
  const std::size_t base = out.size();
  se.engine->measure_raw_batch(req, config.interval, count, out);
  for (std::size_t i = base; i < out.size(); ++i) {
    out[i].site_id = site;
    out[i].sample_index = first + static_cast<std::uint32_t>(i - base);
  }
}

SampleMatrix FleetCoordinator::run_in_process(const FleetConfig& config) {
  SampleMatrix m(config.sites, config.samples_per_site);
  std::vector<core::RawSample> buf;
  for (std::uint32_t site = 0; site < config.sites; ++site) {
    buf.clear();
    capture_site(config, site, 0,
                 static_cast<std::uint32_t>(config.samples_per_site), buf);
    for (const core::RawSample& s : buf) {
      const std::size_t idx = m.index(s.site_id, s.sample_index);
      m.words[idx] = s.word;
      m.code_values[idx] = s.code.value();
      m.valid[idx] = 1;
    }
  }
  return m;
}

// --- coordinator -----------------------------------------------------------

struct FleetCoordinator::Slot {
  net::Fd parent_end;
  net::Fd child_end;  // valid only between socketpair() and fork()
  pid_t pid = -1;
  int assigned = -1;  // logical worker; coordinator-thread confined
  // Set (release) by the one aggregator thread reading this slot once the
  // connection is fully drained; the coordinator's restart logic acquires it
  // before re-assigning, which sequences the spare's matrix writes after the
  // dead worker's.
  std::atomic<bool> closed{false};
  net::FrameParser parser;  // reader-thread confined
};

// Per-aggregator-thread tallies, merged after join (no shared counters on
// the drain hot path).
struct FleetCoordinator::ThreadTally {
  std::uint64_t spans = 0;
  std::uint64_t frames = 0;
  std::uint64_t truncated_tails = 0;
  std::uint64_t frame_errors = 0;
  core::StreamingEncodeStats enc;
  std::vector<std::uint64_t> latencies;
};

FleetCoordinator::FleetCoordinator(FleetConfig config)
    : config_(std::move(config)),
      parts_(config_.partition.shard(config_.sites, config_.workers)),
      ladder_(calib::make_paper_decode_ladder(calib::calibrated().model)) {
  PSNT_CHECK(config_.sites > 0, "fleet needs at least one site");
  PSNT_CHECK(config_.samples_per_site > 0, "fleet needs samples");
  grid::check_schedule(config_.start, config_.interval);
  PSNT_CHECK(config_.workers > 0, "fleet needs at least one worker");
  PSNT_CHECK(config_.aggregator_threads > 0, "fleet needs an aggregator");
  PSNT_CHECK(config_.span_samples > 0, "span_samples must be positive");
  // A larger span frame would exceed the parser's payload ceiling, and the
  // aggregator would drop the worker's stream as kBadLength.
  PSNT_CHECK(config_.span_samples <= net::kMaxSpanSamples,
             "span_samples exceeds one frame's capacity");
  logical_done_ = std::make_unique<std::atomic<bool>[]>(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    logical_done_[w].store(false, std::memory_order_relaxed);
  }
}

FleetCoordinator::~FleetCoordinator() = default;

void FleetCoordinator::schedule_kill(std::size_t worker, int after_ms) {
  PSNT_CHECK(worker < config_.workers, "kill target must be a primary slot");
  kills_.push_back(KillPlan{worker, after_ms, false});
}

void FleetCoordinator::aggregator_loop(std::vector<Slot*>& owned,
                                       SampleMatrix& matrix,
                                       ThreadTally& tally) {
  core::StreamingEncoder encoder;
  serve::TelemetryStore* store = config_.store.get();
  std::vector<std::uint8_t> chunk(1u << 16);
  core::RawSample sample;

  for (;;) {
    bool any_open = false;
    bool progressed = false;
    for (Slot* slot : owned) {
      if (slot->closed.load(std::memory_order_relaxed)) continue;
      any_open = true;
      std::size_t got = 0;
      const net::IoStatus st = net::recv_some(
          slot->parent_end, chunk.data(), chunk.size(), /*deadline_ms=*/0, got);
      if (st == net::IoStatus::kTimeout) continue;
      progressed = true;
      if (st != net::IoStatus::kOk) {
        // Connection gone. A partial trailing frame is the benign kill
        // signature — complete CRC-verified frames before the cut were
        // already accepted; the tail is counted, never decoded.
        if (slot->parser.bytes_pending() > 0) ++tally.truncated_tails;
        slot->closed.store(true, std::memory_order_release);
        continue;
      }
      slot->parser.feed(chunk.data(), got);
      double last_latency_us = 0.0;
      while (auto frame = slot->parser.next()) {
        ++tally.frames;
        if (frame->type == net::FrameType::kDone) {
          net::DonePayload done;
          if (!net::decode_done(*frame, done) &&
              done.worker < config_.workers) {
            logical_done_[done.worker].store(true, std::memory_order_release);
          }
          continue;
        }
        if (frame->type != net::FrameType::kSampleSpan) continue;
        net::SpanHeader span;
        std::size_t count = 0;
        if (net::decode_span_header(*frame, span) ||
            net::span_sample_count(*frame, count)) {
          ++tally.frame_errors;
          continue;
        }
        ++tally.spans;
        const std::uint64_t now = net::monotonic_ns();
        const std::uint64_t lat = now > span.send_ns ? now - span.send_ns : 0;
        last_latency_us = static_cast<double>(lat) * 1e-3;
        if (tally.latencies.size() < kMaxLatencySamples) {
          tally.latencies.push_back(lat);
        }
        for (std::size_t i = 0; i < count; ++i) {
          if (net::decode_span_sample(*frame, i, sample)) {
            ++tally.frame_errors;
            break;
          }
          if (sample.site_id >= matrix.sites ||
              sample.sample_index >= matrix.samples) {
            ++tally.frame_errors;
            continue;
          }
          const std::size_t idx =
              matrix.index(sample.site_id, sample.sample_index);
          matrix.words[idx] = sample.word;
          matrix.code_values[idx] = sample.code.value();
          matrix.valid[idx] = 1;
          // The drain pass proper: ENC + voltage conversion + serving.
          (void)encoder.encode(sample.word);
          if (store != nullptr) {
            const core::VoltageBin bin =
                ladder_.decode(sample.word, sample.code);
            serve::IngestRecord rec;
            rec.site = sample.site_id;
            rec.timestamp = sample.timestamp;
            rec.volts = bin.estimate().value();
            rec.latency_us = last_latency_us;
            rec.in_range = bin.in_range();
            rec.valid = true;
            store->ingest_locked(rec);
          }
        }
      }
      if (slot->parser.failed()) {
        ++tally.frame_errors;
        slot->closed.store(true, std::memory_order_release);
      }
    }
    if (!any_open) break;
    if (stop_.load(std::memory_order_acquire)) break;
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  tally.enc = encoder.stats();
}

FleetResult FleetCoordinator::run() {
  PSNT_CHECK(!ran_, "FleetCoordinator::run is single-shot");
  ran_ = true;

  FleetResult result;
  result.matrix = SampleMatrix(config_.sites, config_.samples_per_site);
  result.samples_expected =
      static_cast<std::uint64_t>(config_.sites) * config_.samples_per_site;

  const std::size_t total_slots = config_.workers + config_.spares;

  // 1) All transports first, then ALL forks — while this process is still
  //    single-threaded (fork-with-threads is undefined enough that TSan
  //    rejects it, and the spare-based restart design never needs it).
  slots_.reserve(total_slots);
  for (std::size_t s = 0; s < total_slots; ++s) {
    auto slot = std::make_unique<Slot>();
    auto [parent_end, child_end] = net::socketpair_stream();
    slot->parent_end = std::move(parent_end);
    slot->child_end = std::move(child_end);
    slots_.push_back(std::move(slot));
  }
  for (std::size_t s = 0; s < total_slots; ++s) {
    const pid_t pid = ::fork();
    PSNT_CHECK(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: drop every fd that is not this slot's own transport, so a
      // sibling's death is visible to the parent as EOF immediately.
      net::Fd mine = std::move(slots_[s]->child_end);
      for (auto& other : slots_) {
        other->parent_end.reset();
        other->child_end.reset();
      }
      worker_main(config_, parts_, std::move(mine));  // never returns
    }
    slots_[s]->pid = pid;
    slots_[s]->child_end.reset();
  }

  const auto t0 = std::chrono::steady_clock::now();

  // 2) Assign the primaries (spares idle until a restart consumes them).
  std::vector<std::uint8_t> tx;
  for (std::size_t w = 0; w < config_.workers; ++w) {
    tx.clear();
    net::AssignPayload assign;
    assign.worker = static_cast<std::uint32_t>(w);
    assign.first_sample = 0;
    assign.sample_count = static_cast<std::uint32_t>(config_.samples_per_site);
    net::FrameWriter::append_assign(tx, assign);
    if (send_frames(slots_[w]->parent_end, tx, config_.io_deadline_ms)) {
      slots_[w]->assigned = static_cast<int>(w);
    }
  }

  // 3) Aggregator threads: connections sharded round-robin across threads
  //    (a thread may own several connections; a connection is owned by
  //    exactly one thread — the parser is single-reader state).
  const std::size_t threads = config_.aggregator_threads;
  std::vector<std::vector<Slot*>> owned(threads);
  for (std::size_t s = 0; s < total_slots; ++s) {
    owned[s % threads].push_back(slots_[s].get());
  }
  std::vector<ThreadTally> tallies(threads);
  std::vector<std::thread> aggregators;
  aggregators.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    aggregators.emplace_back([this, &owned, &tallies, &result, t] {
      aggregator_loop(owned[t], result.matrix, tallies[t]);
    });
  }

  // 4) Coordinator loop: fire scheduled kills, restart dead assignments
  //    onto spares, finish when every logical worker is done or lost.
  std::vector<std::uint8_t> handled(total_slots, 0);
  std::vector<std::uint8_t> logical_lost(config_.workers, 0);
  std::size_t next_spare = config_.workers;
  result.completed = false;
  for (;;) {
    const std::int64_t elapsed = elapsed_ms_since(t0);
    for (KillPlan& kill : kills_) {
      if (kill.fired || elapsed < kill.after_ms) continue;
      kill.fired = true;
      Slot& victim = *slots_[kill.worker];
      if (victim.pid > 0 && !victim.closed.load(std::memory_order_acquire)) {
        ::kill(victim.pid, SIGKILL);
        ++result.workers_killed;
      }
    }

    for (std::size_t s = 0; s < total_slots; ++s) {
      Slot& slot = *slots_[s];
      if (handled[s] || !slot.closed.load(std::memory_order_acquire)) continue;
      handled[s] = 1;
      const int logical = slot.assigned;
      if (logical < 0 ||
          logical_done_[logical].load(std::memory_order_acquire)) {
        continue;
      }
      // The assignment died mid-run. Hand the WHOLE assignment to a spare:
      // capture is deterministic, so the re-run overwrites any slots the
      // dead worker already delivered with bit-identical values.
      bool restarted = false;
      while (next_spare < total_slots && !restarted) {
        Slot& spare = *slots_[next_spare];
        ++next_spare;
        if (spare.closed.load(std::memory_order_acquire) ||
            spare.assigned >= 0) {
          continue;
        }
        tx.clear();
        net::AssignPayload assign;
        assign.worker = static_cast<std::uint32_t>(logical);
        assign.first_sample = 0;
        assign.sample_count =
            static_cast<std::uint32_t>(config_.samples_per_site);
        net::FrameWriter::append_assign(tx, assign);
        if (send_frames(spare.parent_end, tx, config_.io_deadline_ms)) {
          spare.assigned = logical;
          ++result.workers_restarted;
          restarted = true;
        }
      }
      if (!restarted) {
        logical_lost[logical] = 1;
        ++result.assignments_lost;
      }
    }

    bool all_resolved = true;
    for (std::size_t w = 0; w < config_.workers; ++w) {
      if (!logical_done_[w].load(std::memory_order_acquire) &&
          !logical_lost[w]) {
        all_resolved = false;
        break;
      }
    }
    if (all_resolved) {
      result.completed = true;
      break;
    }
    if (elapsed > config_.run_deadline_ms) break;  // wedge guard
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 5) Shutdown: ask every live child to exit; their EOFs let the
  //    aggregator threads drain out naturally. stop_ is the backstop.
  tx.clear();
  net::FrameWriter::append_shutdown(tx);
  for (auto& slot : slots_) {
    if (slot->pid > 0 && !slot->closed.load(std::memory_order_acquire)) {
      (void)send_frames(slot->parent_end, tx, 250);
    }
  }
  const auto shutdown_t0 = std::chrono::steady_clock::now();
  for (;;) {
    bool all_closed = true;
    for (auto& slot : slots_) {
      if (!slot->closed.load(std::memory_order_acquire)) all_closed = false;
    }
    if (all_closed || elapsed_ms_since(shutdown_t0) > 3000) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : aggregators) t.join();

  // 6) Reap every child (SIGKILL the stragglers so waitpid cannot wedge).
  for (auto& slot : slots_) {
    if (slot->pid <= 0) continue;
    int status = 0;
    const auto reap_t0 = std::chrono::steady_clock::now();
    for (;;) {
      const pid_t got = ::waitpid(slot->pid, &status, WNOHANG);
      if (got == slot->pid || got < 0) break;
      if (elapsed_ms_since(reap_t0) > 2000) {
        ::kill(slot->pid, SIGKILL);
        (void)::waitpid(slot->pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    slot->pid = -1;
  }

  // 7) Merge tallies and finish the books.
  for (ThreadTally& tally : tallies) {
    result.spans += tally.spans;
    result.frames += tally.frames;
    result.truncated_tails += tally.truncated_tails;
    result.frame_errors += tally.frame_errors;
    result.enc.words += tally.enc.words;
    result.enc.underflows += tally.enc.underflows;
    result.enc.overflows += tally.enc.overflows;
    result.enc.bubbled_words += tally.enc.bubbled_words;
    result.enc.bubble_errors += tally.enc.bubble_errors;
    result.enc.rejected += tally.enc.rejected;
    result.span_latency_ns.insert(result.span_latency_ns.end(),
                                  tally.latencies.begin(),
                                  tally.latencies.end());
  }
  result.samples_valid = result.matrix.count_valid();
  result.samples_lost = result.samples_expected - result.samples_valid;
  result.wall_seconds =
      static_cast<double>(elapsed_ms_since(t0)) * 1e-3;
  result.samples_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.samples_valid) / result.wall_seconds
          : 0.0;

  // Mirror losses into the serving layer, the same shape a quarantined grid
  // site reports through (degradation telemetry, DESIGN.md §13).
  if (config_.store) {
    serve::DegradationStatus degradation;
    degradation.samples_lost = result.samples_lost;
    degradation.sites_quarantined = result.assignments_lost;
    config_.store->set_degradation(degradation);
    config_.store->publish_all();
  }
  return result;
}

}  // namespace psnt::fleet
