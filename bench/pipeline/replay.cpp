// Traced replay: one round of the workload's configuration, single-threaded.
// Each layer's public calls are timed per batch, chunk or span — never per
// sample — and reported as the median cost per sample. Engines are built the
// way the grid builds them; the rest of the pipeline replays the captured
// round through the same calls the drain, the store and the wire make.
#include <algorithm>
#include <limits>

#include "calib/fit.h"
#include "core/measure_engine.h"
#include "core/streaming_encoder.h"
#include "grid/spsc_ring.h"
#include "net/wire.h"
#include "pipeline.h"
#include "serve/query.h"
#include "util/error.h"

namespace psnt::bench {

namespace {

constexpr std::size_t kBatch = 96;        // ScanGridConfig::batch default
constexpr std::size_t kDrainChunk = 256;  // the grid drain's chunk
constexpr std::size_t kSpan = 64;         // FleetConfig::span_samples default
constexpr std::size_t kRepeats = 256;     // publishes / queries timed
constexpr std::size_t kConstructions = 16;  // round constructors timed

// Median cost per unit over timed batches.
class BatchTimes {
 public:
  void add(std::int64_t ns, std::size_t units) {
    times_.add(static_cast<double>(ns) / static_cast<double>(units));
  }
  [[nodiscard]] double median() const { return times_.quantile(0.5); }

 private:
  Reservoir times_{std::size_t{1} << 16};
};

template <typename Fn>
void time_chunks(std::size_t n, std::size_t chunk, BatchTimes& times, Fn fn) {
  for (std::size_t base = 0; base < n; base += chunk) {
    const std::size_t count = std::min(chunk, n - base);
    const std::int64_t t0 = now_ns();
    fn(base, count);
    times.add(now_ns() - t0, count);
  }
}

std::size_t sketch_heap_bytes(const serve::HistogramSketch& sketch) {
  return sketch.config().bucket_count * sizeof(std::uint64_t);
}

// Bytes one publish copies into a fresh ShardSnapshot.
std::size_t snapshot_bytes(const serve::ShardSnapshot& snap) {
  std::size_t bytes = sizeof(snap) + sketch_heap_bytes(snap.voltage) +
                      sketch_heap_bytes(snap.latency) +
                      snap.top_droop.size() * sizeof(snap.top_droop.front());
  for (const serve::SiteSnapshot& site : snap.sites) {
    bytes += sizeof(site);
    for (const serve::WindowSlot& slot : site.windows) {
      bytes += sizeof(slot) + sketch_heap_bytes(slot.sketch);
    }
  }
  return bytes;
}

// A round's constructor (grid::ScanGrid or fleet::FleetCoordinator), median
// of kConstructions builds; destruction is untimed.
template <typename Round, typename... Args>
double round_setup_ms(const Args&... args) {
  BatchTimes times;
  for (std::size_t i = 0; i < kConstructions; ++i) {
    const std::int64_t t0 = now_ns();
    const Round round(args...);
    times.add(now_ns() - t0, 1);
  }
  return times.median() * 1e-6;
}

// Every layer downstream of capture, over one captured round.
void time_downstream(const std::vector<core::RawSample>& round,
                     std::size_t sites, Metrics& m) {
  const std::size_t n = round.size();
  PSNT_CHECK(n > 0, "replay captured no samples");
  std::vector<core::ThermoWord> words(n);
  std::vector<core::DelayCode> codes(n);
  for (std::size_t i = 0; i < n; ++i) {
    words[i] = round[i].word;
    codes[i] = round[i].code;
  }

  {  // grid: one batch in and out of a shard ring
    grid::SpscRing<core::RawSample> ring(256);
    std::vector<core::RawSample> in(kBatch);
    std::vector<core::RawSample> out(kBatch);
    BatchTimes times;
    for (std::size_t base = 0; base < n; base += kBatch) {
      const std::size_t count = std::min(kBatch, n - base);
      std::copy_n(round.begin() + static_cast<std::ptrdiff_t>(base), count,
                  in.begin());
      const std::int64_t t0 = now_ns();
      const std::size_t pushed = ring.try_push_span(in.data(), count);
      const std::size_t popped = ring.try_pop_span(out.data(), count);
      times.add(now_ns() - t0, count);
      PSNT_CHECK(pushed == count && popped == count, "replay ring lost data");
    }
    m["grid.ring_ns_per_sample"] = times.median();
  }

  {  // core: drain-pass ENC
    core::StreamingEncoder encoder;
    std::vector<core::EncodedWord> encoded(kDrainChunk);
    BatchTimes times;
    time_chunks(n, kDrainChunk, times, [&](std::size_t base, std::size_t count) {
      encoder.encode_span(words.data() + base, count, encoded.data());
    });
    m["core.encode_ns_per_sample"] = times.median();
  }

  std::vector<core::VoltageBin> bins(n);
  {  // core: drain-pass voltage conversion
    const core::DecodeLadder ladder =
        calib::make_paper_decode_ladder(calib::calibrated().model);
    BatchTimes times;
    time_chunks(n, kDrainChunk, times, [&](std::size_t base, std::size_t count) {
      ladder.decode_span(words.data() + base, codes.data() + base, count,
                         bins.data() + base);
    });
    m["core.decode_ns_per_sample"] = times.median();
  }

  std::vector<serve::IngestRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].site = round[i].site_id;
    records[i].timestamp = round[i].timestamp;
    records[i].volts = bins[i].estimate().value();
    records[i].latency_us = 0.1;
    records[i].in_range = bins[i].in_range();
  }
  // Publication is timed on its own, so ingest runs with auto-publish off.
  serve::StoreConfig no_publish = store_config(sites);
  no_publish.publish_every = std::numeric_limits<std::size_t>::max();
  const std::size_t publish_every = store_config(sites).publish_every;

  {  // serve: single-writer ingest, publish, queries
    serve::TelemetryStore store(no_publish);
    BatchTimes ingest;
    time_chunks(n, kDrainChunk, ingest, [&](std::size_t base, std::size_t count) {
      for (std::size_t i = base; i < base + count; ++i) store.ingest(records[i]);
    });
    m["serve.ingest_ns_per_sample"] = ingest.median();

    BatchTimes publish;
    for (std::size_t i = 0; i < kRepeats; ++i) {
      const std::int64_t t0 = now_ns();
      store.publish(0);
      publish.add(now_ns() - t0, 1);
    }
    m["serve.publish_us"] = publish.median() * 1e-3;
    m["serve.publish_ns_per_sample"] =
        publish.median() / static_cast<double>(publish_every);
    m["serve.snapshot_kb"] =
        static_cast<double>(snapshot_bytes(*store.snapshot().shards.front())) /
        1024.0;

    serve::QueryEngine query(store);
    double sink = 0.0;
    BatchTimes cached;
    BatchTimes after_publish;
    for (std::size_t i = 0; i < kRepeats; ++i) {
      const auto site = static_cast<std::uint32_t>(i % sites);
      std::int64_t t0 = now_ns();
      sink += dashboard_query(query, site);
      cached.add(now_ns() - t0, 1);
      store.publish(0);
      t0 = now_ns();
      sink += dashboard_query(query, site);
      after_publish.add(now_ns() - t0, 1);
    }
    PSNT_CHECK(sink != 0.0, "replay queries returned nothing");
    m["serve.query_cached_us"] = cached.median() * 1e-3;
    m["serve.query_after_publish_us"] = after_publish.median() * 1e-3;
  }

  {  // serve: the fleet's locked multi-writer ingest
    serve::TelemetryStore store(no_publish);
    BatchTimes times;
    time_chunks(n, kDrainChunk, times, [&](std::size_t base, std::size_t count) {
      for (std::size_t i = base; i < base + count; ++i) {
        store.ingest_locked(records[i]);
      }
    });
    m["serve.ingest_locked_ns_per_sample"] = times.median();
  }

  {  // net: span encode (framing + CRC), parse, per-sample decode
    std::vector<std::uint8_t> buffer;
    net::FrameParser parser;
    core::RawSample decoded;
    BatchTimes encode;
    BatchTimes parse;
    BatchTimes decode;
    std::size_t bytes = 0;
    std::uint32_t seq = 0;
    for (std::size_t base = 0; base < n; base += kSpan) {
      const std::size_t count = std::min(kSpan, n - base);
      net::SpanHeader header;
      header.seq = seq++;
      buffer.clear();
      std::int64_t t0 = now_ns();
      net::FrameWriter::append_sample_span(buffer, header, round.data() + base,
                                           count);
      encode.add(now_ns() - t0, count);
      bytes += buffer.size();

      t0 = now_ns();
      parser.feed(buffer.data(), buffer.size());
      const auto frame = parser.next();
      parse.add(now_ns() - t0, count);
      PSNT_CHECK(frame.has_value(), "replay span did not parse");

      bool ok = true;
      t0 = now_ns();
      for (std::size_t i = 0; i < count; ++i) {
        ok = !net::decode_span_sample(*frame, i, decoded) && ok;
      }
      decode.add(now_ns() - t0, count);
      PSNT_CHECK(ok, "replay span sample did not decode");
    }
    m["net.encode_ns_per_sample"] = encode.median();
    m["net.parse_ns_per_sample"] = parse.median();
    m["net.decode_ns_per_sample"] = decode.median();
    m["net.bytes_per_sample"] =
        static_cast<double>(bytes) / static_cast<double>(n);
  }
}

}  // namespace

namespace {

// Builds one engine per site the way the grid does, over rails from
// `factory` (kept alive in `rails`); `build` times each construction.
std::vector<core::EngineHandle> build_engines(
    const GridWorkload& w, const grid::RailFactory& factory,
    std::vector<std::unique_ptr<analog::RailSource>>& rails,
    BatchTimes& build) {
  const grid::ScanGridConfig& config = w.config;
  const auto& model = calib::calibrated().model;
  const bool behavioral = config.fidelity == grid::SiteFidelity::kBehavioral;
  core::EngineSiteOptions options;
  options.fault_hooks = config.injector != nullptr;
  options.code_policy.initial = config.code;
  options.code_policy.window = config.code_window;
  options.code_policy.auto_range =
      config.code_policy == grid::CodePolicy::kAutoRange;

  std::vector<core::EngineHandle> engines;
  for (const auto& site : w.floorplan.sites()) {
    auto rng = grid::ScanGrid::site_rng(config.seed, site.id);
    rails.push_back(factory(site, rng));
    const analog::RailPair pair{rails.back().get(), nullptr};
    const std::int64_t t0 = now_ns();
    engines.push_back(
        behavioral
            ? core::make_behavioral_engine(
                  calib::make_paper_engine(model, config.thermometer), pair,
                  options)
            : core::make_structural_engine(
                  calib::make_paper_array(model),
                  core::PulseGenerator{model.pg_config()}, pair,
                  config.thermometer.control_period, options));
    build.add(now_ns() - t0, 1);
  }
  if (behavioral) {
    core::IMeasureEngine& first = *engines.front();
    if (core::prewarm_sense_ladders(first, first.context().current_code())) {
      for (std::size_t i = 1; i < engines.size(); ++i) {
        (void)core::share_sense_ladders(*engines[i], first);
      }
    }
  }
  return engines;
}

// One site batch, captured as a shard worker captures it: auto-ranged and
// chaos sites one sample per call, every other site the whole batch at once.
void capture_batch(core::IMeasureEngine& engine, std::size_t base,
                   std::size_t count, bool per_sample,
                   std::vector<core::RawSample>& out) {
  const Picoseconds interval{kIntervalPs};
  core::MeasureRequest req;
  if (!per_sample) {
    req.start = Picoseconds{static_cast<double>(base) * kIntervalPs};
    engine.measure_raw_batch(req, interval, count, out);
    return;
  }
  for (std::size_t k = base; k < base + count; ++k) {
    req.start = Picoseconds{static_cast<double>(k) * kIntervalPs};
    engine.measure_raw_batch(req, interval, 1, out);
  }
}

}  // namespace

Metrics replay_grid(const GridWorkload& w) {
  const grid::ScanGridConfig& config = w.config;
  const bool per_sample = config.code_policy == grid::CodePolicy::kAutoRange ||
                          config.injector != nullptr;
  const std::size_t samples = config.samples_per_site;
  Metrics m;
  m["pipeline.round_setup_ms"] =
      round_setup_ms<grid::ScanGrid>(w.floorplan, w.config, w.rails);
  std::vector<std::unique_ptr<analog::RailSource>> rails;  // outlive engines
  BatchTimes build;
  const std::vector<core::EngineHandle> engines =
      build_engines(w, w.rails, rails, build);
  const std::size_t sites = engines.size();
  m["core.engine_build_us"] = build.median() * 1e-3;

  // Batch-major over sites, like a shard worker.
  std::vector<core::RawSample> round;
  round.reserve(sites * samples);
  std::vector<core::RawSample> batch;
  BatchTimes capture;
  for (std::size_t base = 0; base < samples; base += kBatch) {
    const std::size_t count = std::min(kBatch, samples - base);
    for (std::size_t i = 0; i < sites; ++i) {
      batch.clear();
      const std::int64_t t0 = now_ns();
      capture_batch(*engines[i], base, count, per_sample, batch);
      capture.add(now_ns() - t0, count);
      for (std::size_t k = 0; k < count; ++k) {
        batch[k].site_id = static_cast<std::uint32_t>(i);
        batch[k].sample_index = static_cast<std::uint32_t>(base + k);
        round.push_back(batch[k]);
      }
    }
  }
  m["core.capture_ns_per_sample"] = capture.median();

  // The stamps' price: the same batches through engines over stamping rails,
  // interleaved with the plain engines in alternating order.
  m["pipeline.stamp_overhead_frac"] = 0.0;
  if (w.stamped) {
    StampTable table(sites);
    const std::vector<core::EngineHandle> stamped =
        build_engines(w, stamping_rails(w.rails, table), rails, build);
    BatchTimes plain_times;
    BatchTimes stamped_times;
    for (std::size_t base = 0; base < samples; base += kBatch) {
      const std::size_t count = std::min(kBatch, samples - base);
      for (std::size_t i = 0; i < sites; ++i) {
        for (std::size_t pass = 0; pass < 2; ++pass) {
          const bool stamp = (pass + i + base / kBatch) % 2 == 1;
          batch.clear();
          const std::int64_t t0 = now_ns();
          capture_batch(stamp ? *stamped[i] : *engines[i], base, count,
                        per_sample, batch);
          (stamp ? stamped_times : plain_times).add(now_ns() - t0, count);
        }
      }
    }
    m["pipeline.stamp_overhead_frac"] =
        stamped_times.median() / plain_times.median() - 1.0;
  }
  time_downstream(round, sites, m);
  return m;
}

Metrics replay_fleet(const fleet::FleetConfig& config) {
  Metrics m;
  m["pipeline.round_setup_ms"] =
      round_setup_ms<fleet::FleetCoordinator>(config);

  // A worker's capture, as FleetCoordinator::capture_site makes it: one
  // engine and one batch per site.
  BatchTimes build;
  BatchTimes capture;
  std::vector<core::RawSample> round;
  round.reserve(config.sites * config.samples_per_site);
  core::MeasureRequest req;
  req.start = config.start;
  req.target = core::SenseTarget::kVdd;
  req.code = config.code;
  for (std::uint32_t site = 0; site < config.sites; ++site) {
    std::int64_t t0 = now_ns();
    const fleet::FleetCoordinator::SiteEngine se =
        fleet::FleetCoordinator::make_site_engine(config, site);
    build.add(now_ns() - t0, 1);
    const std::size_t base = round.size();
    t0 = now_ns();
    se.engine->measure_raw_batch(req, config.interval, config.samples_per_site,
                                 round);
    capture.add(now_ns() - t0, config.samples_per_site);
    for (std::size_t i = base; i < round.size(); ++i) {
      round[i].site_id = site;
      round[i].sample_index = static_cast<std::uint32_t>(i - base);
    }
  }
  m["core.engine_build_us"] = build.median() * 1e-3;
  m["core.capture_ns_per_sample"] = capture.median();
  m["pipeline.stamp_overhead_frac"] = 0.0;  // fleet rails are never stamped
  time_downstream(round, config.sites, m);
  return m;
}

}  // namespace psnt::bench
