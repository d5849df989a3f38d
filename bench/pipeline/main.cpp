// bench_pipeline — one workload per process, one JSON object on stdout.
//
//   bench_pipeline --workload NAME --seed N --seconds S [--trace]
//                  [--t0-ns NS] [--setup-only]
//   bench_pipeline --smoke
//
// --t0-ns is the launcher's CLOCK_MONOTONIC stamp taken just before it
// started this process; setup_s runs from there to the first round's run().
// --trace adds the per-layer replay. --smoke runs every workload for a 1 s
// traced window and checks that each run is correct and reports every metric.
// bench/pipeline/run.py runs it for repetitions, statistics and
// comparisons; see README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "pipeline.h"

namespace psnt::bench {
namespace {

enum class Kind { kEndToEnd, kPerLayer, kFleetOnly };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};

// Every metric the benchmark reports. BENCHMARK.json lists the end-to-end
// and per-layer ones; run.py checks the two agree on every run.
constexpr MetricDef kMetrics[] = {
    {"samples_per_s", "samples/s", Kind::kEndToEnd},
    {"fresh_p50_ms", "ms", Kind::kEndToEnd},
    {"setup_s", "s", Kind::kEndToEnd},
    {"rss_peak_mb", "MB", Kind::kEndToEnd},
    {"fail_frac", "fraction", Kind::kPerLayer},
    {"fresh_p99_ms", "ms", Kind::kPerLayer},
    {"query_p50_us", "us", Kind::kPerLayer},
    {"query_p99_us", "us", Kind::kPerLayer},
    {"core.capture_ns_per_sample", "ns", Kind::kPerLayer},
    {"core.encode_ns_per_sample", "ns", Kind::kPerLayer},
    {"core.decode_ns_per_sample", "ns", Kind::kPerLayer},
    {"core.code_steps_per_ksample", "count", Kind::kPerLayer},
    {"core.saturated_frac", "fraction", Kind::kPerLayer},
    {"core.engine_build_us", "us", Kind::kPerLayer},
    {"grid.ring_ns_per_sample", "ns", Kind::kPerLayer},
    {"grid.ring_stalls_per_ksample", "count", Kind::kPerLayer},
    {"grid.retries_per_ksample", "count", Kind::kPerLayer},
    {"grid.vote_overrides_per_ksample", "count", Kind::kPerLayer},
    {"grid.quarantined_per_round", "count", Kind::kPerLayer},
    {"fault.injected_per_ksample", "count", Kind::kPerLayer},
    {"serve.ingest_ns_per_sample", "ns", Kind::kPerLayer},
    {"serve.ingest_locked_ns_per_sample", "ns", Kind::kPerLayer},
    {"serve.publish_us", "us", Kind::kPerLayer},
    {"serve.publish_ns_per_sample", "ns", Kind::kPerLayer},
    {"serve.snapshot_kb", "KB", Kind::kPerLayer},
    {"serve.publishes_per_ksample", "count", Kind::kPerLayer},
    {"serve.query_cached_us", "us", Kind::kPerLayer},
    {"serve.query_after_publish_us", "us", Kind::kPerLayer},
    {"net.encode_ns_per_sample", "ns", Kind::kPerLayer},
    {"net.parse_ns_per_sample", "ns", Kind::kPerLayer},
    {"net.decode_ns_per_sample", "ns", Kind::kPerLayer},
    {"net.bytes_per_sample", "B", Kind::kPerLayer},
    {"fleet.frames_per_ksample", "count", Kind::kPerLayer},
    {"sim.events_per_sample", "count", Kind::kPerLayer},
    {"sim.allocs_per_sample", "count", Kind::kPerLayer},
    {"pipeline.round_setup_ms", "ms", Kind::kPerLayer},
    {"pipeline.capture_stage_ns", "ns", Kind::kPerLayer},
    {"pipeline.drain_stage_ns", "ns", Kind::kPerLayer},
    {"pipeline.wall_ns_per_sample", "ns", Kind::kPerLayer},
    {"pipeline.residual_frac", "fraction", Kind::kPerLayer},
    {"pipeline.cpu_ns_per_sample", "ns", Kind::kPerLayer},
    {"pipeline.stamp_overhead_frac", "fraction", Kind::kPerLayer},
    {"net.span_p50_us", "us", Kind::kFleetOnly},
    {"net.span_p99_us", "us", Kind::kFleetOnly},
};

// Stage costs per delivered sample and the share of wall time the slowest
// stage does not explain. Parallel stages are divided by their worker count.
void add_stages(const GridWorkload* grid, const fleet::FleetConfig* fleet,
                Metrics& m) {
  double capture = 0.0;
  double drain = 0.0;
  double slowest = 0.0;
  if (fleet != nullptr) {
    // A worker builds each site's engine before capturing it.
    const auto workers = static_cast<double>(fleet->workers);
    capture = (m["core.capture_ns_per_sample"] +
               m["core.engine_build_us"] * 1e3 /
                   static_cast<double>(fleet->samples_per_site)) /
              workers;
    const double wire = m["net.encode_ns_per_sample"] / workers;  // bridges
    drain = m["net.parse_ns_per_sample"] + m["net.decode_ns_per_sample"] +
            m["core.encode_ns_per_sample"] + m["core.decode_ns_per_sample"] +
            m["serve.ingest_locked_ns_per_sample"] +
            m["serve.publish_ns_per_sample"];
    slowest = std::max({capture, wire, drain});
  } else {
    const bool chaos = grid->config.injector != nullptr;
    // Chaos measures every vote in full (capture + decode) on the worker and
    // ships decoded bins, so its drain skips ENC and the ladder.
    const double measures =
        chaos ? static_cast<double>(grid->config.resilience.votes) : 1.0;
    capture = (m["core.capture_ns_per_sample"] +
               (chaos ? m["core.decode_ns_per_sample"] : 0.0)) *
              measures / static_cast<double>(grid->config.threads);
    drain = m["grid.ring_ns_per_sample"] + m["serve.ingest_ns_per_sample"] +
            m["serve.publish_ns_per_sample"] +
            (chaos ? 0.0
                   : m["core.encode_ns_per_sample"] +
                         m["core.decode_ns_per_sample"]);
    slowest = std::max(capture, drain);
  }
  m["pipeline.capture_stage_ns"] = capture;
  m["pipeline.drain_stage_ns"] = drain;
  m["pipeline.residual_frac"] =
      1.0 - slowest / m["pipeline.wall_ns_per_sample"];
}

WindowResult run(const RunOptions& opt) {
  const SeedInputs inputs(opt.seed);
  const bool replay = opt.trace && !opt.setup_only;
  if (opt.workload == "fleet") {
    const fleet::FleetConfig fleet = make_fleet_config(inputs);
    WindowResult out = run_fleet_window(opt, fleet);
    if (replay) {
      out.metrics.merge(replay_fleet(fleet));
      add_stages(nullptr, &fleet, out.metrics);
    }
    return out;
  }
  const GridWorkload workload = make_grid_workload(opt.workload, inputs);
  WindowResult out = run_grid_window(opt, workload);
  if (replay) {
    out.metrics.merge(replay_grid(workload));
    add_stages(&workload, nullptr, out.metrics);
  }
  return out;
}

const char* unit_of(const std::string& name) {
  for (const MetricDef& d : kMetrics) {
    if (name == d.name) return d.unit;
  }
  return "";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* simd_backend() {
#if defined(PSNT_SIMD_AVX2)
  return "avx2";
#elif defined(PSNT_SIMD_NEON)
  return "neon";
#else
  return "off";
#endif
}

void print_json(const RunOptions& opt, const WindowResult& r) {
  std::string s = "{\"workload\": " + json_string(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"seconds\": " + json_number(opt.seconds) +
                  ", \"trace\": " + (opt.trace ? "true" : "false") +
                  ", \"correct\": " + (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : r.metrics) {
    s += sep + json_string(name) + ": {\"value\": " + json_number(value) +
         ", \"unit\": " + json_string(unit_of(name)) + "}";
    sep = ", ";
  }
  s += "}, \"samples\": {";
  sep = "";
  for (const auto& [name, count] : r.samples) {
    s += sep + json_string(name) + ": " + std::to_string(count);
    sep = ", ";
  }
  s += "}, \"checks\": [";
  sep = "";
  for (const std::string& failure : r.check_failures) {
    s += sep + json_string(failure);
    sep = ", ";
  }
  s += "], \"build\": {\"simd\": " + json_string(simd_backend()) +
       ", \"compiler\": " + json_string(__VERSION__) +
       ", \"build_type\": " + json_string(PSNT_BENCH_BUILD_TYPE) + "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

// Every workload, 1 s traced windows: each run must be correct and report
// every metric it applies to as a finite number.
int smoke() {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    RunOptions opt;
    opt.workload = name;
    opt.seconds = 1.0;
    opt.trace = true;
    opt.t0_ns = now_ns();
    const WindowResult r = run(opt);
    std::vector<std::string> missing;
    for (const MetricDef& d : kMetrics) {
      if (d.kind == Kind::kFleetOnly && name != "fleet") continue;
      const auto it = r.metrics.find(d.name);
      if (it == r.metrics.end() || !std::isfinite(it->second)) {
        missing.emplace_back(d.name);
      }
    }
    const bool pass = r.correct && r.failed == 0 && missing.empty();
    ok = ok && pass;
    std::printf("%-16s %s", name.c_str(), pass ? "ok" : "FAIL");
    for (const std::string& f : r.check_failures) std::printf(" [%s]", f.c_str());
    for (const std::string& f : missing) std::printf(" [missing %s]", f.c_str());
    std::printf("\n");
  }
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_pipeline --workload NAME --seed N --seconds S "
               "[--trace] [--t0-ns NS] [--setup-only]\n"
               "       bench_pipeline --smoke\n");
  return 2;
}

}  // namespace
}  // namespace psnt::bench

int main(int argc, char** argv) {
  using namespace psnt::bench;
  RunOptions opt;
  opt.t0_ns = now_ns();
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto value = [&]() -> const std::string& {
        if (i + 1 >= args.size()) throw std::invalid_argument(a + " needs a value");
        return args[++i];
      };
      if (a == "--smoke") return smoke();
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--t0-ns") {
        opt.t0_ns = std::stoll(value());
      } else if (a == "--trace") {
        opt.trace = true;
      } else if (a == "--setup-only") {
        opt.setup_only = true;
      } else {
        return usage();
      }
    }
    if (!is_workload(opt.workload) || !(opt.seconds > 0.0)) return usage();
    const WindowResult result = run(opt);
    print_json(opt, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    return 1;
  }
}
