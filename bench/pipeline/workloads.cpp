// The five workloads, the timed window that drives them, and the output
// checks that set the `correct` bit.
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "calib/fit.h"
#include "fault/fault_injector.h"
#include "pipeline.h"
#include "scan/scan_chain.h"
#include "serve/query.h"
#include "util/error.h"

namespace psnt::bench {

namespace {

constexpr double kTwoPi = 6.283185307179586;
constexpr double kDieUm = 4000.0;
// The die's IR gradient: 50 mV from the pad corner to the far corner, plus a
// 4 mV per-site offset — every site stays inside Delay Code 011's range.
constexpr double kPadVolts = 1.01;
constexpr double kIrDropPerUm = 0.05 / 5657.0;
constexpr double kSiteSigmaVolts = 0.004;
// Auto-range stimulus: ±100 mV around the site's IR level, 256-sample period.
constexpr double kSineVolts = 0.1;
constexpr double kSinePeriodSamples = 256.0;

}  // namespace

SeedInputs::SeedInputs(std::uint64_t seed) {
  stats::SplitMix64 mix(seed);
  grid_seed = mix.next();
  injector_seed = mix.next();
  fleet_seed = mix.next();
  const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  rail_offset_volts = (u - 0.5) * 0.01;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "grid_fixed", "grid_autorange", "grid_chaos", "grid_structural",
      "fleet"};
  return names;
}

bool is_workload(const std::string& name) {
  for (const auto& w : workload_names()) {
    if (w == name) return true;
  }
  return false;
}

serve::StoreConfig store_config(std::size_t sites) {
  serve::StoreConfig config;
  config.site_count = sites;
  config.shards = 1;  // the grid drain is the store's single writer
  return config;
}

namespace {

grid::RailFactory ir_rails(const scan::Floorplan& fp, const SeedInputs& in) {
  return grid::ScanGrid::ir_gradient_rails(
      fp, Volt{kPadVolts + in.rail_offset_volts}, kIrDropPerUm, {0.0, 0.0},
      kSiteSigmaVolts);
}

grid::RailFactory sine_rails(const scan::Floorplan& fp, const SeedInputs& in) {
  return [dc = ir_rails(fp, in)](const scan::SensorSite& site,
                                 stats::Xoshiro256& rng)
             -> std::unique_ptr<analog::RailSource> {
    const double level = dc(site, rng)->at(Picoseconds{0.0}).value();
    const double phase = rng.uniform(0.0, kTwoPi);
    return std::make_unique<analog::CallbackRail>([level, phase](Picoseconds t) {
      return Volt{level + kSineVolts *
                              std::sin(phase + kTwoPi * t.value() /
                                                   (kSinePeriodSamples *
                                                    kIntervalPs))};
    });
  };
}

// The examples/chaos_soak storm: every fault lane live, droop depth from a
// solved PDN step response.
std::shared_ptr<const fault::FaultInjector> chaos_injector(std::uint64_t seed) {
  fault::FaultStormConfig storm;
  storm.p_stuck_site = 0.15;
  storm.p_metastable = 0.10;
  storm.p_code_drift = 0.08;
  storm.p_rail_droop = 0.08;
  storm.p_dead_site = 0.12;
  storm.p_hung = 0.20;
  storm.p_ring_storm = 0.05;
  storm.droop_depth = fault::pdn_droop_depth(psn::LumpedPdnParams{}, 2.0);
  storm.dead_onset_horizon = 24;
  storm.ring_storm_pushes = 3;
  return std::make_shared<fault::FaultInjector>(seed, storm);
}

}  // namespace

GridWorkload make_grid_workload(const std::string& name,
                                const SeedInputs& inputs) {
  GridWorkload w;
  w.config.interval = Picoseconds{kIntervalPs};
  w.config.code = core::DelayCode{3};  // 011
  w.config.seed = inputs.grid_seed;
  if (name == "grid_structural") {
    w.floorplan = scan::Floorplan::grid(kDieUm, kDieUm, 2, 2);
    w.config.fidelity = grid::SiteFidelity::kStructural;
    w.config.threads = 2;
    w.config.samples_per_site = 512;
    w.check_threads = 1;
    w.stamped = false;
    w.rails = ir_rails(w.floorplan, inputs);
    return w;
  }
  w.floorplan = scan::Floorplan::grid(kDieUm, kDieUm, 8, 8);
  w.rails = ir_rails(w.floorplan, inputs);
  if (name == "grid_fixed") {
    w.config.threads = 1;
    w.config.samples_per_site = 4096;
  } else if (name == "grid_autorange") {
    w.config.threads = 1;
    w.config.samples_per_site = 4096;
    w.config.code_policy = grid::CodePolicy::kAutoRange;
    w.rails = sine_rails(w.floorplan, inputs);
    w.check_threads = 2;
  } else if (name == "grid_chaos") {
    w.config.threads = 2;
    w.config.samples_per_site = 512;
    w.config.injector = chaos_injector(inputs.injector_seed);
    w.config.resilience.max_retries = 6;
    w.config.resilience.votes = 3;
    w.config.resilience.quarantine_after = 3;
    // Backoff 0: wall time measures retry work, not the OS timer.
    w.config.resilience.backoff_base_us = 0;
    w.check_threads = 1;
  } else {
    PSNT_CHECK(false, "not a grid workload: " + name);
  }
  return w;
}

fleet::FleetConfig make_fleet_config(const SeedInputs& inputs) {
  fleet::FleetConfig config;
  config.sites = 12;
  config.samples_per_site = 4000;
  config.interval = Picoseconds{kIntervalPs};
  config.code = core::DelayCode{3};
  config.seed = inputs.fleet_seed;
  config.workers = 2;
  config.spares = 1;
  config.aggregator_threads = 1;
  return config;
}

namespace {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Reaped children only: the fleet reaps its workers at the end of each round.
double children_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// VmHWM, not getrusage's ru_maxrss: the latter keeps the launcher's RSS from
// before exec as a floor, which hides the program's own peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- round digests ----------------------------------------------------------

constexpr std::uint64_t kHashBasis = 0xcbf29ce484222325ULL;

// Every step is a bijection of the running hash, so one differing value
// always changes the digest.
void mix(std::uint64_t& h, std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; }

std::uint64_t word_key(bool valid, const core::ThermoWord& word,
                       core::DelayCode code) {
  if (!valid) return 0;
  return (std::uint64_t{1} << 48) |
         (static_cast<std::uint64_t>(code.value()) << 40) |
         (static_cast<std::uint64_t>(word.width()) << 32) | word.raw();
}

struct RoundDigest {
  std::uint64_t words = kHashBasis;  // validity, word and code, site-major
  std::uint64_t trace = kHashBasis;  // resilience accounting + fault events
  std::uint64_t code_steps = 0;
  std::uint64_t valid = 0;
  std::uint64_t saturated = 0;
};

RoundDigest digest(const grid::RunResult& result) {
  RoundDigest d;
  for (const grid::SiteResult& site : result.sites) {
    for (std::size_t k = 0; k < site.samples.size(); ++k) {
      const core::Measurement& m = site.samples[k];
      mix(d.words, word_key(site.valid[k], m.word, m.code));
      if (!site.valid[k]) continue;
      ++d.valid;
      if (!m.bin.in_range()) ++d.saturated;
    }
    d.code_steps += site.code_steps;
    for (const std::uint64_t v :
         {site.code_steps, std::uint64_t{site.quarantined},
          std::uint64_t{site.quarantine_sample}, site.retries, site.recovered,
          site.lost, site.vote_overrides,
          std::uint64_t{site.final_code.value()}}) {
      mix(d.trace, v);
    }
    for (const fault::FaultEvent& e : site.fault_events) {
      mix(d.trace, (std::uint64_t{e.site_id} << 32) | e.sample);
      mix(d.trace, (std::uint64_t{e.attempt} << 40) |
                       (static_cast<std::uint64_t>(e.kind) << 32) |
                       static_cast<std::uint32_t>(e.detail));
    }
  }
  return d;
}

// grid_fixed's reference: the serial scan::PsnScanChain broadcast over the
// same rails (rebuilt from the grid's per-site RNG streams) and schedule.
std::uint64_t serial_reference_words(const GridWorkload& w) {
  const auto& model = calib::calibrated().model;
  scan::PsnScanChain chain{w.floorplan, w.config.thermometer};
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  for (const auto& site : w.floorplan.sites()) {
    auto rng = grid::ScanGrid::site_rng(w.config.seed, site.id);
    rails.push_back(w.rails(site, rng));
    chain.attach_site(
        site.id, analog::RailPair{rails.back().get(), nullptr},
        calib::make_paper_thermometer(model, w.config.thermometer));
  }
  std::vector<std::vector<std::uint64_t>> keys(w.floorplan.site_count());
  for (std::size_t k = 0; k < w.config.samples_per_site; ++k) {
    const auto snapshot = chain.broadcast_measure(
        Picoseconds{static_cast<double>(k) * kIntervalPs}, w.config.code);
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      keys[i].push_back(word_key(true, snapshot[i].measurement.word,
                                 snapshot[i].measurement.code));
    }
  }
  std::uint64_t h = kHashBasis;
  for (const auto& site : keys) {
    for (const std::uint64_t key : site) mix(h, key);
  }
  return h;
}

// Round 0 again at another thread count, unstamped and without a store.
RoundDigest rerun_round0(const GridWorkload& w) {
  grid::ScanGridConfig config = w.config;
  config.threads = w.check_threads;
  grid::ScanGrid grid(w.floorplan, config, w.rails);
  return digest(grid.run());
}

void check(WindowResult& out, bool ok, const std::string& what) {
  if (ok) return;
  out.correct = false;
  out.check_failures.push_back(what);
}

double per_k(std::uint64_t count, std::uint64_t base) {
  return base > 0 ? 1000.0 * static_cast<double>(count) /
                        static_cast<double>(base)
                  : 0.0;
}

double ratio(std::uint64_t count, std::uint64_t base) {
  return base > 0 ? static_cast<double>(count) / static_cast<double>(base)
                  : 0.0;
}

// State shared by both window kinds: the store, the client, the clocks.
struct Window {
  Window(const RunOptions& options, std::size_t sites, bool stamp)
      : opt(options),
        store(std::make_shared<serve::TelemetryStore>(store_config(sites))),
        stamps(sites),
        site_count(sites),
        stamped(stamp) {}

  // Round 0's constructor has returned: setup ends, the window starts. The
  // client starts only now, so setup_s holds no harness work.
  void begin(WindowResult& out) {
    start_ns = now_ns();
    out.metrics["setup_s"] = static_cast<double>(start_ns - opt.t0_ns) * 1e-9;
    client.emplace(*store, site_count, stamped ? &stamps : nullptr);
    cpu0 = process_cpu_seconds();
    children_cpu0 = children_cpu_seconds();
  }

  [[nodiscard]] bool over() const {
    return static_cast<double>(now_ns() - start_ns) * 1e-9 >= opt.seconds;
  }

  // Ends the window after its last round: stops the client and fills the
  // end-to-end metrics. Later rounds' constructors are inside the window.
  void end(WindowResult& out, std::size_t rounds, std::uint64_t expected) {
    const double wall = static_cast<double>(now_ns() - start_ns) * 1e-9;
    const double cpu = process_cpu_seconds() - cpu0 +
                       (children_cpu_seconds() - children_cpu0) -
                       client->cpu_seconds();
    client->stop();
    const std::uint64_t delivered = store->total_ingested();
    Metrics& m = out.metrics;
    m["samples_per_s"] = static_cast<double>(delivered) / wall;
    m["fresh_p50_ms"] = client->fresh_ms().quantile(0.5);
    m["fresh_p99_ms"] = client->fresh_ms().quantile(0.99);
    m["query_p50_us"] = client->new_data_query_us().quantile(0.5);
    m["query_p99_us"] = client->query_us().quantile(0.99);
    m["rss_peak_mb"] = peak_rss_mb();
    m["fail_frac"] = expected > 0 ? static_cast<double>(expected - delivered) /
                                        static_cast<double>(expected)
                                  : 0.0;
    m["serve.publishes_per_ksample"] = per_k(store->publishes(), delivered);
    m["pipeline.wall_ns_per_sample"] = 1e9 / m["samples_per_s"];
    m["pipeline.cpu_ns_per_sample"] =
        cpu * 1e9 / static_cast<double>(delivered);
    out.attempted += client->queries();
    out.failed += client->failed_queries();
    out.samples["rounds"] = rounds;
    out.samples["new_data_queries"] = client->new_data_query_us().count();
    out.samples["delivered"] = delivered;
    out.samples["expected"] = expected;
    out.samples["queries"] = client->queries();
    out.samples["fresh"] = client->fresh_ms().count();
    out.samples["fresh_unresolved"] = client->unresolved_stamps();
    check(out,
          delivered > 0 && client->fresh_ms().count() > 0 &&
              client->new_data_query_us().count() > 0,
          "window delivered no samples, freshness or new-data queries");
    check(out, client->failed_queries() == 0,
          std::to_string(client->failed_queries()) +
              " dashboard queries threw");
  }

  const RunOptions& opt;
  std::shared_ptr<serve::TelemetryStore> store;
  StampTable stamps;
  std::size_t site_count;
  bool stamped;
  std::optional<DashboardClient> client;  // from begin()
  std::int64_t start_ns = 0;
  double cpu0 = 0.0;
  double children_cpu0 = 0.0;
};

}  // namespace

WindowResult run_grid_window(const RunOptions& opt, const GridWorkload& w) {
  WindowResult out;
  const std::size_t sites = w.floorplan.site_count();
  const std::size_t samples = w.config.samples_per_site;
  Window win(opt, sites, w.stamped);
  const grid::RailFactory rails =
      w.stamped ? stamping_rails(w.rails, win.stamps) : w.rails;

  std::uint64_t ring_stalls = 0, retries = 0, vote_overrides = 0;
  std::uint64_t quarantined = 0, faults = 0, code_steps = 0;
  std::uint64_t sim_events = 0, sim_allocs = 0;
  RoundDigest round0;
  std::size_t rounds = 0;
  for (;; ++rounds) {
    grid::ScanGridConfig config = w.config;
    config.start =
        Picoseconds{static_cast<double>(rounds * samples) * kIntervalPs};
    config.store = win.store;
    grid::ScanGrid grid(w.floorplan, config, rails);
    if (rounds == 0) {
      win.begin(out);
      if (opt.setup_only) return out;
    }
    ++out.attempted;
    try {
      const grid::RunResult result = grid.run();
      ring_stalls += result.ring_stalls;
      retries += result.retries;
      vote_overrides += result.vote_overrides;
      quarantined += result.quarantined_sites;
      faults += result.faults_injected;
      for (const auto& site : result.sites) code_steps += site.code_steps;
      sim_events += grid.telemetry().counter("grid.sim_events").value();
      sim_allocs += grid.telemetry().counter("grid.sim_allocs").value();
      if (rounds == 0) round0 = digest(result);
    } catch (const std::exception& e) {
      ++out.failed;
      check(out, false, std::string("round threw: ") + e.what());
    }
    if (win.over()) break;
  }
  ++rounds;
  const std::uint64_t expected = rounds * sites * samples;
  win.end(out, rounds, expected);

  Metrics& m = out.metrics;
  m["core.code_steps_per_ksample"] = per_k(code_steps, expected);
  m["core.saturated_frac"] = ratio(round0.saturated, round0.valid);
  m["grid.ring_stalls_per_ksample"] = per_k(ring_stalls, expected);
  m["grid.retries_per_ksample"] = per_k(retries, expected);
  m["grid.vote_overrides_per_ksample"] = per_k(vote_overrides, expected);
  m["grid.quarantined_per_round"] = ratio(quarantined, rounds);
  m["fault.injected_per_ksample"] = per_k(faults, expected);
  m["sim.events_per_sample"] = ratio(sim_events, expected);
  m["sim.allocs_per_sample"] = ratio(sim_allocs, expected);
  m["fleet.frames_per_ksample"] = 0.0;  // the grid never crosses the wire

  // --- output checks (outside the window) ---------------------------------
  serve::QueryEngine query(*win.store);
  check(out, query.published_seq() == win.store->total_ingested(),
        "store: published_seq != total_ingested after the run");
  if (w.config.injector == nullptr) {
    for (std::uint32_t s = 0; s < sites; ++s) {
      check(out, query.latest(s).has_value(),
            "store: site " + std::to_string(s) + " has no latest reading");
    }
  }
  if (w.config.injector == nullptr &&
      w.config.code_policy == grid::CodePolicy::kFixed &&
      w.config.fidelity == grid::SiteFidelity::kBehavioral) {
    check(out, round0.words == serial_reference_words(w),
          "round 0 differs from the serial PsnScanChain reference");
  } else {
    const RoundDigest again = rerun_round0(w);
    check(out, again.words == round0.words,
          "round 0 words/validity differ at " +
              std::to_string(w.check_threads) + " threads");
    check(out, again.trace == round0.trace,
          "round 0 code steps / fault traces differ at " +
              std::to_string(w.check_threads) + " threads");
  }
  if (w.config.code_policy == grid::CodePolicy::kAutoRange) {
    check(out, round0.code_steps > 0, "auto-range took no code steps");
  }
  return out;
}

WindowResult run_fleet_window(const RunOptions& opt,
                              const fleet::FleetConfig& base) {
  WindowResult out;
  Window win(opt, base.sites, /*stamped=*/false);
  Reservoir span_us(std::size_t{1} << 17);
  std::uint64_t frames = 0;
  core::StreamingEncodeStats enc;
  std::size_t rounds = 0;
  for (;; ++rounds) {
    fleet::FleetConfig config = base;
    config.start = Picoseconds{
        static_cast<double>(rounds * config.samples_per_site) * kIntervalPs};
    config.store = win.store;
    fleet::FleetCoordinator coordinator(config);
    if (rounds == 0) {
      win.begin(out);
      if (opt.setup_only) return out;
    }
    ++out.attempted;
    try {
      const fleet::FleetResult result = coordinator.run();
      frames += result.frames;
      enc.words += result.enc.words;
      enc.underflows += result.enc.underflows;
      enc.overflows += result.enc.overflows;
      for (const std::uint64_t ns : result.span_latency_ns) {
        span_us.add(static_cast<double>(ns) * 1e-3);
      }
      if (!result.completed || result.samples_lost != 0 ||
          result.frame_errors != 0) {
        ++out.failed;
        check(out, false, "fleet round incomplete or lossy");
      }
    } catch (const std::exception& e) {
      ++out.failed;
      check(out, false, std::string("round threw: ") + e.what());
    }
    if (win.over()) break;
  }
  ++rounds;
  const std::uint64_t expected = rounds * base.sites * base.samples_per_site;
  win.end(out, rounds, expected);

  Metrics& m = out.metrics;
  m["core.code_steps_per_ksample"] = 0.0;  // fixed code
  m["core.saturated_frac"] = ratio(enc.underflows + enc.overflows, enc.words);
  m["grid.ring_stalls_per_ksample"] = 0.0;  // worker rings are not observable
  m["grid.retries_per_ksample"] = 0.0;
  m["grid.vote_overrides_per_ksample"] = 0.0;
  m["grid.quarantined_per_round"] = 0.0;
  m["fault.injected_per_ksample"] = 0.0;
  m["sim.events_per_sample"] = 0.0;
  m["sim.allocs_per_sample"] = 0.0;
  m["fleet.frames_per_ksample"] =
      per_k(frames, win.store->total_ingested());
  m["net.span_p50_us"] = span_us.quantile(0.5);
  m["net.span_p99_us"] = span_us.quantile(0.99);
  out.samples["spans"] = span_us.count();

  // --- output check: a killed worker's restart is bit-identical -----------
  fleet::FleetConfig config = base;
  fleet::FleetCoordinator coordinator(config);
  coordinator.schedule_kill(0, 0);
  const fleet::FleetResult killed = coordinator.run();
  check(out, killed.workers_killed == 1 && killed.samples_lost == 0,
        "fleet kill round lost samples or did not kill");
  check(out,
        killed.matrix.identical_to(
            fleet::FleetCoordinator::run_in_process(config)),
        "fleet kill round differs from run_in_process");
  return out;
}

}  // namespace psnt::bench
