// Ablation A3 — PSN scan chain readout cost vs number of die sites.
//
// Sec. IV: "The array sensors can be placed in many points of the DUT,
// whilst only a control system is required. This sensor system can be
// thought for PSN as scan chains are for data faults." We sweep the site
// count and report the snapshot cost in control cycles and microseconds at
// the 800 MHz control clock, plus the simulated broadcast wall time.
#include "bench/bench_util.h"
#include "calib/fit.h"
#include "scan/die_map.h"
#include "scan/scan_chain.h"

namespace psnt {
namespace {

using namespace psnt::literals;

struct ChainSetup {
  scan::Floorplan fp;
  std::vector<std::unique_ptr<analog::ConstantRail>> rails;
  scan::PsnScanChain chain;

  explicit ChainSetup(std::size_t rows, std::size_t cols)
      : fp(scan::Floorplan::grid(4000.0, 4000.0, rows, cols)),
        chain(fp, core::ThermometerConfig{}) {
    const auto& model = calib::calibrated().model;
    // Gradient: sites further from the pad at (0,0) droop more.
    for (const auto& site : fp.sites()) {
      const double dist = fp.distance_um(site.id, {0.0, 0.0});
      const double v = 1.01 - 0.05 * dist / 5657.0;  // up to ~50 mV IR drop
      rails.push_back(std::make_unique<analog::ConstantRail>(Volt{v}));
      chain.attach_site(site.id,
                        analog::RailPair{rails.back().get(), nullptr},
                        calib::make_paper_thermometer(model));
    }
  }
};

void report() {
  bench::section("A3 — scan-chain snapshot cost vs site count");
  util::CsvTable table({"sites", "chain_bits", "snapshot_cycles",
                        "readout_us_at_800MHz", "worst_site_droop_mV",
                        "gradient_mV"});
  for (std::size_t dim : {2, 4, 8, 16}) {
    ChainSetup setup(dim, dim);
    const auto snapshot =
        setup.chain.broadcast_measure(0.0_ps, core::DelayCode{3});
    scan::DieMap map{setup.fp, 1.0_V};
    map.ingest(snapshot);
    const std::size_t cycles = setup.chain.snapshot_cycles();
    table.new_row()
        .add(static_cast<long long>(dim * dim))
        .add(static_cast<long long>(dim * dim * 7))
        .add(static_cast<long long>(cycles))
        .add(static_cast<double>(cycles) * 1.25e-3, 5)
        .add((1.0 - map.worst_site().estimate.value()) * 1000.0, 4)
        .add(map.gradient().value() * 1000.0, 4);
  }
  bench::print_table(table);
  bench::note("cost is linear in sites x bits, exactly like test scan; a "
              "256-site snapshot still reads out in under 3 us at 800 MHz");
}

void BM_BroadcastMeasure(benchmark::State& state) {
  ChainSetup setup(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(0)));
  double t = 0.0;
  for (auto _ : state) {
    t += 100000.0;
    benchmark::DoNotOptimize(
        setup.chain.broadcast_measure(Picoseconds{t}, core::DelayCode{3}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(0));
}
BENCHMARK(BM_BroadcastMeasure)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_SerializeDeserialize(benchmark::State& state) {
  ChainSetup setup(4, 4);
  (void)setup.chain.broadcast_measure(0.0_ps, core::DelayCode{3});
  for (auto _ : state) {
    const auto bits = setup.chain.shift_out();
    benchmark::DoNotOptimize(setup.chain.deserialize(bits));
  }
}
BENCHMARK(BM_SerializeDeserialize);

}  // namespace
}  // namespace psnt

PSNT_BENCH_MAIN(psnt::report)
