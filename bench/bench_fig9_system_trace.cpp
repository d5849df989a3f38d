// Fig. 9 reproduction: full-system trace for two measures.
//
// Paper: "The Delay Code introduced is 011 that is a delay of 65ps ...
// during the PREPARE phase the sensor output is '0000000'; while after the
// SENSE the values '0011111' and '0000011' are found respectively for the
// first and the second measure [VDD-n = 1 V, then 0.9 V]. According to the
// characteristic curve in figure 5, 0011111 corresponds to a VDD-n in the
// range 0.992V-1.021V, while 0000011 to the range 0.896V-0.929V."
#include "bench/bench_util.h"
#include "calib/fit.h"
#include "core/full_system.h"
#include "core/system_builder.h"
#include "core/thermometer.h"
#include "sim/probe.h"
#include "sim/vcd.h"

namespace psnt {
namespace {

using namespace psnt::literals;

void report() {
  bench::section("Fig. 9 — system behaviour for two measures (code 011)");
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};

  sim::Simulator sim;
  analog::CallbackRail vdd{[](Picoseconds t) {
    return t.value() < 15000.0 ? Volt{1.0} : Volt{0.9};
  }};
  const auto array = calib::make_paper_array(model);
  auto sensor = core::build_structural_sensor(
      sim, "hs", array, pg, core::DelayCode{3},
      analog::RailPair{&vdd, nullptr});
  core::ControlFsm fsm{core::DelayCode{3}};

  // Dump the ELDO-style waveform set to VCD for inspection in GTKWave.
  sim::VcdWriter vcd("/tmp/psnt_fig9.vcd", "fig9");
  vcd.trace(*sensor.p_cmd);
  vcd.trace(*sensor.cp_cmd);
  vcd.trace(*sensor.p);
  vcd.trace(*sensor.cp);
  for (auto* ds : sensor.ds) vcd.trace(*ds);
  for (auto* q : sensor.out) vcd.trace(*q);
  vcd.begin_dump();

  util::CsvTable table({"measure", "vdd_n_V", "prepare_edge_ps",
                        "sense_edge_ps", "word_after_sense", "decoded_bin_V",
                        "paper_reference"});
  const double starts[2] = {2000.0, 22000.0};
  const double volts[2] = {1.0, 0.9};
  const char* paper[2] = {"0011111 in [0.992, 1.021) V",
                          "0000011 in [0.896, 0.929) V"};
  for (int k = 0; k < 2; ++k) {
    const auto result = core::run_structural_measure(
        sim, sensor, fsm, pg, Picoseconds{starts[k]}, 1250.0_ps,
        core::DelayCode{3});
    const auto bin =
        array.decode(result.word, model.skew(core::DelayCode{3}));
    table.new_row()
        .add(static_cast<long long>(k + 1))
        .add(volts[k], 3)
        .add(result.prepare_edge.value(), 7)
        .add(result.sense_edge.value(), 7)
        .add(result.word.to_string())
        .add(bin.to_string())
        .add(std::string(paper[k]));
  }
  bench::print_table(table);

  // PREPARE phase check: every flop's first capture of each transaction was
  // a clean zero, i.e. the output vector was 0000000 during PREPARE.
  bool prepare_zero = true;
  for (const auto* ff : sensor.flipflops) {
    for (std::size_t e = 0; e + 1 < ff->history().size(); e += 2) {
      prepare_zero &= !ff->history()[e].outcome.captured_value;
    }
  }
  bench::note(std::string("PREPARE output vector is 0000000: ") +
              (prepare_zero ? "confirmed" : "VIOLATED"));
  bench::note("VCD waveform dump written to /tmp/psnt_fig9.vcd");
  bench::note("left-detail check (PG transforms CNTR P/CP into skewed "
              "signals): see bench_table1_delay_codes structural column");

  // Third level of fidelity: the SAME two measures with the control FSM
  // itself synthesized to gates (no behavioral sequencing anywhere).
  bench::section("Fig. 9 — with the synthesized (gate-level) control FSM");
  util::CsvTable full({"measure", "vdd_n_V", "word", "paper"});
  {
    sim::Simulator fsim;
    analog::ConstantRail v1{1.0_V};
    core::FullStructuralSystem::Config cfg;
    cfg.code = core::DelayCode{3};
    core::FullStructuralSystem sys1(fsim, "sys", array, pg,
                                    analog::RailPair{&v1, nullptr}, cfg);
    std::vector<core::ThermoWord> words;
    sys1.run_measures(1, words);
    full.new_row()
        .add(1LL)
        .add(1.0, 3)
        .add(words[0].to_string())
        .add(std::string("0011111"));
  }
  {
    sim::Simulator fsim;
    analog::ConstantRail v2{0.9_V};
    core::FullStructuralSystem::Config cfg;
    cfg.code = core::DelayCode{3};
    core::FullStructuralSystem sys2(fsim, "sys", array, pg,
                                    analog::RailPair{&v2, nullptr}, cfg);
    std::vector<core::ThermoWord> words;
    sys2.run_measures(1, words);
    full.new_row()
        .add(2LL)
        .add(0.9, 3)
        .add(words[0].to_string())
        .add(std::string("0000011"));
  }
  bench::print_table(full);
}

void BM_FullSystemTwoMeasures(benchmark::State& state) {
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};
  const auto array = calib::make_paper_array(model);
  for (auto _ : state) {
    sim::Simulator sim;
    analog::CallbackRail vdd{[](Picoseconds t) {
      return t.value() < 15000.0 ? Volt{1.0} : Volt{0.9};
    }};
    auto sensor = core::build_structural_sensor(
        sim, "hs", array, pg, core::DelayCode{3},
        analog::RailPair{&vdd, nullptr});
    core::ControlFsm fsm{core::DelayCode{3}};
    benchmark::DoNotOptimize(core::run_structural_measure(
        sim, sensor, fsm, pg, 2000.0_ps, 1250.0_ps, core::DelayCode{3}));
    benchmark::DoNotOptimize(core::run_structural_measure(
        sim, sensor, fsm, pg, 22000.0_ps, 1250.0_ps, core::DelayCode{3}));
  }
}
BENCHMARK(BM_FullSystemTwoMeasures)->Unit(benchmark::kMicrosecond);

void BM_BehavioralTwoMeasures(benchmark::State& state) {
  const auto& model = calib::calibrated().model;
  analog::CallbackRail vdd{[](Picoseconds t) {
    return t.value() < 15000.0 ? Volt{1.0} : Volt{0.9};
  }};
  for (auto _ : state) {
    auto t = calib::make_paper_thermometer(model);
    benchmark::DoNotOptimize(t.measure_vdd(analog::RailPair{&vdd, nullptr},
                                           0.0_ps, core::DelayCode{3}));
    benchmark::DoNotOptimize(t.measure_vdd(analog::RailPair{&vdd, nullptr},
                                           22000.0_ps, core::DelayCode{3}));
  }
}
BENCHMARK(BM_BehavioralTwoMeasures)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace psnt

PSNT_BENCH_MAIN(psnt::report)
