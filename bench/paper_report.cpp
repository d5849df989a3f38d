// paper_report: every figure and table of Graziano & Vittori (SOCC 2009),
// and every extension study EXPERIMENTS.md quotes, printed in EXPERIMENTS.md
// order.
//
//   build/bench/paper_report
//
// The PaperReport ctest (tests/check_paper_report.cmake) compares this output
// byte for byte with bench/paper_report.golden, and EXPERIMENTS.md quotes
// that file: the printed precision of each column is its tolerance. No
// section reaches the SIMD sense kernel or a std:: random distribution (the
// Monte-Carlo sections draw from seeded stats::Xoshiro256 streams), so the
// text does not depend on the build type or the host ISA. The Fig. 9 section
// writes psnt_fig9.vcd into the working directory.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analog/mtbf.h"
#include "analog/process.h"
#include "analog/temperature.h"
#include "calib/anchors.h"
#include "calib/fit.h"
#include "core/auto_range.h"
#include "core/encoder.h"
#include "core/full_system.h"
#include "core/linearity.h"
#include "core/measurement_log.h"
#include "core/overhead.h"
#include "core/range_tuner.h"
#include "core/sensor_array.h"
#include "core/sensor_cell.h"
#include "core/system_builder.h"
#include "core/thermometer.h"
#include "cut/scenarios.h"
#include "psn/pdn.h"
#include "scan/die_map.h"
#include "scan/scan_chain.h"
#include "sim/probe.h"
#include "sim/vcd.h"
#include "sta/control_netlist.h"
#include "sta/report.h"
#include "stats/fft.h"
#include "stats/regression.h"
#include "stats/rng.h"
#include "util/csv.h"

namespace psnt {
namespace {

using namespace psnt::literals;

void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

void print_table(const util::CsvTable& table) {
  table.write_pretty(std::cout);
}

// Calibration context: the fitted model and the anchor-by-anchor
// paper-vs-achieved comparison (DESIGN.md §6).
void calibration_context() {
  section("Calibration context — fitted model vs paper anchors");
  calib::write_calibration_report(std::cout, calib::calibrated());
}

// Fig. 2: single-cell sense detail.
//
// Paper: "Signal DS linearly increases as a linear decrease of VDD-n is
// forced... OUT delay increases in a not linear way as the FF is in its
// metastability state and, in the last case (4) a fail occurs."
//
// Four equally spaced VDD-n values straddle the C=2pF cell's threshold
// (0.9360 V at code 011): DS delay (linear), the OUT clk-to-q (log-law
// growth), the setup margin and the sample verdict.
void fig2_sensor_detail() {
  section("Fig. 2 — noise sensor detail (C = 2 pF, delay code 011)");
  const auto& model = calib::calibrated().model;
  const core::SensorCell cell{model.inverter, model.flipflop,
                              calib::paper_anchors().fig4_load};
  const Picoseconds skew = model.skew(core::DelayCode{3});

  // Cases 1..4 with "linear distance", case 4 just below the threshold.
  const double vdd_cases[4] = {1.000, 0.978, 0.956, 0.934};

  util::CsvTable table({"case", "vdd_n_V", "ds_delay_ps", "setup_margin_ps",
                        "out_clk2q_ps", "ff_region", "out_sample"});
  std::vector<double> volts, delays;
  for (int i = 0; i < 4; ++i) {
    const Volt v{vdd_cases[i]};
    const auto s = cell.sense(v, skew);
    table.new_row()
        .add(static_cast<long long>(i + 1))
        .add(v.value(), 4)
        .add(s.ds_arrival.value(), 5)
        .add(s.ff.setup_margin.value(), 4)
        .add(s.ff.clk_to_q.value(), 5)
        .add(std::string(analog::to_string(s.ff.region)))
        .add(std::string(s.correct ? "correct" : "WRONG"));
    volts.push_back(v.value());
    delays.push_back(s.ds_arrival.value());
  }
  print_table(table);

  const auto fit = stats::fit_line(volts, delays);
  note("DS-delay linearity over the cases: R^2 = " +
       std::to_string(fit.r_squared) + ", slope = " +
       std::to_string(fit.slope) + " ps/V (paper: 'DS linearly " +
       "increases as a linear decrease of VDD-n is forced')");
  note("paper shape check: cases 1-3 correct with growing OUT delay, "
       "case 4 fails");
}

// Fig. 3: two PREPARE+SENSE sequences at gate level.
//
// Paper: "the first for a nominal VDD = 1V and the second for a VDD = 0.95V
// ... the first measure gives a '1' while the second gives a '0' as the
// set-up time is violated."
//
// The structural sensor's bit-5 cell (threshold 0.992 V, between 0.95 V and
// 1.00 V) is driven by the FSM through two full transactions against a rail
// that droops between them.
void fig3_prepare_sense() {
  section("Fig. 3 — PREPARE/SENSE sequence pair (VDD 1.00 V then 0.95 V)");
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};

  sim::Simulator sim;
  analog::CallbackRail vdd{[](Picoseconds t) {
    return t.value() < 15000.0 ? Volt{1.00} : Volt{0.95};
  }};
  const auto array = calib::make_paper_array(model);
  auto sensor = core::build_structural_sensor(
      sim, "hs", array, pg, core::DelayCode{3},
      analog::RailPair{&vdd, nullptr});
  core::ControlFsm fsm{core::DelayCode{3}};

  sim::TransitionRecorder p_rec(*sensor.p);
  sim::TransitionRecorder cp_rec(*sensor.cp);
  sim::TransitionRecorder ds_rec(*sensor.ds[4]);

  util::CsvTable table({"measure", "vdd_n_V", "p_fall_ps", "ds_rise_ps",
                        "cp_edge_ps", "ds_margin_ps", "bit5_sample",
                        "verdict"});

  const double starts[2] = {2000.0, 22000.0};
  const double volts[2] = {1.00, 0.95};
  for (int k = 0; k < 2; ++k) {
    const auto result = core::run_structural_measure(
        sim, sensor, fsm, pg, Picoseconds{starts[k]}, 1250.0_ps,
        core::DelayCode{3});
    const auto p_fall = p_rec.first_fall_after(Picoseconds{starts[k]});
    const auto ds_rise = ds_rec.first_rise_after(Picoseconds{starts[k]});
    const auto& sense = sensor.flipflops[4]->history().back();
    table.new_row()
        .add(static_cast<long long>(k + 1))
        .add(volts[k], 3)
        .add(p_fall ? p_fall->value() : -1.0, 7)
        .add(ds_rise ? ds_rise->value() : -1.0, 7)
        .add(sense.edge_time.value(), 7)
        .add(sense.outcome.setup_margin.value(), 4)
        .add(std::string(result.word.bit(4) ? "1" : "0"))
        .add(std::string(analog::to_string(sense.outcome.region)));
  }
  print_table(table);
  note("paper shape check: measure 1 samples '1' (setup met), "
       "measure 2 samples '0' (setup violated)");
  note("PREPARE phase verified: both capture edges before each SENSE "
       "loaded a clean 0 (see tests_system test suite)");
}

// Fig. 4: cell failure threshold vs DS load capacitance.
//
// Paper: "the VDD-n value below which the FF fails as a function of the
// capacitance C. For example, if C=2pF... the VDD-n value below which the FF
// fails is 0.9360V. Note that, the characteristic has a linear behavior
// within the VDD-n range of interest (0.9V - 1.1V in this example)."
void fig4_threshold_vs_cap() {
  section("Fig. 4 — threshold VDD-n vs DS load (delay code 011)");
  const auto& model = calib::calibrated().model;
  const Picoseconds skew = model.skew(core::DelayCode{3});

  util::CsvTable table({"c_load_pF", "threshold_V", "note"});
  for (double c = 0.5; c <= 4.0 + 1e-9; c += 0.25) {
    const core::SensorCell cell{model.inverter, model.flipflop, Picofarad{c}};
    const auto thr = cell.threshold(skew);
    std::string annotation;
    if (std::fabs(c - 2.0) < 1e-9) annotation = "paper anchor: 0.9360 V";
    table.new_row()
        .add(c, 3)
        .add(thr ? thr->value() : -1.0, 5)
        .add(annotation);
  }
  print_table(table);

  // Linearity is judged on a fine sweep restricted to the paper's window of
  // interest (0.9–1.1 V).
  std::vector<double> caps_in_window, thr_in_window;
  for (double c = 1.5; c <= 2.6 + 1e-9; c += 0.02) {
    const core::SensorCell cell{model.inverter, model.flipflop, Picofarad{c}};
    const auto thr = cell.threshold(skew);
    if (thr && thr->value() >= 0.9 && thr->value() <= 1.1) {
      caps_in_window.push_back(c);
      thr_in_window.push_back(thr->value());
    }
  }

  const auto fit = stats::fit_line(caps_in_window, thr_in_window);
  note("linearity inside the 0.9-1.1 V window: R^2 = " +
       std::to_string(fit.r_squared) + ", slope = " +
       std::to_string(fit.slope * 1000.0) + " mV/pF, max residual = " +
       std::to_string(fit.max_abs_residual * 1000.0) + " mV");
  const core::SensorCell anchor{model.inverter, model.flipflop, 2.0_pF};
  const auto thr2 = anchor.threshold(skew);
  note("paper-vs-measured at C = 2 pF: 0.9360 V vs " +
       std::to_string(thr2 ? thr2->value() : -1.0) + " V");
}

// Fig. 5: 7-bit array characteristic for three delay codes.
//
// Paper: "in the delay code 011 case, the threshold range goes from 0.827V
// (all errors) to 1.053V (no errors); ... the sensor output will have, for
// example, code 0011111 if VDD-n is lower than 1.021V and greater than
// 0.992V. In case the delay code is 010, the dynamic ranges from 0.951V to
// 1.237V (also overvoltages can be measured)."
//
// The per-bit thresholds for codes 010 / 011 / 100 (the figure's three delay
// relations) and the full word-vs-VDD staircase for code 011.
void fig5_array_characteristic() {
  const auto& model = calib::calibrated().model;
  const auto array = calib::make_paper_array(model);

  section("Fig. 5 — per-bit thresholds for three CP-P delay codes");
  util::CsvTable thr_table({"bit", "c_load_pF", "code010_V", "code011_V",
                            "code100_V"});
  const auto t010 = array.thresholds(model.skew(core::DelayCode{2}));
  const auto t011 = array.thresholds(model.skew(core::DelayCode{3}));
  const auto t100 = array.thresholds(model.skew(core::DelayCode{4}));
  for (std::size_t i = 0; i < array.bits(); ++i) {
    thr_table.new_row()
        .add(static_cast<long long>(i + 1))
        .add(array.cell(i).c_load().value(), 4)
        .add(t010[i].value(), 5)
        .add(t011[i].value(), 5)
        .add(t100[i].value(), 5);
  }
  print_table(thr_table);

  section("Fig. 5 — dynamic ranges (all-errors .. no-errors)");
  util::CsvTable range_table(
      {"delay_code", "skew_ps", "all_errors_below_V", "no_errors_above_V",
       "paper_reference"});
  const struct {
    std::uint8_t code;
    const char* paper;
  } rows[] = {
      {2, "paper: 0.951 - 1.237 V"},
      {3, "paper: 0.827 - 1.053 V"},
      {4, "paper: not quoted (lower window)"},
  };
  for (const auto& row : rows) {
    const core::DelayCode code{row.code};
    const auto range = array.dynamic_range(model.skew(code));
    range_table.new_row()
        .add(code.to_string())
        .add(model.skew(code).value(), 5)
        .add(range.all_errors_below.value(), 5)
        .add(range.no_errors_above.value(), 5)
        .add(std::string(row.paper));
  }
  print_table(range_table);

  section("Fig. 5 — code-011 staircase (word vs VDD-n)");
  util::CsvTable stair({"vdd_n_V", "word", "count"});
  double last = -1.0;
  for (double v = 0.80; v <= 1.08 + 1e-9; v += 0.01) {
    const auto word = array.measure(Volt{v}, model.skew(core::DelayCode{3}));
    if (static_cast<double>(word.count_ones()) != last) {
      stair.new_row()
          .add(v, 3)
          .add(word.to_string())
          .add(static_cast<long long>(word.count_ones()));
      last = static_cast<double>(word.count_ones());
    }
  }
  print_table(stair);
  note("paper shape check: code 0011111 spans [0.992, 1.021) V");
}

// Measures the structural P→CP skew for one code.
double structural_skew_ps(core::DelayCode code) {
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};
  sim::Simulator sim;
  analog::ConstantRail vdd{1.0_V};
  auto sensor = core::build_structural_sensor(
      sim, "hs", calib::make_paper_array(model), pg, code,
      analog::RailPair{&vdd, nullptr});
  sim::TransitionRecorder p_rec(*sensor.p);
  sim::TransitionRecorder cp_rec(*sensor.cp);
  core::ControlFsm fsm{code};
  (void)core::run_structural_measure(sim, sensor, fsm, pg, 2000.0_ps,
                                     1250.0_ps, code);
  const auto p_fall = p_rec.last_fall();
  const auto cp_rise = cp_rec.last_rise();
  if (!p_fall || !cp_rise) return -1.0;
  return cp_rise->value() - p_fall->value();
}

// Sec. III-B table: Delay Code 000..111 → CP delay 26/40/50/65/77/92/100/
// 107 ps, verified behaviorally from the PulseGenerator configuration and
// structurally by timing the tapped delay line + MUX tree in the event
// simulator (whose MUX delay must cancel between the P and CP paths).
void table1_delay_codes() {
  section("Sec. III-B table — Delay Code vs CP delay");
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};
  const auto stages = pg.delay_line_stages();

  util::CsvTable table({"delay_code", "paper_tap_ps", "line_stage_ps",
                        "behavioral_skew_ps", "structural_skew_ps",
                        "tap_plus_insertion_ps"});
  for (std::uint8_t c = 0; c < 8; ++c) {
    const core::DelayCode code{c};
    const double tap = core::paper_delay_table()[c].value();
    table.new_row()
        .add(code.to_string())
        .add(tap, 4)
        .add(stages[c].value(), 4)
        .add(pg.skew(code).value(), 6)
        .add(structural_skew_ps(code), 6)
        .add(tap + model.cp_insertion.value(), 6);
  }
  print_table(table);
  note("the programmable tap values reproduce the paper exactly; the "
       "fitted CP insertion delay (" +
       std::to_string(model.cp_insertion.value()) +
       " ps) is common to every code (see DESIGN.md)");
  note("behavioral and structural skews agree: the MUX-tree delay "
       "cancels between the P and CP paths (Fig. 7 property)");
}

// Fig. 9: full-system trace for two measures.
//
// Paper: "The Delay Code introduced is 011 that is a delay of 65ps ...
// during the PREPARE phase the sensor output is '0000000'; while after the
// SENSE the values '0011111' and '0000011' are found respectively for the
// first and the second measure [VDD-n = 1 V, then 0.9 V]. According to the
// characteristic curve in figure 5, 0011111 corresponds to a VDD-n in the
// range 0.992V-1.021V, while 0000011 to the range 0.896V-0.929V."
void fig9_system_trace() {
  section("Fig. 9 — system behaviour for two measures (code 011)");
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
  sim::VcdWriter vcd("psnt_fig9.vcd", "fig9");
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
  print_table(table);

  // PREPARE phase check: every flop's first capture of each transaction was
  // a clean zero, i.e. the output vector was 0000000 during PREPARE.
  bool prepare_zero = true;
  for (const auto* ff : sensor.flipflops) {
    for (std::size_t e = 0; e + 1 < ff->history().size(); e += 2) {
      prepare_zero &= !ff->history()[e].outcome.captured_value;
    }
  }
  note(std::string("PREPARE output vector is 0000000: ") +
       (prepare_zero ? "confirmed" : "VIOLATED"));
  note("VCD waveform dump written to psnt_fig9.vcd");
  note("left-detail check (PG transforms CNTR P/CP into skewed "
       "signals): see the Sec. III-B table's structural column");

  // Third level of fidelity: the SAME two measures with the control FSM
  // itself synthesized to gates (no behavioral sequencing anywhere).
  section("Fig. 9 — with the synthesized (gate-level) control FSM");
  util::CsvTable full({"measure", "vdd_n_V", "word", "paper"});
  const struct {
    double volts;
    const char* paper;
  } measures[] = {{1.0, "0011111"}, {0.9, "0000011"}};
  for (std::size_t k = 0; k < 2; ++k) {
    sim::Simulator fsim;
    analog::ConstantRail rail{Volt{measures[k].volts}};
    core::FullStructuralSystem::Config cfg;
    cfg.code = core::DelayCode{3};
    core::FullStructuralSystem sys(fsim, "sys", array, pg,
                                   analog::RailPair{&rail, nullptr}, cfg);
    std::vector<core::ThermoWord> words;
    sys.run_measures(1, words);
    full.new_row()
        .add(static_cast<long long>(k + 1))
        .add(measures[k].volts, 3)
        .add(words[0].to_string())
        .add(std::string(measures[k].paper));
  }
  print_table(full);
}

// Sec. III-B critical-path claim: "The critical path of the whole control
// system at 90nm is 1.22ns, thus it can work with most of the typical CUTs
// system clock."
//
// The mini STA over the reconstructed CNTR+COUNTER+ENC+PG-select netlist at
// TT/1.0V, plus the voltage-derated paths (the control block sits on the
// nominal rail but "could be slightly affected by a PS variation").
void sta_critical_path() {
  section("Critical path of the control system (paper: 1.22 ns)");
  const auto& lib = analog::default_90nm_library();
  const auto netlist = sta::build_control_netlist(lib);
  const auto path = netlist.graph.critical_path();

  util::CsvTable table({"metric", "value"});
  table.new_row().add("gates").add(
      static_cast<long long>(netlist.gate_count));
  table.new_row().add("registers").add(
      static_cast<long long>(netlist.register_count));
  table.new_row().add("timing_graph_nodes").add(
      static_cast<long long>(netlist.graph.node_count()));
  table.new_row().add("timing_graph_edges").add(
      static_cast<long long>(netlist.graph.edge_count()));
  table.new_row().add("critical_path_ps").add(path.arrival.value(), 6);
  table.new_row().add("paper_critical_path_ps").add(
      calib::paper_anchors().control_critical_path.value(), 6);
  print_table(table);

  section("Sign-off-style timing report");
  std::fputs(sta::render_timing_report(netlist.graph, path).c_str(), stdout);

  section("Voltage-derated critical path (nominal-rail droop)");
  util::CsvTable derated({"v_nominal_rail_V", "derate_factor",
                          "critical_path_ps", "fits_800MHz"});
  for (double v : {1.05, 1.00, 0.95, 0.90, 0.85}) {
    const double factor = lib.voltage_derate(Volt{v});
    const double ps = path.arrival.value() * factor;
    derated.new_row()
        .add(v, 3)
        .add(factor, 5)
        .add(ps, 6)
        .add(std::string(ps <= 1250.0 ? "yes" : "NO"));
  }
  print_table(derated);
  note("paper shape check: at nominal supply the control fits an "
       "800 MHz CUT clock with margin; deep droop erodes it");
}

// A1: iterated measures across a PDN transient.
//
// Sec. III-B: "measures should be iterated so that noise values can be
// captured in different moments of the CUT transient behavior." A current
// step excites the PDN; the sweep over the iteration interval reports how
// much of the first droop the reconstructed trajectory captures and the
// worst bracketing error of the decoded bins.
void a1_droop_tracking() {
  section("A1 — droop tracking vs iteration interval (code 011)");
  psn::LumpedPdnParams p;
  p.v_reg = 1.0_V;
  p.resistance = Ohm{0.004};
  p.inductance = NanoHenry{0.08};
  p.decap = Picofarad{120000.0};
  const psn::LumpedPdn pdn{p};
  const psn::StepCurrent load{Ampere{1.0}, Ampere{3.5}, 50000.0_ps};
  const auto wave = pdn.solve(load, 400000.0_ps, 10.0_ps);
  const analog::SampledRail rail = wave.to_rail();
  const double true_min = wave.min();
  const double nominal = wave.samples().front();

  util::CsvTable table({"interval_ns", "measures", "est_min_V", "true_min_V",
                        "captured_droop_pct", "mean_abs_err_mV",
                        "all_bins_bracket"});
  for (double interval_ns : {2.5, 5.0, 10.0, 20.0, 40.0, 80.0}) {
    auto t = calib::make_paper_thermometer(calib::calibrated().model);
    const Picoseconds interval{interval_ns * 1000.0};
    const auto count = static_cast<std::size_t>(350000.0 / interval.value());
    const auto ms = t.iterate_vdd(analog::RailPair{&rail, nullptr}, 0.0_ps,
                                  interval, count, core::DelayCode{3});

    double est_min = 10.0;
    double err_acc = 0.0;
    bool brackets = true;
    for (const auto& m : ms) {
      const double truth = wave.value_at(m.timestamp);
      est_min = std::min(est_min, m.bin.estimate().value());
      err_acc += std::fabs(m.bin.estimate().value() - truth);
      if (m.bin.lo && m.bin.lo->value() > truth + 1e-9) brackets = false;
      if (m.bin.hi && m.bin.hi->value() <= truth - 1e-9) brackets = false;
    }
    const double captured =
        (nominal - est_min) / (nominal - true_min) * 100.0;
    table.new_row()
        .add(interval_ns, 4)
        .add(static_cast<long long>(ms.size()))
        .add(est_min, 5)
        .add(true_min, 5)
        .add(captured, 4)
        .add(err_acc / static_cast<double>(ms.size()) * 1000.0, 4)
        .add(std::string(brackets ? "yes" : "NO"));
  }
  print_table(table);
  note("shape: dense iteration captures the full first droop; sparse "
       "sampling aliases past it — the paper's motivation for "
       "iterating measures");
}

// A2: process-variation compensation via Delay-Code retrim.
//
// Sec. III-A: a trimmed CP-P delay "allows ... to compensate the different
// sensor behavior in presence of process variations". For every corner: the
// dynamic-range error against the TT window before and after the retrim,
// plus the residual after the best retrim.
void a2_corner_compensation() {
  section("A2 — corner compensation by Delay-Code retrim (ref: TT/011)");
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};
  const auto tt_array = calib::make_paper_array(model);
  const auto reference = tt_array.dynamic_range(pg.skew(core::DelayCode{3}));

  util::CsvTable table({"corner", "untrimmed_range_V", "untrimmed_err_mV",
                        "retrimmed_code", "retrimmed_range_V",
                        "residual_err_mV"});
  for (auto corner :
       {analog::ProcessCorner::kTypical, analog::ProcessCorner::kSlow,
        analog::ProcessCorner::kFast, analog::ProcessCorner::kSlowFast,
        analog::ProcessCorner::kFastSlow}) {
    const auto corner_inv = analog::apply_corner(model.inverter, corner);
    const auto corner_array = core::SensorArray::with_loads(
        corner_inv, model.flipflop, model.array_loads);

    const auto untrimmed =
        corner_array.dynamic_range(pg.skew(core::DelayCode{3}));
    const double untrimmed_err =
        (std::fabs(untrimmed.all_errors_below.value() -
                   reference.all_errors_below.value()) +
         std::fabs(untrimmed.no_errors_above.value() -
                   reference.no_errors_above.value())) *
        1000.0;

    const auto tuned = core::compensate_corner(corner_array, pg, reference);

    auto range_str = [](const core::DynamicRange& r) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.3f-%.3f",
                    r.all_errors_below.value(), r.no_errors_above.value());
      return std::string(buf);
    };
    table.new_row()
        .add(std::string(analog::to_string(corner)))
        .add(range_str(untrimmed))
        .add(untrimmed_err, 4)
        .add(tuned.code.to_string())
        .add(range_str(tuned.range))
        .add(tuned.window_error * 1000.0, 4);
  }
  print_table(table);
  note("shape: SS shifts the window up (retrim to a larger code), FF "
       "down (smaller code); the retrim recovers most of the window "
       "error, as Sec. III-A claims");
}

// A3: PSN scan chain readout cost vs number of die sites.
//
// Sec. IV: "The array sensors can be placed in many points of the DUT,
// whilst only a control system is required. This sensor system can be
// thought for PSN as scan chains are for data faults." The sweep over the
// site count reports the snapshot cost in control cycles and microseconds
// at the 800 MHz control clock.
struct ChainSetup {
  scan::Floorplan fp;
  std::vector<std::unique_ptr<analog::ConstantRail>> rails;
  scan::PsnScanChain chain;

  explicit ChainSetup(std::size_t dim)
      : fp(scan::Floorplan::grid(4000.0, 4000.0, dim, dim)),
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

void a3_scan_throughput() {
  section("A3 — scan-chain snapshot cost vs site count");
  util::CsvTable table({"sites", "chain_bits", "snapshot_cycles",
                        "readout_us_at_800MHz", "worst_site_droop_mV",
                        "gradient_mV"});
  for (std::size_t dim : {2, 4, 8, 16}) {
    ChainSetup setup(dim);
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
  print_table(table);
  note("cost is linear in sites x bits, exactly like test scan; a "
       "256-site snapshot still reads out in under 3 us at 800 MHz");
}

// A4: the noise substrate itself — how the first-droop estimate converges
// as the lumped PDN model is refined into an N-segment ladder.
void a4_pdn_solver() {
  section("A4 — first droop vs PDN ladder depth (2 A step)");
  constexpr double kTotalR = 0.004;
  constexpr double kTotalLnH = 0.08;
  constexpr double kTotalCpF = 120000.0;
  const psn::StepCurrent load{Ampere{1.0}, Ampere{3.0}, 20000.0_ps};

  psn::LumpedPdnParams lumped_params;
  lumped_params.v_reg = 1.0_V;
  lumped_params.resistance = Ohm{kTotalR};
  lumped_params.inductance = NanoHenry{kTotalLnH};
  lumped_params.decap = Picofarad{kTotalCpF};
  const psn::LumpedPdn lumped{lumped_params};

  util::CsvTable table({"model", "segments", "droop_min_V", "droop_mV",
                        "time_of_min_ns", "rms_ripple_mV"});
  auto add_row = [&table](const std::string& name, std::size_t segments,
                          const psn::Waveform& w) {
    const auto m = psn::analyze_droop(w, 1.0 - kTotalR * 1.0,
                                      psn::RailPolarity::kSupplyDroop);
    table.new_row()
        .add(name)
        .add(static_cast<long long>(segments))
        .add(m.worst, 5)
        .add((1.0 - m.worst) * 1000.0, 4)
        .add(m.time_of_worst.value() * 1e-3, 5)
        .add(m.rms_ripple * 1000.0, 4);
  };

  add_row("lumped", 1, lumped.solve(load, 150000.0_ps, 10.0_ps));
  for (std::size_t n : {2, 4, 8, 16}) {
    const psn::LadderPdn ladder{psn::LadderPdnParams::uniform(
        n, 1.0_V, Ohm{kTotalR}, NanoHenry{kTotalLnH}, Picofarad{kTotalCpF})};
    add_row("ladder", n, ladder.solve(load, 150000.0_ps, 10.0_ps));
  }
  print_table(table);
  note("analytic cross-check: lumped f_res = " +
       std::to_string(lumped.resonant_frequency_ghz() * 1000.0) +
       " MHz, Z0 = " +
       std::to_string(lumped.characteristic_impedance_ohm() * 1000.0) +
       " mOhm, Q = " + std::to_string(lumped.quality_factor()));
}

core::ThermoWord structural_word(double volts, core::DelayCode code) {
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};
  sim::Simulator sim;
  analog::ConstantRail vdd{Volt{volts}};
  auto sensor = core::build_structural_sensor(
      sim, "hs", calib::make_paper_array(model), pg, code,
      analog::RailPair{&vdd, nullptr});
  core::ControlFsm fsm{code};
  return core::run_structural_measure(sim, sensor, fsm, pg, 2000.0_ps,
                                      1250.0_ps, code)
      .word;
}

// A5: the closed-form behavioral sensor and the gate-level event-driven one
// must decide identically.
void a5_model_crossval() {
  section("A5 — behavioral vs structural agreement sweep");
  const auto& model = calib::calibrated().model;
  const auto array = calib::make_paper_array(model);

  util::CsvTable table({"delay_code", "points", "agreements",
                        "disagreements"});
  for (std::uint8_t c : {2, 3, 4}) {
    const core::DelayCode code{c};
    std::size_t points = 0, agree = 0;
    for (double v = 0.80; v <= 1.28 + 1e-9; v += 0.02) {
      const auto behavioral = array.measure(Volt{v}, model.skew(code));
      const auto structural = structural_word(v, code);
      ++points;
      if (behavioral == structural) ++agree;
    }
    table.new_row()
        .add(code.to_string())
        .add(static_cast<long long>(points))
        .add(static_cast<long long>(agree))
        .add(static_cast<long long>(points - agree));
  }
  print_table(table);
  note("the two model levels agree bit-for-bit across the sweep; the "
       "cost gap that keeps the behavioral path is measured by the "
       "pipeline's grid_fixed and grid_structural workloads "
       "(bench/pipeline)");
}

// A6: metastability exposure of the sensor flip-flops.
//
// A thermometer's LSB boundary is, by construction, a metastable boundary:
// the cell whose threshold the rail is crossing samples with near-zero
// margin. The architecture is safe because the FF output is consumed a full
// control cycle later, through the ENC path — leaving ~1 ns of regeneration
// time. Unresolved-sample probability and MTBF vs available resolve time,
// closed form vs Monte-Carlo.
void a6_mtbf() {
  section("A6 — metastability MTBF vs resolve time");
  const auto& ff = calib::calibrated().model.flipflop;

  // Resolve time actually available in the architecture: control period
  // minus the ENC/compare path the STA reports.
  const double control_period_ps = 1250.0;
  const double enc_path_ps =
      sta::control_critical_path(analog::default_90nm_library())
          .arrival.value() -
      110.0;  // minus launch clk-to-q, already part of the flop's own budget
  const double available_ps = control_period_ps - enc_path_ps +
                              control_period_ps;  // word consumed a cycle later

  analog::MtbfParams params;
  params.measure_rate_hz = 1e6;  // one measure per microsecond
  params.edge_jitter_window = 50.0_ps;

  util::CsvTable table({"resolve_time_ps", "p_unresolved", "monte_carlo",
                        "mtbf_seconds", "mtbf_readable"});
  auto readable = [](double s) -> std::string {
    if (s >= 1e30) return "effectively infinite";
    if (s > 3.15e7) return std::to_string(s / 3.15e7) + " years";
    if (s > 3600.0) return std::to_string(s / 3600.0) + " hours";
    return std::to_string(s) + " s";
  };
  for (double t : {10.0, 20.0, 40.0, 80.0, 160.0, 320.0}) {
    params.resolve_time = Picoseconds{t};
    const double p = analog::unresolved_probability(ff, params);
    const double mc = analog::monte_carlo_unresolved_fraction(
        ff, params, 200000, 2026);
    const double mtbf = analog::mtbf_seconds(ff, params);
    table.new_row()
        .add(t, 4)
        .add(p, 4)
        .add(mc, 4)
        .add(mtbf, 4)
        .add(readable(mtbf));
  }
  print_table(table);

  params.resolve_time = Picoseconds{available_ps};
  note("architecture's available resolve time ≈ " +
       std::to_string(available_ps) + " ps → MTBF " +
       readable(analog::mtbf_seconds(ff, params)));
  const auto needed =
      analog::resolve_time_for_mtbf(ff, params, 10.0 * 3.15e7);
  note("resolve time needed for a 10-year MTBF at 1 M measures/s: " +
       std::to_string(needed.value()) + " ps");
}

// A7: the internal Delay-Code policy chasing a moving rail.
//
// Sec. III-B's "policy not reported for sake of brevity", made concrete: a
// saturating stepper with hysteresis (core/auto_range). The rail ramps from
// 1.20 V down to 0.80 V; the controller must keep the reading in-range by
// walking the code, and must not hunt on a noisy-but-stationary rail.
void a7_auto_range() {
  section("A7 — auto-range policy tracking a 1.20 → 0.80 V ramp");
  const auto& model = calib::calibrated().model;

  // 400 mV ramp over 2 us.
  analog::CallbackRail vdd{[](Picoseconds t) {
    const double frac = std::clamp(t.value() / 2.0e6, 0.0, 1.0);
    return Volt{1.20 - 0.40 * frac};
  }};

  auto run_policy = [&](bool adaptive) {
    auto thermometer = calib::make_paper_thermometer(model);
    core::AutoRangeController ctrl;
    core::DelayCode code{3};
    std::size_t in_range = 0, total = 0, code_changes = 0;
    double t = 0.0;
    while (t < 2.0e6) {
      const auto m = thermometer.measure_vdd(analog::RailPair{&vdd, nullptr},
                                             Picoseconds{t}, code);
      ++total;
      if (m.bin.in_range()) ++in_range;
      if (adaptive) {
        const auto next = ctrl.observe(thermometer.encode(m.word),
                                       m.word.width());
        if (next != code) ++code_changes;
        code = next;
      }
      t += 25000.0;  // one measure every 25 ns
    }
    return std::tuple{in_range, total, code_changes, code};
  };

  util::CsvTable table({"policy", "measures", "in_range", "in_range_pct",
                        "code_changes", "final_code"});
  for (const bool adaptive : {false, true}) {
    const auto [in_range, total, changes, code] = run_policy(adaptive);
    table.new_row()
        .add(adaptive ? "auto-range" : "fixed code 011")
        .add(static_cast<long long>(total))
        .add(static_cast<long long>(in_range))
        .add(100.0 * static_cast<double>(in_range) /
                 static_cast<double>(total),
             4)
        .add(static_cast<long long>(changes))
        .add(code.to_string());
  }
  print_table(table);
  note("the adaptive policy covers the full 400 mV excursion that no "
       "single code window (~230 mV) can");

  // Stability check: stationary noisy rail must not cause hunting.
  stats::Xoshiro256 rng(5);
  analog::CallbackRail noisy{[&rng](Picoseconds) {
    return Volt{0.95 + rng.normal(0.0, 0.008)};
  }};
  auto thermometer = calib::make_paper_thermometer(model);
  core::AutoRangeController ctrl;
  core::DelayCode code{3};
  std::size_t changes = 0;
  for (int i = 0; i < 200; ++i) {
    const auto m = thermometer.measure_vdd(analog::RailPair{&noisy, nullptr},
                                           Picoseconds{i * 25000.0}, code);
    const auto next = ctrl.observe(thermometer.encode(m.word),
                                   m.word.width());
    if (next != code) ++changes;
    code = next;
  }
  note("hunting check on a stationary rail (sigma 8 mV): " +
       std::to_string(changes) + " code changes in 200 measures");
}

// A8: the sensor's reading distribution across canonical noise scenarios.
// Each scenario is solved through the PDN, observed with iterated measures
// at code 011, and summarised with the MeasurementLog.
void a8_scenarios() {
  section("A8 — sensor reading distribution per noise scenario");
  const auto& model = calib::calibrated().model;

  util::CsvTable table({"scenario", "true_worst_V", "sensor_worst_V",
                        "mean_count", "out_of_range_pct", "description"});
  for (const auto kind : cut::all_scenarios()) {
    cut::ScenarioConfig config;
    config.horizon = Picoseconds{400000.0};
    const auto scenario = cut::make_scenario(kind, config);
    const analog::SampledRail vdd = scenario.vdd.to_rail();
    const analog::SampledRail gnd = scenario.gnd.to_rail();

    auto thermometer = calib::make_paper_thermometer(model);
    core::MeasurementLog log{7};
    log.record_all(thermometer.iterate_vdd(analog::RailPair{&vdd, &gnd},
                                           0.0_ps, 8000.0_ps, 48,
                                           core::DelayCode{3}));

    double mean_count = 0.0;
    for (std::size_t c = 0; c < log.count_histogram().size(); ++c) {
      mean_count += static_cast<double>(c) *
                    static_cast<double>(log.count_histogram()[c]);
    }
    mean_count /= static_cast<double>(log.size());

    table.new_row()
        .add(std::string(cut::to_string(kind)))
        .add(scenario.vdd_metrics.worst - scenario.gnd_metrics.worst, 5)
        .add(log.worst() ? log.worst()->bin.estimate().value() : 0.0, 5)
        .add(mean_count, 4)
        .add(log.out_of_range_fraction() * 100.0, 4)
        .add(scenario.description);
  }
  print_table(table);
  note("worst readings track the true worst effective rail "
       "(vdd - gnd bounce) within the code's LSB quantisation");
}

// A9: encoder bubble policy under metastable randomness.
//
// A cell sampling exactly at its threshold resolves randomly; combined with
// within-die mismatch this produces occasional bubbled (non-thermometer)
// words. The ENC block's policy decides what the controller sees:
//   majority  (popcount)       — inherently bubble-tolerant (our default)
//   first-zero (ripple encode) — the cheap classic, under-reads on bubbles
//   reject                     — flags the word, retaining the raw count
// Deep-metastability coin flips and mismatch are injected, and the count
// error of each policy is compared against the noiseless reading.
core::SensorArray make_noisy_array(stats::Xoshiro256& mismatch_rng,
                                   std::shared_ptr<stats::Xoshiro256> flip_rng) {
  const auto& model = calib::calibrated().model;
  std::vector<core::SensorCell> cells;
  for (const Picofarad load : model.array_loads) {
    auto ff = model.flipflop;
    // Coin-flip resolution when the DS edge lands within ±1.5 ps of the
    // deadline.
    ff.set_deep_meta_resolver(
        [flip_rng](Picoseconds, bool new_value, bool old_value) {
          return flip_rng->bernoulli(0.5) ? new_value : old_value;
        },
        Picoseconds{1.5});
    cells.emplace_back(analog::apply_mismatch(model.inverter, {}, mismatch_rng),
                       std::move(ff), load);
  }
  return core::SensorArray{std::move(cells)};
}

void a9_encoder_policy() {
  section("A9 — encoder policy vs metastable/mismatch bubbles");
  const auto& model = calib::calibrated().model;
  const auto clean_array = calib::make_paper_array(model);
  const Picoseconds skew = model.skew(core::DelayCode{3});

  const core::Encoder majority{core::BubblePolicy::kMajority};
  const core::Encoder first_zero{core::BubblePolicy::kFirstZero};
  const core::Encoder reject{core::BubblePolicy::kReject};

  stats::Xoshiro256 mismatch_rng(11);
  auto flip_rng = std::make_shared<stats::Xoshiro256>(13);

  std::size_t words = 0, bubbled = 0, rejected = 0;
  double err_majority = 0.0, err_first_zero = 0.0;
  const int arrays = 40;
  for (int a = 0; a < arrays; ++a) {
    const auto noisy = make_noisy_array(mismatch_rng, flip_rng);
    for (double v = 0.84; v <= 1.06; v += 0.005) {
      const auto truth = clean_array.measure(Volt{v}, skew).count_ones();
      const auto word = noisy.measure(Volt{v}, skew);
      ++words;
      if (!word.is_valid_thermometer()) ++bubbled;
      if (!reject.encode(word).valid) ++rejected;
      err_majority += std::abs(
          static_cast<int>(majority.encode(word).count) -
          static_cast<int>(truth));
      err_first_zero += std::abs(
          static_cast<int>(first_zero.encode(word).count) -
          static_cast<int>(truth));
    }
  }

  util::CsvTable table({"metric", "value"});
  table.new_row().add("words_sampled").add(static_cast<long long>(words));
  table.new_row().add("bubbled_words").add(static_cast<long long>(bubbled));
  table.new_row().add("bubbled_pct").add(
      100.0 * static_cast<double>(bubbled) / static_cast<double>(words), 4);
  table.new_row().add("reject_policy_flags").add(
      static_cast<long long>(rejected));
  table.new_row().add("mean_abs_err_majority_lsb").add(
      err_majority / static_cast<double>(words), 4);
  table.new_row().add("mean_abs_err_first_zero_lsb").add(
      err_first_zero / static_cast<double>(words), 4);
  print_table(table);
  note("majority (popcount) encoding strictly dominates the ripple "
       "first-zero encoder once bubbles appear — the flash-ADC "
       "lesson applies to the noise thermometer too");
}

// A10: temperature drift of the sensor characteristic.
//
// The paper's "fine tuning" hook: the same trim mechanism that absorbs
// process corners must also absorb junction-temperature drift. The sweep
// over -40…125 °C reports the window drift at the factory code and the
// Delay-Code retrim recovering the reference window.
void a10_temperature() {
  section("A10 — temperature drift and Delay-Code retrim (ref 25 degC/011)");
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};
  const auto ref_array = calib::make_paper_array(model);
  const auto reference = ref_array.dynamic_range(pg.skew(core::DelayCode{3}));

  util::CsvTable table({"temp_degC", "drive_factor", "window_at_011_V",
                        "drift_mV", "retrim_code", "residual_mV"});
  for (double t : {-40.0, 0.0, 25.0, 50.0, 85.0, 105.0, 125.0}) {
    const auto hot_inv = analog::apply_temperature(model.inverter, Celsius{t});
    const auto hot_array = core::SensorArray::with_loads(
        hot_inv, model.flipflop, model.array_loads);
    const auto window = hot_array.dynamic_range(pg.skew(core::DelayCode{3}));
    const double drift_mv =
        (std::fabs(window.all_errors_below.value() -
                   reference.all_errors_below.value()) +
         std::fabs(window.no_errors_above.value() -
                   reference.no_errors_above.value())) *
        500.0;  // mean of the two edges, in mV
    const auto tuned = core::compensate_corner(hot_array, pg, reference);
    char window_str[48];
    std::snprintf(window_str, sizeof window_str, "%.3f-%.3f",
                  window.all_errors_below.value(),
                  window.no_errors_above.value());
    table.new_row()
        .add(t, 4)
        .add(analog::temperature_drive_factor(Celsius{t}), 5)
        .add(std::string(window_str))
        .add(drift_mv, 4)
        .add(tuned.code.to_string())
        .add(tuned.window_error * 500.0, 4);
  }
  print_table(table);
  note("hot silicon is slower → window shifts up, like the SS corner; "
       "the retrim absorbs most of the drift. A temperature-aware "
       "code schedule makes the measure T-insensitive within the "
       "trim's granularity");
}

// A11: converter linearity of the thermometer (INL/DNL/yield).
//
// Flash-ADC metrology applied to the sensor: per-step DNL of the paper's
// (deliberately non-uniform) ladder, and the Monte-Carlo mismatch yield a
// datasheet would quote.
void a11_linearity() {
  const auto& model = calib::calibrated().model;
  const core::PulseGenerator pg{model.pg_config()};
  const auto paper_array = calib::make_paper_array(model);

  section("A11 — DNL/INL of the paper ladder (code 011)");
  const auto rep = core::analyze_linearity(paper_array, pg,
                                           core::DelayCode{3});
  util::CsvTable table({"step", "dnl_lsb", "inl_at_edge_lsb"});
  for (std::size_t i = 0; i < rep.dnl_lsb.size(); ++i) {
    table.new_row()
        .add(static_cast<long long>(i + 1))
        .add(rep.dnl_lsb[i], 4)
        .add(rep.inl_lsb[i + 1], 4);
  }
  print_table(table);
  note("ideal LSB = " + std::to_string(rep.lsb_ideal_mv) +
       " mV; max |DNL| = " + std::to_string(rep.max_abs_dnl) +
       " LSB (the paper's quoted ladder is bottom-heavy), max |INL| = " +
       std::to_string(rep.max_abs_inl) + " LSB");

  section("A11 — Monte-Carlo mismatch yield (code 011)");
  util::CsvTable mc_table({"sigma_drive_pct", "sigma_vth_mV", "trials",
                           "mean_maxDNL_lsb", "p95_maxDNL_lsb",
                           "yield_halfLSB_pct"});
  for (const auto& [sd, sv] : std::vector<std::pair<double, double>>{
           {0.01, 2.5}, {0.02, 5.0}, {0.04, 10.0}}) {
    analog::MismatchParams mm;
    mm.sigma_drive = sd;
    mm.sigma_vth = Volt{sv * 1e-3};
    const auto mc = core::monte_carlo_linearity(
        model.inverter, model.flipflop, model.array_loads, pg,
        core::DelayCode{3}, 300, 2026, mm);
    mc_table.new_row()
        .add(sd * 100.0, 3)
        .add(sv, 3)
        .add(static_cast<long long>(mc.trials))
        .add(mc.mean_max_abs_dnl, 4)
        .add(mc.p95_max_abs_dnl, 4)
        .add(mc.yield_half_lsb * 100.0, 4);
  }
  print_table(mc_table);
  note("within-die mismatch adds to the intrinsic ladder DNL; the "
       "half-LSB yield column is the 'no-missing-codes' analogue and "
       "motivates the paper's per-die fine tuning");
}

// A12: the abstract's "very low overhead in terms of power and area",
// quantified: area and energy of the complete sensor system (arrays + PG +
// shared control) against representative CUT sizes, single-site and
// scan-chain deployments.
void a12_overhead() {
  const auto& model = calib::calibrated().model;

  section("A12 — area breakdown (one site, both arrays)");
  const auto one = core::estimate_overhead(model);
  util::CsvTable area({"component", "area_um2", "share_pct"});
  const auto add_area = [&area, &one](const char* name, double um2) {
    area.new_row().add(std::string(name)).add(um2, 5).add(
        100.0 * um2 / one.area.total_um2, 4);
  };
  add_area("sense INV+FF cells", one.area.sense_cells_um2);
  add_area("DS load MOS caps", one.area.load_caps_um2);
  add_area("pulse generator", one.area.pulse_gen_um2);
  add_area("control (CNTR+ENC+counter)", one.area.control_um2);
  add_area("TOTAL", one.area.total_um2);
  print_table(area);

  section("A12 — overhead vs CUT size and deployment");
  util::CsvTable table({"deployment", "total_area_um2", "vs_1mm2_cut_pct",
                        "vs_10mm2_cut_pct", "energy_per_measure_pJ",
                        "power_at_1M_meas_s_uW"});
  for (std::size_t sites : {1, 4, 16, 64}) {
    core::OverheadConfig cfg;
    cfg.sensor_sites = sites;
    const auto r = core::estimate_overhead(model, cfg);
    table.new_row()
        .add(std::to_string(sites) + " site(s)")
        .add(r.area.total_um2, 6)
        .add(r.area.percent_of(1e6), 4)
        .add(r.area.percent_of(1e7), 4)
        .add(r.power.energy_per_measure_pj, 5)
        .add(r.power.power_uw_at(1e6), 5);
  }
  print_table(table);
  note("even a 64-site full-die scan chain stays in the low percent "
       "range of a 10 mm^2 CUT and tens-to-hundreds of uW at a 1 MHz "
       "measure rate — the abstract's low-overhead claim holds, with "
       "the DS MOS caps (not the logic) dominating area");
  note("control block: " + std::to_string(one.control_gates) +
       " gates + " + std::to_string(one.control_registers) +
       " registers, shared across all sites");
}

// A13: spectral view of the noise scenarios and the sensor's sampling
// bandwidth.
//
// The FFT of each scenario's rail identifies the dominant tone; comparing it
// against the sensor's iterated-measure Nyquist rate (one measure per 6
// control cycles) says which scenarios can be *reconstructed* rather than
// merely bounded — the quantitative version of the paper's remark that
// measures "should be iterated so that noise values can be captured in
// different moments of the CUT transient behavior".
void a13_spectral() {
  section("A13 — dominant noise tone vs sensor sampling bandwidth");
  // One measure per 6 control cycles at 800 MHz → 7.5 ns cadence → Nyquist
  // ≈ 67 MHz for back-to-back transactions.
  const double transaction_s = 6.0 * 1.25e-9;
  const double nyquist_1x = 0.5 / transaction_s;

  util::CsvTable table({"scenario", "dominant_tone_MHz", "p2p_mV",
                        "samples_per_period_backtoback",
                        "scan_snapshot_16sites_ns", "verdict"});
  // A 16-site scan snapshot costs 6 + 16*7 = 118 cycles of measure+shift.
  const double snapshot_16_s = 118.0 * 1.25e-9;
  for (const auto kind : cut::all_scenarios()) {
    cut::ScenarioConfig config;
    config.horizon = Picoseconds{800000.0};
    config.dt = Picoseconds{20.0};
    const auto scenario = cut::make_scenario(kind, config);

    const double fs = 1.0 / (config.dt.value() * 1e-12);
    const double tone_hz =
        stats::dominant_frequency_hz(scenario.vdd.samples(), fs);
    const double samples_per_period =
        tone_hz > 1e3 ? 1.0 / (tone_hz * transaction_s) : 1e9;
    const bool streaming_ok = tone_hz < nyquist_1x;
    const bool snapshot_ok = tone_hz < 0.5 / snapshot_16_s;
    table.new_row()
        .add(std::string(cut::to_string(kind)))
        .add(tone_hz * 1e-6, 5)
        .add(scenario.vdd.peak_to_peak() * 1000.0, 4)
        .add(samples_per_period > 1e6 ? -1.0 : samples_per_period, 4)
        .add(snapshot_16_s * 1e9, 4)
        .add(std::string(
            streaming_ok
                ? (snapshot_ok ? "streaming + scan both fine"
                               : "stream locally; scan sees envelope only")
                : "envelope only"));
  }
  print_table(table);
  note("a single array measuring back-to-back (7.5 ns cadence) "
       "Nyquist-covers even the 51 MHz resonance (~2.6 samples per "
       "period), but a 16-site scan snapshot takes 147 ns — far too "
       "slow to stream the tone. The scan chain therefore reports "
       "per-site droop envelopes while local iterated measures do "
       "waveform capture, matching how the paper separates the "
       "verification and power-aware use cases");
}

}  // namespace
}  // namespace psnt

int main() {
  psnt::calibration_context();
  psnt::fig2_sensor_detail();
  psnt::fig3_prepare_sense();
  psnt::fig4_threshold_vs_cap();
  psnt::fig5_array_characteristic();
  psnt::table1_delay_codes();
  psnt::fig9_system_trace();
  psnt::sta_critical_path();
  psnt::a1_droop_tracking();
  psnt::a2_corner_compensation();
  psnt::a3_scan_throughput();
  psnt::a4_pdn_solver();
  psnt::a5_model_crossval();
  psnt::a6_mtbf();
  psnt::a7_auto_range();
  psnt::a8_scenarios();
  psnt::a9_encoder_policy();
  psnt::a10_temperature();
  psnt::a11_linearity();
  psnt::a12_overhead();
  psnt::a13_spectral();
  return 0;
}
