// Fitting the behavioral models to the paper's anchors.
//
// Free parameters (DESIGN.md §6): the alpha-power constants (K, alpha, V_t)
// and the PG's fixed CP insertion delay. The intrinsic DS capacitance and the
// FF timing are held at their library values. A Nelder–Mead pass minimises
// the squared timing residuals of five anchor equations:
//
//   r1: delay(0.9360 V, 2 pF)        = budget(code 011)     [Fig. 4]
//   r2: delay(1.053 V,  C7)          = budget(code 011)     [Fig. 5 top]
//   r3: delay(1.237 V,  C7)          = budget(code 010)     [Fig. 5 010 top]
//   r4: delay(0.827 V,  C1)          = budget(code 011)     [Fig. 5 bottom]
//   r5: delay(0.951 V,  C1)          = budget(code 010)     [Fig. 5 010 low]
//
// with C1/C7 treated as nuisance parameters, plus weak priors keeping alpha
// and V_t near their 90 nm-typical values. Afterwards the seven array loads
// are solved *exactly* (analytically) so the code-011 thresholds reproduce
// Fig. 5; the code-010 range and the Fig. 4 point then become genuine
// predictions of the model, reported in EXPERIMENTS.md.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analog/flipflop_model.h"
#include "analog/supply_delay_model.h"
#include "calib/anchors.h"
#include "core/pulse_gen.h"
#include "core/sensor_array.h"
#include "core/streaming_encoder.h"
#include "core/thermometer.h"

namespace psnt::calib {

struct CalibratedModel {
  analog::AlphaPowerDelayModel inverter;
  analog::FlipFlopTimingModel flipflop;
  Picoseconds cp_insertion{0.0};
  std::vector<Picofarad> array_loads;  // 7 entries, ascending

  // Skew (P→CP) for a delay code under the fitted PG.
  [[nodiscard]] Picoseconds skew(core::DelayCode code) const;
  // Setup budget the DS transition must meet at a code.
  [[nodiscard]] Picoseconds budget(core::DelayCode code) const;

  [[nodiscard]] core::PulseGenerator::Config pg_config() const;
};

struct AnchorReport {
  std::string name;
  double target = 0.0;
  double achieved = 0.0;
  std::string unit;

  [[nodiscard]] double error() const { return achieved - target; }
};

struct FitResult {
  CalibratedModel model;
  double objective = 0.0;  // final sum of squared residuals (ps^2)
  int iterations = 0;
  bool converged = false;
  std::vector<AnchorReport> report;  // paper-vs-fitted, for EXPERIMENTS.md
};

// Runs the fit from library-typical starting values. Deterministic, < 1 ms.
[[nodiscard]] FitResult fit_paper_model(
    const PaperAnchors& anchors = paper_anchors());

// Cached fit of the default anchors (computed once per process).
[[nodiscard]] const FitResult& calibrated();

// Human-readable calibration report: fitted parameters, anchor-by-anchor
// paper-vs-achieved table, and the derived array loads.
void write_calibration_report(std::ostream& os, const FitResult& fit);

// The 7-bit paper-calibrated HIGH-SENSE / LOW-SENSE array.
[[nodiscard]] core::SensorArray make_paper_array(const CalibratedModel& model);

// core::BehavioralEngine wired with the calibrated arrays and PG — the
// backend every calibrated consumer (thermometer facade, scan chain, grid
// sites) is ultimately built on.
[[nodiscard]] core::BehavioralEngine make_paper_engine(
    const CalibratedModel& model, core::ThermometerConfig config = {});

// Complete thermometer wired with the calibrated arrays and PG.
[[nodiscard]] core::NoiseThermometer make_paper_thermometer(
    const CalibratedModel& model, core::ThermometerConfig config = {});

// Immutable per-code decode ladders for the calibrated HIGH-SENSE array:
// bit-identical to make_paper_engine's VDD decode (the engine builds the
// same ladder from the same array + PG). This is the
// aggregator-side voltage conversion of the streaming raw-word pipeline —
// build once, share read-only across threads.
[[nodiscard]] core::DecodeLadder make_paper_decode_ladder(
    const CalibratedModel& model);

}  // namespace psnt::calib
