// Area and power overhead of the sensor system.
//
// The abstract claims "very low overhead in terms of power and area"; this
// module turns that into numbers. Area uses representative 90 nm GP cell
// footprints plus MOS-cap density for the DS loads (the paper realises C
// "by a transistor conveniently connected"); energy integrates C·V² over the
// nodes that toggle in one PREPARE+SENSE transaction, and leakage uses a
// per-cell figure. Bench A12 reports the overhead against typical CUT sizes.
#pragma once

#include <cstddef>

#include "calib/fit.h"
#include "util/units.h"

namespace psnt::core {

struct OverheadConfig {
  // 90 nm GP flavour constants.
  double mos_cap_density_ff_per_um2 = 8.0;
  double inv_area_um2 = 2.8;
  double dff_area_um2 = 14.6;
  double avg_gate_area_um2 = 4.4;   // control random logic
  double mux_area_um2 = 7.9;
  double dly_area_um2 = 5.3;
  double leakage_nw_per_cell = 2.5;
  // Average toggled capacitance per control gate per transaction (output +
  // wire), in fF, times the average activity over the 6-cycle transaction.
  double control_toggle_ff = 5.0;
  double control_activity = 0.25;
  std::size_t sensor_sites = 1;  // arrays replicated across the die
};

struct AreaBreakdown {
  double sense_cells_um2 = 0.0;  // INV + FF per bit, both arrays
  double load_caps_um2 = 0.0;    // MOS caps on the DS nodes
  double pulse_gen_um2 = 0.0;
  double control_um2 = 0.0;      // CNTR + ENC + counter (shared)
  double total_um2 = 0.0;

  [[nodiscard]] double percent_of(double cut_area_um2) const {
    return 100.0 * total_um2 / cut_area_um2;
  }
};

struct PowerBreakdown {
  double energy_per_measure_pj = 0.0;  // dynamic, all sites
  double leakage_uw = 0.0;
  // Total average power at a given measure rate.
  [[nodiscard]] double power_uw_at(double measures_per_second) const {
    return energy_per_measure_pj * 1e-12 * measures_per_second * 1e6 +
           leakage_uw;
  }
};

struct OverheadReport {
  AreaBreakdown area;
  PowerBreakdown power;
  std::size_t control_gates = 0;
  std::size_t control_registers = 0;
};

// Estimates the full system overhead for the calibrated sensor design.
[[nodiscard]] OverheadReport estimate_overhead(
    const calib::CalibratedModel& model, OverheadConfig config = {});

}  // namespace psnt::core
