#include "core/overhead.h"

#include "core/measurement.h"
#include "sta/control_netlist.h"
#include "util/error.h"

namespace psnt::core {

OverheadReport estimate_overhead(const calib::CalibratedModel& model,
                                 OverheadConfig config) {
  PSNT_CHECK(config.sensor_sites >= 1, "need at least one sensor site");
  OverheadReport report;
  const auto sites = static_cast<double>(config.sensor_sites);
  const double bits = static_cast<double>(model.array_loads.size());
  const double v = kNominalSupply.value();

  // --- Area ------------------------------------------------------------
  // Both arrays (HIGH-SENSE and LOW-SENSE) at every site.
  const double arrays_per_site = 2.0;
  report.area.sense_cells_um2 = sites * arrays_per_site * bits *
                                (config.inv_area_um2 + config.dff_area_um2);

  double total_cap_pf = 0.0;
  for (const Picofarad c : model.array_loads) total_cap_pf += c.value();
  report.area.load_caps_um2 = sites * arrays_per_site * total_cap_pf * 1000.0 /
                              config.mos_cap_density_ff_per_um2;

  // PG: 8 delay elements + 2×7 MUX2 (CP tree + P dummy tree) + 3 buffers,
  // one PG per site (HS and LS share it through the delay_HS/delay_LS MUX).
  report.area.pulse_gen_um2 =
      sites * (8.0 * config.dly_area_um2 + 14.0 * config.mux_area_um2 +
               3.0 * config.avg_gate_area_um2);

  // Shared control (one per chip): gate/register counts from the STA netlist.
  const auto netlist =
      sta::build_control_netlist(analog::default_90nm_library());
  report.control_gates = netlist.gate_count;
  report.control_registers = netlist.register_count;
  report.area.control_um2 =
      static_cast<double>(netlist.gate_count) * config.avg_gate_area_um2 +
      static_cast<double>(netlist.register_count) * config.dff_area_um2;

  report.area.total_um2 = report.area.sense_cells_um2 +
                          report.area.load_caps_um2 +
                          report.area.pulse_gen_um2 + report.area.control_um2;

  // --- Power -----------------------------------------------------------
  // DS nodes toggle twice per transaction (PREPARE settle + SENSE edge);
  // only the HS or LS array is exercised per measure, both are powered.
  const double intrinsic_pf = model.inverter.params().c_intrinsic.value();
  const double ds_energy_pj =
      2.0 * (total_cap_pf + bits * intrinsic_pf) * v * v;
  // FF clocking: ~15 fF internal per flop, two CP edges per transaction.
  const double ff_energy_pj = 2.0 * bits * 0.015 * v * v;
  // Control logic over the 6-cycle transaction.
  const double control_energy_pj =
      static_cast<double>(netlist.gate_count) * config.control_toggle_ff *
      1e-3 * v * v * config.control_activity * 6.0;
  report.power.energy_per_measure_pj =
      sites * (ds_energy_pj + ff_energy_pj) + control_energy_pj;

  const double total_cells =
      sites * (arrays_per_site * bits * 2.0 + 25.0) +  // arrays + PG
      static_cast<double>(netlist.gate_count + netlist.register_count);
  report.power.leakage_uw = total_cells * config.leakage_nw_per_cell * 1e-3;

  return report;
}

}  // namespace psnt::core
