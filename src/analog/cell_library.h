// NLDM-style standard-cell timing library.
//
// The paper's sensor is "fully digital and standard cell based"; its control
// system, encoder, counter and pulse generator are ordinary synthesized
// logic. We model cell timing the way real sign-off does: non-linear delay
// model (NLDM) lookup tables indexed by input slew and output load, with
// bilinear interpolation and clamped extrapolation, plus a global
// supply-voltage derating derived from the same alpha-power law as the sense
// inverter. The table values are representative of a 90 nm GP process at
// TT/1.0 V/25 °C; they are calibrated so the control block's critical path
// reproduces the paper's 1.22 ns figure (see src/sta).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analog/supply_delay_model.h"
#include "util/units.h"

namespace psnt::analog {

// 2-D lookup: rows = input slew axis, cols = load axis, values in ps.
class TimingTable {
 public:
  TimingTable() = default;
  TimingTable(std::vector<double> slew_axis_ps, std::vector<double> load_axis_pf,
              std::vector<double> values_ps);

  // Bilinear interpolation; queries outside the axes clamp to the edge
  // segment and extrapolate linearly along it (standard NLDM behaviour).
  [[nodiscard]] Picoseconds lookup(Picoseconds input_slew,
                                   Picofarad load) const;

  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& slew_axis() const { return slews_; }
  [[nodiscard]] const std::vector<double>& load_axis() const { return loads_; }

  // Builds the common "linear in load, weakly dependent on slew" table:
  // value = intrinsic + slope*load + slew_factor*slew.
  static TimingTable linear(double intrinsic_ps, double ps_per_pf,
                            double slew_factor,
                            std::vector<double> slew_axis_ps = {5, 20, 80, 320},
                            std::vector<double> load_axis_pf = {0.001, 0.004,
                                                                0.016, 0.064});

 private:
  [[nodiscard]] double at(std::size_t row, std::size_t col) const {
    return values_[row * loads_.size() + col];
  }

  std::vector<double> slews_;
  std::vector<double> loads_;
  std::vector<double> values_;  // row-major [slew][load]
};

struct TimingArc {
  std::string from_pin;
  std::string to_pin;
  TimingTable delay;
  TimingTable output_slew;
  bool inverting = false;
};

struct SequentialTiming {
  Picoseconds t_setup{0.0};
  Picoseconds t_hold{0.0};
  TimingTable clk_to_q;
};

struct Cell {
  std::string name;
  Picofarad input_cap{0.002};         // per input pin
  std::vector<TimingArc> arcs;        // combinational arcs
  std::optional<SequentialTiming> seq;  // present for flops

  [[nodiscard]] bool is_sequential() const { return seq.has_value(); }
  // Worst (max over arcs) delay for the given slew/load — the quantity STA
  // propagates when pin-specific arcs are not distinguished.
  [[nodiscard]] Picoseconds worst_delay(Picoseconds input_slew,
                                        Picofarad load) const;
};

class CellLibrary {
 public:
  void add(Cell cell);
  [[nodiscard]] const Cell* find(std::string_view name) const;
  [[nodiscard]] const Cell& at(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] std::vector<std::string> cell_names() const;

  // Supply-voltage derating factor for the whole library relative to the
  // characterisation voltage (1.0 V): alpha-power delay ratio.
  [[nodiscard]] double voltage_derate(Volt v) const;

  [[nodiscard]] Volt nominal_voltage() const { return nominal_v_; }

 private:
  std::map<std::string, Cell, std::less<>> cells_;
  Volt nominal_v_{1.0};
  AlphaPowerDelayModel derate_model_{};
};

// The library used throughout: INV_X1/X2/X4, BUF_X1, NAND2_X1, NOR2_X1,
// AND2_X1, OR2_X1, XOR2_X1, MUX2_X1, AOI21_X1, DFF_X1, DLY4_X1 (the PG delay
// element).
[[nodiscard]] const CellLibrary& default_90nm_library();

}  // namespace psnt::analog
