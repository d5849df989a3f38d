#include "analog/cell_library.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace psnt::analog {

TimingTable::TimingTable(std::vector<double> slew_axis_ps,
                         std::vector<double> load_axis_pf,
                         std::vector<double> values_ps)
    : slews_(std::move(slew_axis_ps)),
      loads_(std::move(load_axis_pf)),
      values_(std::move(values_ps)) {
  PSNT_CHECK(!slews_.empty() && !loads_.empty(), "empty table axis");
  PSNT_CHECK(values_.size() == slews_.size() * loads_.size(),
             "table value count must equal |slew axis| * |load axis|");
  PSNT_CHECK(std::is_sorted(slews_.begin(), slews_.end()),
             "slew axis must be ascending");
  PSNT_CHECK(std::is_sorted(loads_.begin(), loads_.end()),
             "load axis must be ascending");
}

namespace {

// Index of the lower axis point of the segment containing (or nearest to) x.
std::size_t segment_index(const std::vector<double>& axis, double x) {
  if (axis.size() == 1) return 0;
  // Clamp into [axis.front(), axis.back()] segment range; outside values use
  // the edge segment's slope (linear extrapolation).
  std::size_t i = 0;
  while (i + 2 < axis.size() && x >= axis[i + 1]) ++i;
  return i;
}

}  // namespace

Picoseconds TimingTable::lookup(Picoseconds input_slew, Picofarad load) const {
  const double s = input_slew.value();
  const double l = load.value();

  if (slews_.size() == 1 && loads_.size() == 1) return Picoseconds{values_[0]};

  const std::size_t si = segment_index(slews_, s);
  const std::size_t li = segment_index(loads_, l);

  auto frac = [](const std::vector<double>& axis, std::size_t i, double x) {
    if (axis.size() == 1) return 0.0;
    const double lo = axis[i];
    const double hi = axis[i + 1];
    return (x - lo) / (hi - lo);  // may be <0 or >1: extrapolation
  };

  const double fs = slews_.size() == 1 ? 0.0 : frac(slews_, si, s);
  const double fl = loads_.size() == 1 ? 0.0 : frac(loads_, li, l);

  const std::size_t si1 = slews_.size() == 1 ? si : si + 1;
  const std::size_t li1 = loads_.size() == 1 ? li : li + 1;

  const double v00 = at(si, li);
  const double v01 = at(si, li1);
  const double v10 = at(si1, li);
  const double v11 = at(si1, li1);

  const double v0 = v00 + (v01 - v00) * fl;
  const double v1 = v10 + (v11 - v10) * fl;
  return Picoseconds{v0 + (v1 - v0) * fs};
}

TimingTable TimingTable::linear(double intrinsic_ps, double ps_per_pf,
                                double slew_factor,
                                std::vector<double> slew_axis_ps,
                                std::vector<double> load_axis_pf) {
  std::vector<double> values;
  values.reserve(slew_axis_ps.size() * load_axis_pf.size());
  for (double s : slew_axis_ps) {
    for (double l : load_axis_pf) {
      values.push_back(intrinsic_ps + ps_per_pf * l + slew_factor * s);
    }
  }
  return TimingTable{std::move(slew_axis_ps), std::move(load_axis_pf),
                     std::move(values)};
}

Picoseconds Cell::worst_delay(Picoseconds input_slew, Picofarad load) const {
  Picoseconds worst{0.0};
  for (const auto& arc : arcs) {
    worst = std::max(worst, arc.delay.lookup(input_slew, load));
  }
  if (seq) worst = std::max(worst, seq->clk_to_q.lookup(input_slew, load));
  return worst;
}

void CellLibrary::add(Cell cell) {
  PSNT_CHECK(!cell.name.empty(), "cell needs a name");
  PSNT_CHECK(cells_.find(cell.name) == cells_.end(),
             "duplicate cell name: " + cell.name);
  cells_.emplace(cell.name, std::move(cell));
}

const Cell* CellLibrary::find(std::string_view name) const {
  auto it = cells_.find(name);
  return it == cells_.end() ? nullptr : &it->second;
}

const Cell& CellLibrary::at(std::string_view name) const {
  const Cell* cell = find(name);
  PSNT_CHECK(cell != nullptr, std::string("unknown cell: ") + std::string(name));
  return *cell;
}

std::vector<std::string> CellLibrary::cell_names() const {
  std::vector<std::string> names;
  names.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) names.push_back(name);
  return names;
}

double CellLibrary::voltage_derate(Volt v) const {
  // Delay ratio of the alpha-power model at v vs the nominal voltage, with a
  // fixed reference load: both C terms cancel, so any load works.
  const Picofarad ref_load{0.004};
  const double at_v = derate_model_.delay(v, ref_load).value();
  const double at_nom = derate_model_.delay(nominal_v_, ref_load).value();
  return at_v / at_nom;
}

namespace {

Cell make_comb_cell(std::string name, std::vector<std::string> inputs,
                    double intrinsic_ps, double ps_per_pf, double slew_factor,
                    double input_cap_pf, bool inverting) {
  Cell cell;
  cell.name = std::move(name);
  cell.input_cap = Picofarad{input_cap_pf};
  for (auto& in : inputs) {
    TimingArc arc;
    arc.from_pin = std::move(in);
    arc.to_pin = "Y";
    arc.delay = TimingTable::linear(intrinsic_ps, ps_per_pf, slew_factor);
    // Output slew tracks load; intrinsic slew floor ~8 ps.
    arc.output_slew = TimingTable::linear(8.0, 0.6 * ps_per_pf, 0.1);
    arc.inverting = inverting;
    cell.arcs.push_back(std::move(arc));
  }
  return cell;
}

CellLibrary build_default_library() {
  CellLibrary lib;
  // name, inputs, intrinsic ps, ps/pF, slew factor, pin cap pF, inverting
  lib.add(make_comb_cell("INV_X1", {"A"}, 14.0, 2600.0, 0.10, 0.0020, true));
  lib.add(make_comb_cell("INV_X2", {"A"}, 12.0, 1400.0, 0.08, 0.0038, true));
  lib.add(make_comb_cell("INV_X4", {"A"}, 10.0, 750.0, 0.06, 0.0074, true));
  lib.add(make_comb_cell("BUF_X1", {"A"}, 30.0, 2700.0, 0.10, 0.0021, false));
  lib.add(make_comb_cell("NAND2_X1", {"A", "B"}, 22.0, 2900.0, 0.12, 0.0023,
                         true));
  lib.add(make_comb_cell("NOR2_X1", {"A", "B"}, 26.0, 3300.0, 0.14, 0.0023,
                         true));
  lib.add(make_comb_cell("AND2_X1", {"A", "B"}, 38.0, 2700.0, 0.12, 0.0023,
                         false));
  lib.add(make_comb_cell("OR2_X1", {"A", "B"}, 42.0, 2800.0, 0.13, 0.0023,
                         false));
  lib.add(make_comb_cell("XOR2_X1", {"A", "B"}, 52.0, 3100.0, 0.15, 0.0045,
                         false));
  lib.add(make_comb_cell("AOI21_X1", {"A", "B", "C"}, 34.0, 3400.0, 0.15,
                         0.0024, true));
  lib.add(make_comb_cell("MUX2_X1", {"A", "B", "S"}, 48.0, 2900.0, 0.14,
                         0.0030, false));
  // The PG delay element: a deliberately slow buffer (long-channel devices).
  lib.add(make_comb_cell("DLY4_X1", {"A"}, 13.0, 2700.0, 0.10, 0.0022, false));

  Cell dff;
  dff.name = "DFF_X1";
  dff.input_cap = Picofarad{0.0025};
  SequentialTiming seq;
  seq.t_setup = Picoseconds{55.0};
  seq.t_hold = Picoseconds{12.0};
  seq.clk_to_q = TimingTable::linear(110.0, 2500.0, 0.05);
  dff.seq = seq;
  lib.add(std::move(dff));

  return lib;
}

}  // namespace

const CellLibrary& default_90nm_library() {
  static const CellLibrary lib = build_default_library();
  return lib;
}

}  // namespace psnt::analog
