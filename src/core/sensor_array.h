// Multi-bit sensor array (Fig. 1 right): the "thermometer".
//
// N identical INV+FF cells whose DS loads increase monotonically, giving N
// ascending failure thresholds. The output word is flash-ADC-like: cell i
// reads 1 iff the measured voltage is at or above threshold i.
//
// The same array serves both rails. For VDD sensing the measured quantity is
// VDD-n directly; for GND sensing the inverter sees an effective overdrive of
// (VDD_nominal − GND-n), and the array maps thresholds back into GND-n terms
// (a *rising* GND-n causes errors).
#pragma once

#include <vector>

#include "core/measurement.h"
#include "core/pulse_gen.h"
#include "core/sensor_cell.h"

namespace psnt::core {

struct DynamicRange {
  Volt all_errors_below{0.0};  // lowest threshold
  Volt no_errors_above{0.0};   // highest threshold

  [[nodiscard]] Volt span() const {
    return no_errors_above - all_errors_below;
  }
};

class SensorArray {
 public:
  // Cells must be ordered by ascending load (ascending threshold).
  explicit SensorArray(std::vector<SensorCell> cells);

  // Arbitrary ladder (ascending).
  static SensorArray with_loads(const analog::AlphaPowerDelayModel& inverter,
                                const analog::FlipFlopTimingModel& flipflop,
                                const std::vector<Picofarad>& loads);

  [[nodiscard]] std::size_t bits() const { return cells_.size(); }
  [[nodiscard]] const SensorCell& cell(std::size_t i) const {
    return cells_.at(i);
  }
  [[nodiscard]] const std::vector<SensorCell>& cells() const { return cells_; }

  // One SENSE evaluation of every cell at effective supply `v_eff`.
  [[nodiscard]] ThermoWord measure(Volt v_eff, Picoseconds skew) const;

  // Per-cell failure thresholds for the given skew, in cell order. Cells
  // whose threshold falls outside (Vt, v_max] are clamped to the window
  // edges. Ascending in the nominal design; within-die mismatch can reorder
  // adjacent cells (the physical origin of bubble codes).
  [[nodiscard]] std::vector<Volt> thresholds(Picoseconds skew,
                                             Volt v_max = Volt{2.0}) const;

  // The effective converter ladder: thresholds() sorted ascending. With
  // majority (popcount) encoding, a reading of k means the voltage cleared
  // exactly the k smallest thresholds, so decode() works on this ladder even
  // for mismatched arrays.
  [[nodiscard]] std::vector<Volt> sorted_thresholds(
      Picoseconds skew, Volt v_max = Volt{2.0}) const;

  [[nodiscard]] DynamicRange dynamic_range(Picoseconds skew) const;

  // Decodes a word into the voltage interval it implies (thresholds are
  // computed for `skew`). Invalid (bubbled) words are corrected first.
  [[nodiscard]] VoltageBin decode(const ThermoWord& word,
                                  Picoseconds skew) const;

  // GND-n view: converts a VDD-domain bin/threshold to GND-n terms given the
  // nominal supply of the LOW-SENSE inverters: gnd = v_nom − v_eff.
  [[nodiscard]] VoltageBin decode_gnd(const ThermoWord& word, Picoseconds skew,
                                      Volt v_nominal) const;

 private:
  std::vector<SensorCell> cells_;
};

}  // namespace psnt::core
