// Supply-voltage-dependent CMOS propagation delay (alpha-power law).
//
// This is the substitute for the paper's ELDO transistor-level simulation of
// the sense inverter (DESIGN.md §2). The propagation delay of a standard-cell
// inverter driving a capacitive load C from a supply V is modelled as
//
//     t_pd(V, C) = (C + C_int) * V / (K * (V - V_t)^alpha)
//
// which is Sakurai–Newton's alpha-power-law MOSFET abstraction: the load
// charge (C_total * V) divided by the saturation drive current
// K * (V - V_t)^alpha. Within the paper's 0.9–1.1 V window this function is
// close to linear in both V and C — exactly the two near-linear relations the
// paper's Fig. 2 (delay vs VDD-n) and Fig. 4 (threshold vs C) rely on.
//
// Parameters are obtained by fitting to the paper's quoted anchor points
// (src/calib); nothing here hardcodes the paper values.
#pragma once

#include <optional>

#include "util/units.h"

namespace psnt::analog {

struct AlphaPowerParams {
  // Drive-strength constant K, in pF/ps: a cell with K=0.03 charges
  // 0.03 pC per ps per (V-Vt)^alpha volt of overdrive.
  double drive_k_pf_per_ps = 0.030;
  // Velocity-saturation index; ~2 for long channel, ~1.2–1.4 at 90 nm.
  double alpha = 1.3;
  // Effective threshold voltage of the stacked devices.
  Volt v_threshold{0.32};
  // Intrinsic (self-load + wire) capacitance at the output node, added to
  // every external load.
  Picofarad c_intrinsic{0.15};

  [[nodiscard]] bool valid() const;
};

class AlphaPowerDelayModel {
 public:
  AlphaPowerDelayModel() = default;
  explicit AlphaPowerDelayModel(AlphaPowerParams params);

  [[nodiscard]] const AlphaPowerParams& params() const { return params_; }

  // Propagation delay for effective supply `v_supply` and external load
  // `c_load`. Requires v_supply > v_threshold (an inverter below threshold
  // never switches); returns +inf-like huge delay if at/below threshold so
  // callers uniformly see "too slow" rather than UB.
  [[nodiscard]] Picoseconds delay(Volt v_supply, Picofarad c_load) const;

  // Inverse problem #1: the supply voltage at which delay(v, c_load) equals
  // `budget`. This is the *cell threshold* of the paper: below the returned
  // voltage the FF fails. nullopt when the budget is unreachable within
  // the search window (v_threshold, v_max].
  [[nodiscard]] std::optional<Volt> threshold_supply(
      Picofarad c_load, Picoseconds budget, Volt v_max = Volt{2.0}) const;

  // Inverse problem #2: the external load for which delay(v_supply, c)
  // equals `budget`. nullopt when even zero external load is too slow.
  [[nodiscard]] std::optional<Picofarad> load_for_budget(
      Volt v_supply, Picoseconds budget) const;

  // Returns a copy with the drive constant scaled (process/temperature).
  [[nodiscard]] AlphaPowerDelayModel with_drive_scaled(double factor) const;
  // Returns a copy with the threshold voltage shifted.
  [[nodiscard]] AlphaPowerDelayModel with_vth_shifted(Volt delta) const;

 private:
  AlphaPowerParams params_;
};

}  // namespace psnt::analog
