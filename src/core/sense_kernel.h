// BatchedSenseKernel: the flash-ADC view of the SENSE array (DESIGN.md §14).
//
// Every cell of the thermometer captures the SENSE value exactly when the
// supply clears one voltage — its firing threshold, as each comparator of a
// TIQ flash converter has one. The kernel inverts the per-cell
// arrival-vs-strobe test once per (DelayCode, skew) into that threshold, so
// sensing a batch of N supplies becomes comparing N doubles against the
// array's broadcast thresholds (simd::sense_compare). Each threshold is
// bisected against the exact scalar floating-point predicate and carried with
// a ±1e-9 V guard band: a sample inside a guard band (where FP wobble could
// disagree with the compare), outside the compare window, or NaN is flagged
// back to the caller, which senses it through SensorArray::measure — the
// reference. That is what makes the compare path bit-identical, not just
// approximately right.
//
// The kernel holds only value data (no pointer back to its array): the owning
// NoiseThermometer is moved by value through make_paper_thermometer and
// PsnScanChain::attach_site, and a self-referential cache would dangle. The
// array is therefore passed into measure_batch, which checks — always, not
// just in debug builds — that it has the width the kernel was built from.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/measurement.h"
#include "core/sensor_array.h"

namespace psnt::core {

class BatchedSenseKernel {
 public:
  BatchedSenseKernel() = default;
  explicit BatchedSenseKernel(const SensorArray& array);

  // True when the compare path can serve this array at all: uniform inverter
  // parameters, alpha >= 1 (the DS arrival is then monotone in the supply,
  // so "fires" is a single threshold crossing), no deep-metastability
  // resolver on any cell's FF (sampling must be a pure function of the
  // margin), and the build's SIMD backend usable on this CPU. Fixed at
  // construction.
  [[nodiscard]] bool vectorizable() const { return vector_ok_; }

  // For each k in [0, n), words[k] is array.measure(v_eff[k] volts, skew).
  // Samples the compare ladder cannot settle bit-exactly — voltage inside a
  // firing threshold's ±1e-9 V guard band, at or below the inverter's
  // saturation floor, beyond the ladder window, or NaN — are NOT sensed:
  // their need_scalar[k] is set and words[k] left untouched for the caller
  // to sense through the array. Returns false without touching the outputs
  // when vectorizable() is false. The first call per code pays the
  // threshold bisection.
  bool measure_batch(const SensorArray& array, const double* v_eff_volts,
                     std::size_t n, DelayCode code, Picoseconds skew,
                     ThermoWord* words, std::uint8_t* need_scalar);

  // Forces the firing-ladder solve for `code` now (it is otherwise lazy on
  // the first measure_batch with that code): a scan grid prewarms one
  // kernel, then shares the solved ladders across its sites. No-op when the
  // array is not vectorizable.
  void prewarm(DelayCode code, Picoseconds skew);

  // Adopts every firing ladder `other` has already solved when both kernels
  // are vectorizable over value-identical arrays (the per-site engines of a
  // scan grid all wrap the same calibrated array). A ladder is a pure
  // function of the array parameters, so an adopted one holds the exact
  // doubles this kernel's own solve would have produced. Returns the number
  // of ladders copied; 0 (and no state change) when any array parameter
  // differs in any bit.
  std::size_t adopt_ladders(const BatchedSenseKernel& other);

 private:
  // Inverted compare ladder for one delay code: per-cell firing-threshold
  // voltages bracketed by a guard band (lo[i] < B_i < hi[i]). The bit is
  // taken from the hi compare; landing between the compares flags the
  // sample back to the caller.
  struct FiringLadder {
    bool valid = false;
    Picoseconds skew{0.0};
    std::vector<double> lo;
    std::vector<double> hi;
  };

  void check_same_array(const SensorArray& array) const;
  [[nodiscard]] bool cell_fires(double v_eff_volts, std::size_t cell,
                                double deadline_ps) const;
  const FiringLadder& firing_ladder(DelayCode code, Picoseconds skew);

  bool vector_ok_ = false;
  double drive_k_pf_per_ps_ = 0.0;
  double alpha_ = 0.0;
  double v_threshold_ = 0.0;
  // Open voltage window the compare ladder covers; outside it samples are
  // flagged (below: the delay model's saturation floor; above: the
  // bisection bracket cap).
  double win_lo_volts_ = 0.0;
  double win_hi_volts_ = 0.0;
  std::vector<double> c_total_pf_;   // per-cell c_load + c_intrinsic
  std::vector<double> t_setup_ps_;   // per-cell FF setup time
  std::array<FiringLadder, DelayCode::kCount> firing_;
  std::vector<std::uint32_t> word_scratch_;  // reused across measure_batch
};

}  // namespace psnt::core
