#include "core/sense_kernel.h"

#include <cmath>
#include <limits>

#include "core/sense_simd.h"
#include "util/error.h"

namespace psnt::core {

namespace {

// Half-width of the guard band around each firing threshold, in volts. A
// sample closer than this to a threshold is flagged for the reference
// path. The band only needs to dominate two error sources, and does so by
// orders of magnitude: the bisection stops at kBisectTolVolts, and the
// scalar predicate's own FP evaluation wobbles by ~1e-13 V of equivalent
// supply (relative rounding on ~100 ps quantities against a ~1000 ps/V
// margin slope). At 1e-9 V from the threshold the true margin is ~1e-6 ps —
// six orders above both.
constexpr double kGuardVolts = 1e-9;
// Bisection stop width; absorbed by the guard band.
constexpr double kBisectTolVolts = 1e-12;
// Upper bracket of the firing-threshold search. Any physically plausible
// supply sits far below; samples above fall back to the reference path.
constexpr double kWindowCapVolts = 8.0;

}  // namespace

BatchedSenseKernel::BatchedSenseKernel(const SensorArray& array) {
  const auto& cells = array.cells();
  const auto& first = cells.front().inverter().params();
  drive_k_pf_per_ps_ = first.drive_k_pf_per_ps;
  alpha_ = first.alpha;
  v_threshold_ = first.v_threshold.value();

  bool uniform = true;
  bool any_deep_resolver = false;
  c_total_pf_.reserve(cells.size());
  t_setup_ps_.reserve(cells.size());
  for (const SensorCell& cell : cells) {
    const auto& p = cell.inverter().params();
    // Exact comparison on purpose: one firing predicate serves every cell
    // only when they all compute with the very same parameter doubles.
    if (p.drive_k_pf_per_ps != drive_k_pf_per_ps_ || p.alpha != alpha_ ||
        p.v_threshold.value() != v_threshold_) {
      uniform = false;
    }
    c_total_pf_.push_back(cell.c_load().value() + p.c_intrinsic.value());
    t_setup_ps_.push_back(cell.flipflop().params().t_setup.value());
    if (cell.flipflop().has_deep_meta_resolver()) any_deep_resolver = true;
  }

  // The compare path needs uniform drive, the DS arrival monotone in the
  // supply (alpha >= 1: d/dv of c*v/(K*(v-Vt)^a) is then negative above
  // threshold, so "fires" is a single crossing), deterministic FF sampling,
  // and a SIMD backend whose instructions this CPU actually has.
  vector_ok_ = uniform && alpha_ >= 1.0 && !any_deep_resolver &&
               simd::runtime_supported();

  // Window floor: the smallest double whose overdrive clears the saturation
  // test of AlphaPowerDelayModel::delay, found by ulp-walking
  // fl(x - Vt) > 1e-9 — the exact comparison the delay model performs. The
  // open compare v > win_lo_ then guarantees every vector-path sample takes
  // the unsaturated delay the firing predicate assumes.
  double floor_v = v_threshold_ + 1e-9;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (floor_v - v_threshold_ > 1e-9) floor_v = std::nextafter(floor_v, -kInf);
  while (!(floor_v - v_threshold_ > 1e-9)) floor_v = std::nextafter(floor_v, kInf);
  win_lo_volts_ = floor_v;
  // Window ceiling: one guard band inside the bisection bracket cap, so a
  // cell whose threshold clamps to the cap keeps every in-window sample a
  // full guard band away from it.
  win_hi_volts_ = kWindowCapVolts - kGuardVolts;
}

void BatchedSenseKernel::check_same_array(const SensorArray& array) const {
  PSNT_CHECK(c_total_pf_.size() == array.bits(),
             "BatchedSenseKernel called with a different array than it was "
             "built from: the cached firing ladders would be wrong. "
             "Rebuild the kernel from the array you are measuring.");
}

bool BatchedSenseKernel::cell_fires(double v_eff_volts, std::size_t cell,
                                    double deadline_ps) const {
  // The reference bit for cell i, operand-for-operand: above the saturation
  // floor AlphaPowerDelayModel::delay computes the DS arrival below, and
  // FlipFlopTimingModel::sample captures the new value exactly when
  // fl(deadline - ds) > 0 — which IEEE subtraction makes equivalent to
  // deadline > ds. (Clean and metastable regions both capture the new value;
  // a violated setup retains the PREPARE value, bit 0.)
  const double overdrive = v_eff_volts - v_threshold_;
  const double i_drive = drive_k_pf_per_ps_ * std::pow(overdrive, alpha_);
  const double ds = c_total_pf_[cell] * v_eff_volts / i_drive;
  return deadline_ps - ds > 0.0;
}

const BatchedSenseKernel::FiringLadder& BatchedSenseKernel::firing_ladder(
    DelayCode code, Picoseconds skew) {
  FiringLadder& entry = firing_[code.value()];
  if (entry.valid && entry.skew.value() == skew.value()) return entry;

  const std::size_t bits = c_total_pf_.size();
  entry.lo.resize(bits);
  entry.hi.resize(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    // Per-cell FF setup deadline, in the same operation order the FF model
    // uses: fl(skew - t_setup).
    const double deadline = skew.value() - t_setup_ps_[i];
    // Bisect the exact scalar predicate over the compare window. "fires"
    // is monotone in v (alpha >= 1 gate), so the crossing is unique; the
    // bisection lands within kBisectTolVolts of it and the guard band
    // absorbs the residual.
    double lo_v = win_lo_volts_;
    double hi_v = kWindowCapVolts;
    double boundary;
    if (cell_fires(lo_v, i, deadline)) {
      boundary = lo_v;  // fires across the whole window
    } else if (!cell_fires(hi_v, i, deadline)) {
      boundary = hi_v;  // never fires in the window
    } else {
      while (hi_v - lo_v > kBisectTolVolts) {
        const double mid = 0.5 * (lo_v + hi_v);
        if (cell_fires(mid, i, deadline)) {
          hi_v = mid;
        } else {
          lo_v = mid;
        }
      }
      boundary = hi_v;
    }
    entry.lo[i] = boundary - kGuardVolts;
    entry.hi[i] = boundary + kGuardVolts;
  }
  entry.skew = skew;
  entry.valid = true;
  return entry;
}

void BatchedSenseKernel::prewarm(DelayCode code, Picoseconds skew) {
  if (!vector_ok_) return;
  (void)firing_ladder(code, skew);
}

std::size_t BatchedSenseKernel::adopt_ladders(const BatchedSenseKernel& other) {
  // Exact-equality fingerprint: a firing ladder is a pure function of these
  // doubles, so a single differing bit disqualifies the share.
  if (!vector_ok_ || !other.vector_ok_ ||
      drive_k_pf_per_ps_ != other.drive_k_pf_per_ps_ ||
      alpha_ != other.alpha_ || v_threshold_ != other.v_threshold_ ||
      c_total_pf_ != other.c_total_pf_ || t_setup_ps_ != other.t_setup_ps_) {
    return 0;
  }
  std::size_t copied = 0;
  for (std::size_t c = 0; c < DelayCode::kCount; ++c) {
    if (other.firing_[c].valid && !firing_[c].valid) {
      firing_[c] = other.firing_[c];
      ++copied;
    }
  }
  return copied;
}

bool BatchedSenseKernel::measure_batch(const SensorArray& array,
                                       const double* v_eff_volts,
                                       std::size_t n, DelayCode code,
                                       Picoseconds skew, ThermoWord* words,
                                       std::uint8_t* need_scalar) {
  check_same_array(array);
  if (!vector_ok_) return false;
  const FiringLadder& ladder = firing_ladder(code, skew);
  const std::size_t bits = c_total_pf_.size();

  word_scratch_.resize(n);
  simd::sense_compare(v_eff_volts, n, ladder.lo.data(), ladder.hi.data(),
                      bits, win_lo_volts_, win_hi_volts_, word_scratch_.data(),
                      need_scalar);

  for (std::size_t k = 0; k < n; ++k) {
    if (need_scalar[k] == 0) words[k] = ThermoWord{word_scratch_[k], bits};
  }
  return true;
}

}  // namespace psnt::core
