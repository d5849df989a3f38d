// Deterministic fault injection for the PSN scan grid.
//
// The paper sells a sensor built from ordinary standard cells that keeps
// working under hostile rail conditions; a sensor you cannot trust under
// faults is not a sensor. This module is the adversary: it decides, for
// every (site, sample, attempt) coordinate of a grid run, which sensor-level
// faults strike that measure — stuck-at DS nodes, FF metastability flips,
// delay-code drift, PDN-derived rail-droop spikes, dead/hung sites, and
// SpscRing overflow storms.
//
// Determinism contract
//   Every decision is a pure counter-hash of (seed, site, sample, attempt,
//   fault lane). The injector holds no mutable state during a run, so
//   queries are thread-safe, independent of call order, and bit-identical at
//   any grid thread count. Two injectors with the same seed, storm config
//   and schedule answer every query identically.
//
// Persistence model
//   Site-scoped faults (a stuck DS node, a site death onset) are keyed by
//   site only: every sample and every retry of that site sees the same
//   fault, so retry/vote cannot mask them — quarantine is the only remedy.
//   Measure-scoped faults (metastability, hangs) are keyed by the full
//   (site, sample, attempt) coordinate: a retry re-rolls them, which is what
//   makes bounded retry an effective recovery policy. Code drift and droop
//   spikes are keyed by (site, sample): a retry of the same sample sees the
//   same rail, as real silicon would.
//
// The injector is a pure model with no dependency on the grid runtime; its
// decisions reach an engine only through fault::FaultSession, which drives
// the core::EngineContext hook surface (word hook + rail offset) shared by
// every measurement backend. Ring-overflow storms are applied by the grid's
// ring-push path, the one fault lane outside the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analog/rail.h"
#include "core/measurement.h"
#include "core/thermo_code.h"
#include "psn/pdn.h"
#include "util/units.h"

namespace psnt::fault {

enum class FaultKind : std::uint8_t {
  kStuckDsNode,     // DS sampling node stuck: one word bit forced 0/1
  kMetastableFlip,  // FF metastability: one word bit inverts for one capture
  kCodeDrift,       // delay-code drift: the trimmed code slips by ±1
  kRailDroop,       // PDN droop spike: the site rail sags for one sample
  kDeadSite,        // site produces nothing from an onset sample onwards
  kHungSite,        // measure blows its deadline (transient hang/timeout)
  kRingOverflow,    // telemetry ring overflow storm: pushes stall
};
inline constexpr std::size_t kFaultKindCount = 7;

[[nodiscard]] const char* to_string(FaultKind kind);

// One realized fault at a trace coordinate. Traces are recorded per site in
// (sample, attempt) order, so same-seed runs produce identical traces at any
// thread count (asserted in tests/test_grid_resilience.cpp).
struct FaultEvent {
  std::uint32_t site_id = 0;
  std::uint32_t sample = 0;
  std::uint16_t attempt = 0;
  FaultKind kind = FaultKind::kStuckDsNode;
  // Kind-specific payload: bit index (stuck/flip), code delta (drift),
  // negative millivolts (droop), onset sample (dead), stalled pushes
  // (ring overflow); always 0 for a hung measure.
  std::int32_t detail = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

// Stochastic fault storm: per-coordinate rates, all i.i.d. given the seed.
// Rates are probabilities in [0, 1]; 0 disables the lane.
struct FaultStormConfig {
  double p_stuck_site = 0.0;    // per site: one DS node permanently stuck
  double p_metastable = 0.0;    // per measure attempt: one bit flips
  double p_code_drift = 0.0;    // per sample: code slips ±1 for that sample
  double p_rail_droop = 0.0;    // per sample: droop spike on the site rail
  double p_dead_site = 0.0;     // per site: site dies at a drawn onset
  double p_hung = 0.0;          // per measure attempt: measure times out
  double p_ring_storm = 0.0;    // per sample: the result push hits a full ring
  // Peak depth of an injected droop spike; the realized spike scales this by
  // a per-sample factor in [0.5, 1]. See pdn_droop_depth() to derive it from
  // a solved PDN model instead of picking a number.
  Volt droop_depth{0.12};
  // Horizon for drawing a dead site's onset sample (uniform in [0, horizon)).
  std::uint32_t dead_onset_horizon = 16;
  // Forced-full pushes per ring overflow storm.
  std::uint32_t ring_storm_pushes = 8;
};

// An explicit scheduled fault: `kind` strikes site `site_id` on every sample
// of [first_sample, last_sample], on top of whatever the storm rolls.
struct ScheduledFault {
  std::uint32_t site_id = 0;
  std::uint32_t first_sample = 0;
  std::uint32_t last_sample = 0xffffffffu;
  FaultKind kind = FaultKind::kDeadSite;
  // Kind-specific: bit index (stuck/flip), code delta (drift), stalled
  // pushes (ring overflow). Ignored for dead/hung.
  std::int32_t detail = 0;
  bool stuck_value = false;       // forced level for kStuckDsNode
  Volt droop_volts{0.0};          // spike depth for kRailDroop
};

// Everything the injector decided for one measure attempt. Applied by the
// grid via the word hooks / rail wrapper / ring-push path.
struct MeasureFaults {
  bool dead = false;
  bool hung = false;
  std::int32_t code_delta = 0;    // applied to the site's DelayCode, clamped
  double droop_volts = 0.0;       // subtracted from the site rail
  std::int32_t stuck_bit = -1;    // word bit forced to stuck_value
  bool stuck_value = false;
  std::int32_t flip_bit = -1;     // word bit inverted
  std::uint32_t ring_stall_pushes = 0;
  std::uint32_t dead_onset = 0;   // first dead sample (valid when dead)

  [[nodiscard]] bool any() const {
    return dead || hung || code_delta != 0 || droop_volts != 0.0 ||
           stuck_bit >= 0 || flip_bit >= 0 || ring_stall_pushes > 0;
  }
  // Word-level corruption (stuck bit, then metastable flip), in the order
  // the physical path applies them: the DS node is upstream of the FF.
  void apply_word(core::ThermoWord& word) const;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed,
                         FaultStormConfig storm = FaultStormConfig{});

  // Registers an explicit fault window. Call before the run starts; the
  // schedule is immutable once queries begin (not enforced, by convention).
  void schedule(const ScheduledFault& fault);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const FaultStormConfig& storm() const { return storm_; }
  [[nodiscard]] const std::vector<ScheduledFault>& scheduled() const {
    return scheduled_;
  }

  // The full fault decision for one measure attempt. Pure and thread-safe:
  // depends only on (seed, storm, schedule, site_id, sample, attempt).
  // `word_width` bounds the bit indices of word-level faults.
  [[nodiscard]] MeasureFaults measure_faults(std::uint32_t site_id,
                                             std::uint32_t sample,
                                             std::uint32_t attempt,
                                             std::size_t word_width) const;

  // Appends one FaultEvent per realized fault in `faults`, in a fixed kind
  // order — the shared trace vocabulary of the behavioral and structural
  // paths.
  static void append_events(const MeasureFaults& faults, std::uint32_t site_id,
                            std::uint32_t sample, std::uint32_t attempt,
                            std::vector<FaultEvent>& trace);

 private:
  [[nodiscard]] double u01(std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) const;
  [[nodiscard]] std::uint64_t draw(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c) const;

  std::uint64_t seed_;
  std::uint64_t base_;  // seed expanded through SplitMix64
  FaultStormConfig storm_;
  std::vector<ScheduledFault> scheduled_;
};

// Standalone rail wrapper: forwards to the wrapped source plus a settable
// offset. The engine-integrated droop hook is core::ContextOffsetRail (driven
// through fault::FaultSession); this free-standing variant remains for
// ad-hoc rail perturbation outside an engine context.
class OffsetRail final : public analog::RailSource {
 public:
  explicit OffsetRail(const analog::RailSource* inner) : inner_(inner) {}

  [[nodiscard]] Volt at(Picoseconds t) const override {
    return Volt{inner_->at(t).value() + offset_volts_};
  }
  void set_offset(double volts) { offset_volts_ = volts; }
  [[nodiscard]] double offset() const { return offset_volts_; }

 private:
  const analog::RailSource* inner_;
  double offset_volts_ = 0.0;
};

// Physically-grounded droop depth for FaultStormConfig::droop_depth: solves
// the lumped PDN under a current step of `step_amps` and returns the
// worst-case deviation from nominal — the classic first droop the injected
// spikes emulate.
[[nodiscard]] Volt pdn_droop_depth(const psn::LumpedPdnParams& pdn,
                                   double step_amps,
                                   Picoseconds horizon = Picoseconds{50000.0});

}  // namespace psnt::fault
