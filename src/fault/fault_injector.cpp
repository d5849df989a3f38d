#include "fault/fault_injector.h"

#include <algorithm>

#include "psn/current_profile.h"
#include "stats/rng.h"
#include "util/error.h"

namespace psnt::fault {

namespace {

// Per-lane salts keep the fault kinds' hash streams independent even when
// they share a (site, sample, attempt) coordinate.
enum Lane : std::uint64_t {
  kLaneStuckGate = 0x51,
  kLaneStuckBit = 0x52,
  kLaneStuckValue = 0x53,
  kLaneFlipGate = 0x61,
  kLaneFlipBit = 0x62,
  kLaneDriftGate = 0x71,
  kLaneDriftSign = 0x72,
  kLaneDroopGate = 0x81,
  kLaneDroopScale = 0x82,
  kLaneDeadGate = 0x91,
  kLaneDeadOnset = 0x92,
  kLaneHungGate = 0xa1,
  kLaneRingGate = 0xb1,
};

// SplitMix64-style finalizer over a combined coordinate. Stateless, so the
// injector can be queried from any thread in any order.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int32_t clamp_bit(std::uint64_t h, std::size_t width) {
  if (width == 0) return -1;
  return static_cast<std::int32_t>(h % width);
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckDsNode: return "stuck_ds_node";
    case FaultKind::kMetastableFlip: return "metastable_flip";
    case FaultKind::kCodeDrift: return "code_drift";
    case FaultKind::kRailDroop: return "rail_droop";
    case FaultKind::kDeadSite: return "dead_site";
    case FaultKind::kHungSite: return "hung_site";
    case FaultKind::kRingOverflow: return "ring_overflow";
  }
  return "unknown";
}

void MeasureFaults::apply_word(core::ThermoWord& word) const {
  if (stuck_bit >= 0 &&
      static_cast<std::size_t>(stuck_bit) < word.width()) {
    word.set_bit(static_cast<std::size_t>(stuck_bit), stuck_value);
  }
  if (flip_bit >= 0 && static_cast<std::size_t>(flip_bit) < word.width()) {
    word.set_bit(static_cast<std::size_t>(flip_bit),
                 !word.bit(static_cast<std::size_t>(flip_bit)));
  }
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultStormConfig storm)
    : seed_(seed), storm_(storm) {
  const auto rate_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  PSNT_CHECK(rate_ok(storm_.p_stuck_site) && rate_ok(storm_.p_metastable) &&
                 rate_ok(storm_.p_code_drift) && rate_ok(storm_.p_rail_droop) &&
                 rate_ok(storm_.p_dead_site) && rate_ok(storm_.p_hung) &&
                 rate_ok(storm_.p_ring_storm),
             "fault storm rates must be probabilities in [0, 1]");
  stats::SplitMix64 mix(seed);
  base_ = mix.next();
}

void FaultInjector::schedule(const ScheduledFault& fault) {
  PSNT_CHECK(fault.first_sample <= fault.last_sample,
             "scheduled fault window is inverted");
  scheduled_.push_back(fault);
}

std::uint64_t FaultInjector::draw(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t c) const {
  // Golden-ratio spreads per operand keep distinct coordinates from
  // colliding before the finalizer mixes them.
  return mix64(base_ ^ (a * 0x9e3779b97f4a7c15ULL) ^
               (b * 0xc2b2ae3d27d4eb4fULL) ^ (c * 0x165667b19e3779f9ULL) ^
               0x2545f4914f6cdd1dULL);
}

double FaultInjector::u01(std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) const {
  return static_cast<double>(draw(a, b, c) >> 11) * 0x1.0p-53;
}

MeasureFaults FaultInjector::measure_faults(std::uint32_t site_id,
                                            std::uint32_t sample,
                                            std::uint32_t attempt,
                                            std::size_t word_width) const {
  MeasureFaults f;
  const std::uint64_t site = site_id;
  // Coordinates: site-scoped lanes ignore sample/attempt (persistent
  // faults), sample-scoped lanes ignore attempt (a retry sees the same
  // rail), attempt-scoped lanes re-roll on every retry.
  const std::uint64_t per_sample = (site << 32) | sample;
  const std::uint64_t per_attempt =
      per_sample ^ (static_cast<std::uint64_t>(attempt) << 48);

  // --- stochastic storm ---------------------------------------------------
  if (storm_.p_stuck_site > 0.0 &&
      u01(site, 0, kLaneStuckGate) < storm_.p_stuck_site) {
    f.stuck_bit = clamp_bit(draw(site, 0, kLaneStuckBit), word_width);
    f.stuck_value = (draw(site, 0, kLaneStuckValue) & 1) != 0;
  }
  if (storm_.p_metastable > 0.0 &&
      u01(per_attempt, 1, kLaneFlipGate) < storm_.p_metastable) {
    f.flip_bit = clamp_bit(draw(per_attempt, 1, kLaneFlipBit), word_width);
  }
  if (storm_.p_code_drift > 0.0 &&
      u01(per_sample, 2, kLaneDriftGate) < storm_.p_code_drift) {
    f.code_delta = (draw(per_sample, 2, kLaneDriftSign) & 1) != 0 ? 1 : -1;
  }
  if (storm_.p_rail_droop > 0.0 &&
      u01(per_sample, 3, kLaneDroopGate) < storm_.p_rail_droop) {
    const double scale = 0.5 + 0.5 * u01(per_sample, 3, kLaneDroopScale);
    f.droop_volts = storm_.droop_depth.value() * scale;
  }
  if (storm_.p_dead_site > 0.0 &&
      u01(site, 4, kLaneDeadGate) < storm_.p_dead_site) {
    const std::uint32_t horizon = std::max(1u, storm_.dead_onset_horizon);
    f.dead_onset =
        static_cast<std::uint32_t>(draw(site, 4, kLaneDeadOnset) % horizon);
    f.dead = sample >= f.dead_onset;
  }
  if (storm_.p_hung > 0.0 &&
      u01(per_attempt, 5, kLaneHungGate) < storm_.p_hung) {
    f.hung = true;
  }
  if (storm_.p_ring_storm > 0.0 &&
      u01(per_sample, 6, kLaneRingGate) < storm_.p_ring_storm) {
    f.ring_stall_pushes = storm_.ring_storm_pushes;
  }

  // --- explicit schedule (applied over the storm) -------------------------
  for (const ScheduledFault& s : scheduled_) {
    if (s.site_id != site_id || sample < s.first_sample ||
        sample > s.last_sample) {
      continue;
    }
    switch (s.kind) {
      case FaultKind::kStuckDsNode:
        f.stuck_bit = clamp_bit(static_cast<std::uint64_t>(
                                    std::max<std::int32_t>(0, s.detail)),
                                word_width);
        f.stuck_value = s.stuck_value;
        break;
      case FaultKind::kMetastableFlip:
        f.flip_bit = clamp_bit(static_cast<std::uint64_t>(
                                   std::max<std::int32_t>(0, s.detail)),
                               word_width);
        break;
      case FaultKind::kCodeDrift:
        f.code_delta = s.detail;
        break;
      case FaultKind::kRailDroop:
        f.droop_volts = s.droop_volts.value() != 0.0
                            ? s.droop_volts.value()
                            : storm_.droop_depth.value();
        break;
      case FaultKind::kDeadSite:
        f.dead = true;
        f.dead_onset = s.first_sample;
        break;
      case FaultKind::kHungSite:
        f.hung = true;
        break;
      case FaultKind::kRingOverflow:
        f.ring_stall_pushes = s.detail > 0
                                  ? static_cast<std::uint32_t>(s.detail)
                                  : storm_.ring_storm_pushes;
        break;
    }
  }
  return f;
}

void FaultInjector::append_events(const MeasureFaults& faults,
                                  std::uint32_t site_id, std::uint32_t sample,
                                  std::uint32_t attempt,
                                  std::vector<FaultEvent>& trace) {
  const auto push = [&](FaultKind kind, std::int32_t detail) {
    trace.push_back(FaultEvent{site_id, sample,
                               static_cast<std::uint16_t>(attempt), kind,
                               detail});
  };
  if (faults.dead) {
    push(FaultKind::kDeadSite, static_cast<std::int32_t>(faults.dead_onset));
  }
  if (faults.hung) push(FaultKind::kHungSite, 0);
  if (faults.stuck_bit >= 0) push(FaultKind::kStuckDsNode, faults.stuck_bit);
  if (faults.flip_bit >= 0) push(FaultKind::kMetastableFlip, faults.flip_bit);
  if (faults.code_delta != 0) push(FaultKind::kCodeDrift, faults.code_delta);
  if (faults.droop_volts != 0.0) {
    push(FaultKind::kRailDroop,
         static_cast<std::int32_t>(-faults.droop_volts * 1e3));
  }
  if (faults.ring_stall_pushes > 0) {
    push(FaultKind::kRingOverflow,
         static_cast<std::int32_t>(faults.ring_stall_pushes));
  }
}

Volt pdn_droop_depth(const psn::LumpedPdnParams& pdn, double step_amps,
                     Picoseconds horizon) {
  PSNT_CHECK(step_amps > 0.0, "droop stimulus needs a positive current step");
  const psn::LumpedPdn model(pdn);
  const psn::StepCurrent load(Ampere{0.0}, Ampere{step_amps},
                              Picoseconds{horizon.value() * 0.1});
  const psn::Waveform rail = model.solve(load, horizon);
  const psn::DroopMetrics metrics =
      psn::analyze_droop(rail, pdn.v_reg.value(), pdn.polarity);
  return Volt{metrics.worst_deviation};
}

}  // namespace psnt::fault
