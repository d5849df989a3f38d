// NoiseThermometer: the complete sensor system of Fig. 6, as a thin facade
// over the behavioral engine (core::BehavioralEngine).
//
// All measurement mechanics — FSM stepping, the one PREPARE/SENSE capture
// routine, encode/decode — live in core::BehavioralEngine
// (measure_engine.h); this class keeps the sensor-level vocabulary callers
// use:
//
//  * one-shot `measure_*`   — runs a full PREPARE+SENSE transaction against a
//    rail source at a given start time and returns the decoded Measurement.
//    The effective supply seen by the sense inverters is evaluated at the
//    sense launch instant (behavioral approximation of the analog transient;
//    the structural simulator in core/system_builder removes even that
//    approximation and is cross-validated against this path).
//  * `iterate_vdd`          — repeats measures across a time window, the
//    paper's method for capturing the CUT transient (Sec. III-B), returning
//    the sampled noise trajectory.
//
// Cross-cutting concerns (fault word hooks, rail-offset injection, delay-code
// policy) are NOT part of this class: they belong to the engine's
// EngineContext, reachable via engine().context() — one hook surface for
// every backend instead of per-class hook plumbing.
#pragma once

#include <vector>

#include "analog/rail.h"
#include "core/measure_engine.h"

namespace psnt::core {

class NoiseThermometer {
 public:
  NoiseThermometer(SensorArray high_sense, SensorArray low_sense,
                   PulseGenerator pg, ThermometerConfig config)
      : engine_(std::move(high_sense), std::move(low_sense), std::move(pg),
                config) {}
  explicit NoiseThermometer(BehavioralEngine engine)
      : engine_(std::move(engine)) {}

  // The backing behavioral engine; the scan chain captures and decodes
  // through it directly.
  [[nodiscard]] BehavioralEngine& engine() { return engine_; }
  [[nodiscard]] const BehavioralEngine& engine() const { return engine_; }

  [[nodiscard]] const SensorArray& high_sense() const {
    return engine_.high_sense();
  }
  [[nodiscard]] const SensorArray& low_sense() const {
    return engine_.low_sense();
  }
  [[nodiscard]] const PulseGenerator& pulse_generator() const {
    return engine_.pulse_generator();
  }
  [[nodiscard]] const ThermometerConfig& config() const {
    return engine_.config();
  }
  [[nodiscard]] const ControlFsm& fsm() const { return engine_.fsm(); }

  // Full transaction measuring VDD-n. `vdd` (and optional `gnd`) are the
  // noisy rails; `start` is when the controller leaves IDLE.
  [[nodiscard]] Measurement measure_vdd(const analog::RailPair& rails,
                                        Picoseconds start, DelayCode code);

  // Iterated VDD-n measures every `interval` starting at `start`.
  [[nodiscard]] std::vector<Measurement> iterate_vdd(
      const analog::RailPair& rails, Picoseconds start, Picoseconds interval,
      std::size_t count, DelayCode code);

  // Dynamic range of the HIGH-SENSE array at a code (Fig. 5's x-extent).
  [[nodiscard]] DynamicRange vdd_range(DelayCode code) const {
    return engine_.vdd_range(code);
  }

  // Encoder output for an arbitrary word (exposed for the scan chain).
  [[nodiscard]] EncodedWord encode(const ThermoWord& word) const {
    return engine_.encode(word);
  }

 private:
  BehavioralEngine engine_;
};

}  // namespace psnt::core
