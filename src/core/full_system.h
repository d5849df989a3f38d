// The complete sensor system at gate level: synthesized control FSM driving
// the pulse generator and sensor array inside the event simulator.
//
// This is the whole of Fig. 6 as a netlist: the StructuralControlFsm's P/CP
// command outputs feed the PG's common buffers, the delay line and MUX tree
// produce the skewed pair, supply-sensitive inverters and timing-checked
// flops sample the noisy rail, and measurements complete when the FSM's
// capture strobe fires. Nothing behavioral remains in the measurement path —
// the behavioral NoiseThermometer is only used to cross-validate the result.
//
// The PG MUX selects are the FSM's Delay-Code register Q nets, so the tap
// selection is live: set_code() reloads the register through INIT on the
// next batch and the tree retargets structurally, no rebuild.
#pragma once

#include <vector>

#include "core/fsm_netlist.h"
#include "core/system_builder.h"
#include "core/thermometer.h"

namespace psnt::core {

class FullStructuralSystem {
 public:
  struct Config {
    Picoseconds control_period{1250.0};
    DelayCode code{3};
    SensePolarity polarity = SensePolarity::kHighSense;
    analog::FlipFlopTimingModel control_ff{};
  };

  FullStructuralSystem(sim::Simulator& sim, const std::string& name,
                       const SensorArray& array, const PulseGenerator& pg,
                       analog::RailPair rails, Config config);

  // Runs complete measure transactions by clocking the FSM netlist with
  // enable held high; returns one word per completed SENSE capture.
  // `configure_first` loads the config's delay code through INIT before the
  // first PREPARE (otherwise the FSM's current code — 000 at power-on —
  // selects the tap, since the MUX selects follow the code register live).
  std::vector<ThermoWord> run_measures(std::size_t count,
                                       bool configure_first = true);

  // Retargets the delay code for subsequent measures: the next run batch
  // pulses configure so INIT reloads the code register, and the live MUX
  // selects move the PG tap. No-op when the code is unchanged.
  void set_code(DelayCode code);

  [[nodiscard]] StructuralControlFsm& fsm() { return fsm_; }
  [[nodiscard]] StructuralSensor& sensor() { return sensor_; }

 private:
  void clock_one_cycle();
  void drive_code(Picoseconds at);

  sim::Simulator& sim_;
  Config config_;
  StructuralControlFsm fsm_;
  StructuralSensor sensor_;
  bool needs_configure_ = false;
  double t_ = 0.0;
};

}  // namespace psnt::core
