#include "core/full_system.h"

#include "sim/gates.h"
#include "util/error.h"

namespace psnt::core {

FullStructuralSystem::FullStructuralSystem(sim::Simulator& sim,
                                           const std::string& name,
                                           const SensorArray& array,
                                           const PulseGenerator& pg,
                                           analog::RailPair rails,
                                           Config config)
    : sim_(sim),
      config_(config),
      fsm_(sim, name + ".cntr", config.control_ff),
      sensor_([&] {
        BuilderOptions opts;
        opts.polarity = config.polarity;
        // Route the FSM's code register straight into the MUX selects: the
        // PG tap follows whatever code INIT last loaded.
        opts.select_nets = {&fsm_.code_q(0), &fsm_.code_q(1),
                            &fsm_.code_q(2)};
        return build_structural_sensor(sim, name + ".arr", array, pg,
                                       config.code, rails, opts);
      }()) {
  // Command registers: the FSM's Moore outputs are re-timed on the falling
  // clock edge by two identical flops, so the P and CP commands toward the
  // PG change simultaneously regardless of their decode-cone depths — the
  // standard registered-output trick, and the reason the PG sees a clean
  // differential pair.
  sim::Net& clkb = sim.net(name + ".clkb");
  sim.add<sim::InvGate>(name + ".clk_inv", fsm_.clk(), clkb,
                        Picoseconds{14.0});

  sim::Net* p_src = &fsm_.p_level();
  if (config.polarity == SensePolarity::kLowSense) {
    // LOW-SENSE: "the PREPARE and SENSE conditions are opposite".
    sim::Net& p_inv = sim.net(name + ".p_inv");
    sim.add<sim::InvGate>(name + ".p_pol_inv", fsm_.p_level(), p_inv,
                          Picoseconds{14.0});
    p_src = &p_inv;
  }
  sim.add<sim::DFlipFlop>(name + ".p_cmd_ff", *p_src, clkb, *sensor_.p_cmd,
                          config.control_ff);
  sim.add<sim::DFlipFlop>(name + ".cp_cmd_ff", fsm_.cp_level(), clkb,
                          *sensor_.cp_cmd, config.control_ff);

  // Power-on: park every input, let the netlist settle.
  sim.drive(fsm_.clk(), Picoseconds{0.0}, sim::Logic::L0);
  sim.drive(fsm_.enable(), Picoseconds{0.0}, sim::Logic::L0);
  sim.drive(fsm_.configure(), Picoseconds{0.0}, sim::Logic::L0);
  sim.drive(fsm_.continuous(), Picoseconds{0.0}, sim::Logic::L0);
  drive_code(Picoseconds{0.0});
  sim.run_until(Picoseconds{1000.0});
  t_ = 2000.0;
}

void FullStructuralSystem::set_code(DelayCode code) {
  if (code.value() == config_.code.value()) return;
  config_.code = code;
  needs_configure_ = true;
}

void FullStructuralSystem::drive_code(Picoseconds at) {
  for (std::size_t b = 0; b < 3; ++b) {
    sim_.drive(fsm_.ext_code(b), at,
               sim::from_bool((config_.code.value() >> b) & 1u));
  }
}

void FullStructuralSystem::clock_one_cycle() {
  const double period = config_.control_period.value();
  sim_.drive(fsm_.clk(), Picoseconds{t_ + period / 2.0}, sim::Logic::L1);
  sim_.drive(fsm_.clk(), Picoseconds{t_ + period}, sim::Logic::L0);
  sim_.run_until(Picoseconds{t_ + period});
  t_ += period;
}

void FullStructuralSystem::run_measures(std::size_t count,
                                        std::vector<ThermoWord>& out,
                                        bool configure_first) {
  PSNT_CHECK(count > 0, "need at least one measure");
  const double period = config_.control_period.value();

  // A previous batch returns with sim time at t_ + T/4 (the read-out point),
  // the enable-drop event still pending at t_ + 0.4T, and the FSM parked in
  // READY (the post-capture cycles walk S_SNS → IDLE → READY while enable is
  // still up). Run one realign cycle to land on a cycle boundary; its rising
  // edge launches the batch's first transaction straight out of READY, so
  // when this batch retargets the delay code, configure and the new code
  // must already be up at that edge — READY then detours through INIT and
  // the first word uses the new tap.
  const bool configure = configure_first || needs_configure_;
  const bool realign = sim_.now().value() > t_;
  if (realign && configure) {
    const Picoseconds t_cfg{t_ + period * 0.3};  // just past the read-out
    drive_code(t_cfg);
    sim_.drive(fsm_.configure(), t_cfg, sim::Logic::L1);
    // Hold the clock low for one extra period — the FSM sits in READY, the
    // cones settle — and realign on the following edge. The minimized
    // next-state cone is at most 220 ps deep (INV + 2 AND2 + 3 OR2 levels
    // at the SynthOptions delays) and configure's path out of READY 166 ps,
    // so this drive would now make setup at T/2 with ~49 ps to spare; the
    // stretch stays because removing it shifts every later sample time.
    t_ += period;
  }
  if (realign) clock_one_cycle();

  sim_.drive(fsm_.enable(), Picoseconds{t_ + 100.0}, sim::Logic::L1);
  if (configure) {
    if (realign) {
      // INIT was entered at the realign edge; the code register loads at
      // the next edge (ext_code is already presented). Retire configure.
      sim_.drive(fsm_.configure(), Picoseconds{t_ + 100.0}, sim::Logic::L0);
    } else {
      // Fresh start: the FSM walks RESET → IDLE → READY and samples
      // configure there, several edges past these drives.
      drive_code(Picoseconds{t_ + 100.0});
      sim_.drive(fsm_.configure(), Picoseconds{t_ + 100.0}, sim::Logic::L1);
    }
    needs_configure_ = false;
  }

  const std::size_t target = out.size() + count;
  out.reserve(target);
  std::size_t guard = 0;
  const std::size_t guard_limit = count * 12 + 16;
  while (out.size() < target) {
    clock_one_cycle();
    PSNT_CHECK(++guard < guard_limit, "system failed to complete measures");

    const FsmState state = fsm_.decoded_state();
    if (state == FsmState::kInit) {
      // Code latched on the next edge; stop configuring.
      sim_.drive(fsm_.configure(), Picoseconds{t_ + 100.0}, sim::Logic::L0);
    }
    if (state == FsmState::kSenseHigh) {
      // The command flops fire on this cycle's falling edge; the CP sampling
      // edge lands mid-next-cycle and the flops settle within the worst-case
      // metastability resolution. Two cycles is comfortably enough.
      clock_one_cycle();
      clock_one_cycle();
      sim_.run_until(Picoseconds{t_ + period / 4.0});
      out.push_back(sensor_.read_word());
      if (out.size() == target) {
        // Drop enable before the next rising edge (we are at t_ + T/4).
        sim_.drive(fsm_.enable(), Picoseconds{t_ + period * 0.4},
                   sim::Logic::L0);
      }
    }
  }
}

}  // namespace psnt::core
