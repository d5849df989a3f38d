// Fixed-delay combinational gate primitives.
//
// Each gate re-evaluates on any input change and schedules its output with
// inertial delay. Delays are per-instance (picked from the NLDM library for
// the instance's load by the netlist builders), so the same primitive serves
// every drive strength.
#pragma once

#include <vector>

#include "sim/simulator.h"
#include "sim/small_fn.h"

namespace psnt::sim {

// Generic N-input gate with a user-provided evaluation function.
class CombGate : public Component {
 public:
  // Small-buffer-optimized: the stock gates use captureless lambdas and the
  // netlist builders capture at most a pointer, so evaluation — which runs on
  // every input event — never chases a std::function heap allocation.
  using EvalFn = SmallFn<Logic(const std::vector<Logic>&), 24>;

  CombGate(Simulator& sim, std::string name, std::vector<Net*> inputs,
           Net& output, Picoseconds delay, EvalFn eval);

  [[nodiscard]] Picoseconds delay() const { return to_ps(delay_); }
  [[nodiscard]] Net& output() { return output_; }

  // Re-evaluates immediately (used at elaboration to settle initial values).
  void settle_initial();

 private:
  void on_input_change();

  std::vector<Net*> inputs_;
  Net& output_;
  SimTime delay_;
  EvalFn eval_;
  // Reused input-value buffer: re-evaluation happens on every input event,
  // so it must not allocate.
  std::vector<Logic> scratch_;
};

class InvGate : public CombGate {
 public:
  InvGate(Simulator& sim, std::string name, Net& a, Net& y, Picoseconds delay);
};

class BufGate : public CombGate {
 public:
  BufGate(Simulator& sim, std::string name, Net& a, Net& y, Picoseconds delay);
};

class Nand2Gate : public CombGate {
 public:
  Nand2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
            Picoseconds delay);
};

class Nor2Gate : public CombGate {
 public:
  Nor2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
           Picoseconds delay);
};

class And2Gate : public CombGate {
 public:
  And2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
           Picoseconds delay);
};

class Or2Gate : public CombGate {
 public:
  Or2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
          Picoseconds delay);
};

class Xor2Gate : public CombGate {
 public:
  Xor2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
           Picoseconds delay);
};

// Y = sel ? b : a
class Mux2Gate : public CombGate {
 public:
  Mux2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& sel, Net& y,
           Picoseconds delay);
};

}  // namespace psnt::sim
