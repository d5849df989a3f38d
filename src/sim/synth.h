// Two-level logic synthesis: truth table → minimized sum-of-products gates.
//
// Used to elaborate small combinational functions (the control FSM's
// next-state and output logic) into real INV/AND2/OR2 primitives inside the
// event simulator, the way a synthesis tool would — no behavioural LUTs, so
// the gate-level model's timing and X-propagation are honest.
//
// The on-set is minimized before any gate is built: Quine–McCluskey merges
// minterms into prime implicants (cubes), and a deterministic cover keeps
// the essential primes, then greedily adds the prime covering the most
// still-uncovered minterms (ties: fewer literals, then lowest cube). Each
// cube becomes one AND tree over its care literals; the products are ORed.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/gates.h"
#include "sim/simulator.h"

namespace psnt::sim {

struct SynthOptions {
  Picoseconds inv_delay{14.0};
  Picoseconds and_delay{40.0};
  Picoseconds or_delay{42.0};
};

// Balanced tree reduction of `nets` with 2-input gates (AND or OR). A single
// net passes through unchanged. Returns the tree's output net.
Net& reduce_and(Simulator& sim, const std::string& name,
                std::vector<Net*> nets, Picoseconds gate_delay);
Net& reduce_or(Simulator& sim, const std::string& name, std::vector<Net*> nets,
               Picoseconds gate_delay);

// Synthesizes f(inputs) given its on-set minterms. Bit i of a minterm index
// corresponds to inputs[i] (LSB-first). Minterm indices must be unique and
// < 2^inputs.size(). Constant functions are realised with tie nets driven at
// elaboration time; a function equal to one input returns that input's net.
//
// Literal inverters are created once per synthesizer (name-scoped), so
// callers synthesising several functions of the same inputs should share
// one SopSynthesizer.
class SopSynthesizer {
 public:
  SopSynthesizer(Simulator& sim, std::string scope, std::vector<Net*> inputs,
                 SynthOptions options = {});

  // Builds one output function. `name` scopes the generated gates; product
  // nets are named `<scope>.<name>.p<value>_<care-mask>` after their cube.
  Net& synthesize(const std::string& name,
                  const std::vector<std::uint32_t>& minterms);

  [[nodiscard]] std::size_t input_count() const { return inputs_.size(); }
  [[nodiscard]] std::size_t gates_built() const { return gates_built_; }

 private:
  Net& literal(std::size_t input, bool positive);

  Simulator& sim_;
  std::string scope_;
  std::vector<Net*> inputs_;
  std::vector<Net*> inverted_;  // lazily built
  SynthOptions options_;
  std::size_t gates_built_ = 0;
};

}  // namespace psnt::sim
