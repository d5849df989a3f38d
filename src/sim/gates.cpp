#include "sim/gates.h"

#include <utility>

namespace psnt::sim {

CombGate::CombGate(Simulator& sim, std::string name, std::vector<Net*> inputs,
                   Net& output, Picoseconds delay, EvalFn eval)
    : Component(sim, std::move(name)),
      inputs_(std::move(inputs)),
      output_(output),
      delay_(from_ps(delay)),
      eval_(std::move(eval)) {
  PSNT_CHECK(!inputs_.empty(), "gate needs at least one input");
  PSNT_CHECK(delay_ >= 0, "gate delay must be non-negative");
  scratch_.resize(inputs_.size());
  for (Net* in : inputs_) {
    PSNT_CHECK(in != nullptr, "null input net");
    in->on_change([this](const Net&, Logic, Logic, SimTime) {
      on_input_change();
    });
  }
}

void CombGate::on_input_change() {
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    scratch_[i] = inputs_[i]->value();
  }
  output_.schedule_level(sim_.scheduler(), delay_, eval_(scratch_));
}

void CombGate::settle_initial() { on_input_change(); }

InvGate::InvGate(Simulator& sim, std::string name, Net& a, Net& y,
                 Picoseconds delay)
    : CombGate(sim, std::move(name), {&a}, y, delay,
               [](const std::vector<Logic>& v) { return logic_not(v[0]); }) {}

BufGate::BufGate(Simulator& sim, std::string name, Net& a, Net& y,
                 Picoseconds delay)
    : CombGate(sim, std::move(name), {&a}, y, delay,
               [](const std::vector<Logic>& v) { return normalize(v[0]); }) {}

Nand2Gate::Nand2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
                     Picoseconds delay)
    : CombGate(sim, std::move(name), {&a, &b}, y, delay,
               [](const std::vector<Logic>& v) {
                 return logic_not(logic_and(v[0], v[1]));
               }) {}

Nor2Gate::Nor2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
                   Picoseconds delay)
    : CombGate(sim, std::move(name), {&a, &b}, y, delay,
               [](const std::vector<Logic>& v) {
                 return logic_not(logic_or(v[0], v[1]));
               }) {}

And2Gate::And2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
                   Picoseconds delay)
    : CombGate(sim, std::move(name), {&a, &b}, y, delay,
               [](const std::vector<Logic>& v) {
                 return logic_and(v[0], v[1]);
               }) {}

Or2Gate::Or2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
                 Picoseconds delay)
    : CombGate(sim, std::move(name), {&a, &b}, y, delay,
               [](const std::vector<Logic>& v) {
                 return logic_or(v[0], v[1]);
               }) {}

Xor2Gate::Xor2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& y,
                   Picoseconds delay)
    : CombGate(sim, std::move(name), {&a, &b}, y, delay,
               [](const std::vector<Logic>& v) {
                 return logic_xor(v[0], v[1]);
               }) {}

Mux2Gate::Mux2Gate(Simulator& sim, std::string name, Net& a, Net& b, Net& sel,
                   Net& y, Picoseconds delay)
    : CombGate(sim, std::move(name), {&a, &b, &sel}, y, delay,
               [](const std::vector<Logic>& v) {
                 return logic_mux(v[0], v[1], v[2]);
               }) {}

}  // namespace psnt::sim
