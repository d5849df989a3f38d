// Simulator: owns the scheduler, the nets and the component instances.
//
// Usage:
//   Simulator sim;
//   Net& a = sim.net("a");
//   Net& y = sim.net("y");
//   sim.add<InvGate>("u_inv", a, y, Picoseconds{14});
//   sim.drive(a, 0_ps, Logic::L0);
//   sim.run_until(10_ns);
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/net.h"
#include "sim/scheduler.h"
#include "util/error.h"
#include "util/units.h"

namespace psnt::sim {

class Simulator;

// Base class for circuit elements. A component wires itself to its nets in
// its constructor (subscribing to input changes) and reacts by scheduling
// output transitions.
class Component {
 public:
  Component(Simulator& sim, std::string name);
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  Simulator& sim_;

 private:
  std::string name_;
};

class Simulator {
 public:
  Simulator() = default;

  // Creates (or retrieves by name) a net.
  Net& net(std::string_view name);
  [[nodiscard]] Net* find_net(std::string_view name);
  [[nodiscard]] std::size_t net_count() const { return nets_.size(); }

  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto component = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T& ref = *component;
    components_.push_back(std::move(component));
    return ref;
  }

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] Picoseconds now() const { return to_ps(scheduler_.now()); }

  // Schedules a stimulus: net takes `v` at absolute time `at`.
  void drive(Net& net, Picoseconds at, Logic v);

  void run_until(Picoseconds t) { scheduler_.run_until(from_ps(t)); }

  // Instrumentation gate. Components that keep per-event debug logs (DFF edge
  // history, sense-inverter transition traces) consult this at construction
  // time. Batch measurement runs turn it off before building the netlist so
  // the hot path does not grow unbounded vectors.
  [[nodiscard]] bool instrumentation_enabled() const {
    return instrumentation_enabled_;
  }
  void set_instrumentation(bool enabled) { instrumentation_enabled_ = enabled; }

 private:
  Scheduler scheduler_;
  std::vector<std::unique_ptr<Net>> nets_;
  // Name -> index into nets_. Heterogeneous lookup so find_net(string_view)
  // never allocates; keys view the Net-owned name strings, which are stable
  // for the simulator's lifetime. The netlist builders look up a net by
  // name for every pin they wire, so a linear scan here would make
  // elaboration quadratic in net count.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string_view, std::size_t, NameHash, std::equal_to<>>
      net_index_;
  std::vector<std::unique_ptr<Component>> components_;
  bool instrumentation_enabled_ = true;
};

}  // namespace psnt::sim
