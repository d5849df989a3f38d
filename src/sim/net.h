// Nets: named signal wires with listeners and inertial-delay scheduling.
//
// Our netlists are single-driver (as synthesized standard-cell logic is), so
// inertial delay is implemented with one generation counter per net: each
// newly scheduled transition invalidates any still-pending one. A pulse
// shorter than the driving gate's delay is therefore swallowed, matching
// real gate behaviour — important for the sensor's DS node, where a glitch
// would corrupt the measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logic.h"
#include "sim/sim_time.h"
#include "sim/small_fn.h"

namespace psnt::sim {

class Scheduler;

class Net {
 public:
  // Listener arguments: net, old value, new value, time of change. Stored
  // small-buffer-optimized: every fanout subscriber in the repo captures a
  // single `this` pointer, so notification never chases a heap allocation.
  using Listener = SmallFn<void(const Net&, Logic, Logic, SimTime), 24>;

  Net(std::string name, std::uint32_t id) : name_(std::move(name)), id_(id) {}

  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] Logic value() const { return value_; }
  [[nodiscard]] SimTime last_change() const { return last_change_; }
  [[nodiscard]] std::uint64_t transition_count() const { return transitions_; }

  void on_change(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  // Immediately forces the value at the scheduler's current time (stimulus
  // and initialisation). No-op when unchanged.
  void force(Scheduler& scheduler, Logic v);

  // Schedules the net to take `v` after `delay` with inertial semantics:
  //  * a pending transition to a *different* value is cancelled (glitch
  //    suppression);
  //  * a pending transition to the *same* value is kept at its original
  //    (earlier) time — re-evaluation caused by a non-controlling input must
  //    not postpone an already-launched edge;
  //  * scheduling the current value with nothing pending is a no-op.
  void schedule_level(Scheduler& scheduler, SimTime delay, Logic v);

  // Cancels a pending transition without scheduling a new one.
  void cancel_pending() {
    ++generation_;
    pending_active_ = false;
  }

 private:
  void apply(Logic v, SimTime at);

  std::string name_;
  std::uint32_t id_;
  Logic value_ = Logic::X;
  SimTime last_change_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t generation_ = 0;
  bool pending_active_ = false;
  Logic pending_value_ = Logic::X;
  SimTime pending_time_ = 0;
  std::vector<Listener> listeners_;
};

}  // namespace psnt::sim
