// Waveform probes and stimulus helpers for testbenches.
#pragma once

#include <optional>
#include <vector>

#include "sim/simulator.h"

namespace psnt::sim {

// Records every transition of a net.
class TransitionRecorder {
 public:
  struct Transition {
    Picoseconds time{0.0};
    Logic from = Logic::X;
    Logic to = Logic::X;
  };

  explicit TransitionRecorder(Net& net);

  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }
  [[nodiscard]] std::size_t count() const { return transitions_.size(); }
  void clear() { transitions_.clear(); }

  // Time of the most recent transition *to* L1 (rising edge), if any.
  [[nodiscard]] std::optional<Picoseconds> last_rise() const;
  [[nodiscard]] std::optional<Picoseconds> last_fall() const;
  // Rising edge at-or-after `t`.
  [[nodiscard]] std::optional<Picoseconds> first_rise_after(
      Picoseconds t) const;
  [[nodiscard]] std::optional<Picoseconds> first_fall_after(
      Picoseconds t) const;

 private:
  std::vector<Transition> transitions_;
};

}  // namespace psnt::sim
