#include "sim/probe.h"

namespace psnt::sim {

TransitionRecorder::TransitionRecorder(Net& net) {
  net.on_change([this](const Net&, Logic from, Logic to, SimTime at) {
    transitions_.push_back({to_ps(at), from, to});
  });
}

std::optional<Picoseconds> TransitionRecorder::last_rise() const {
  for (auto it = transitions_.rbegin(); it != transitions_.rend(); ++it) {
    if (it->to == Logic::L1) return it->time;
  }
  return std::nullopt;
}

std::optional<Picoseconds> TransitionRecorder::last_fall() const {
  for (auto it = transitions_.rbegin(); it != transitions_.rend(); ++it) {
    if (it->to == Logic::L0) return it->time;
  }
  return std::nullopt;
}

std::optional<Picoseconds> TransitionRecorder::first_rise_after(
    Picoseconds t) const {
  for (const auto& tr : transitions_) {
    if (tr.to == Logic::L1 && tr.time >= t) return tr.time;
  }
  return std::nullopt;
}

std::optional<Picoseconds> TransitionRecorder::first_fall_after(
    Picoseconds t) const {
  for (const auto& tr : transitions_) {
    if (tr.to == Logic::L0 && tr.time >= t) return tr.time;
  }
  return std::nullopt;
}

}  // namespace psnt::sim
