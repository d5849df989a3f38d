#include "sim/simulator.h"

namespace psnt::sim {

Component::Component(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

Net& Simulator::net(std::string_view name) {
  if (Net* existing = find_net(name)) return *existing;
  nets_.push_back(
      std::make_unique<Net>(std::string(name),
                            static_cast<std::uint32_t>(nets_.size())));
  net_index_.emplace(nets_.back()->name(), nets_.size() - 1);
  return *nets_.back();
}

Net* Simulator::find_net(std::string_view name) {
  const auto it = net_index_.find(name);
  return it == net_index_.end() ? nullptr : nets_[it->second].get();
}

void Simulator::drive(Net& net, Picoseconds at, Logic v) {
  scheduler_.schedule_at(from_ps(at), [&net, v, this] {
    net.force(scheduler_, v);
  });
}

}  // namespace psnt::sim
