#include "sim/delay_line.h"

namespace psnt::sim {

DelayLine::DelayLine(Simulator& sim, std::string name, Net& in,
                     std::vector<Picoseconds> stage_delays)
    : Component(sim, name) {
  PSNT_CHECK(!stage_delays.empty(), "delay line needs at least one stage");
  Net* prev = &in;
  for (std::size_t k = 0; k < stage_delays.size(); ++k) {
    Net& tap_net = sim.net(name + ".t" + std::to_string(k));
    sim.add<BufGate>(name + ".dly" + std::to_string(k), *prev, tap_net,
                     stage_delays[k]);
    taps_.push_back(&tap_net);
    prev = &tap_net;
  }
}

}  // namespace psnt::sim
