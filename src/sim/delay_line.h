// Tapped delay line (the structural body of the pulse generator, Fig. 7).
//
// A chain of delay-element buffers with per-stage delays; every stage output
// is exposed as a tap net so a MUX can select the total delay. The PG table
// in the paper (codes 000…111 → 26…107 ps) is realised by choosing the stage
// delays so tap i accumulates the i-th table entry minus the shared MUX
// delay.
#pragma once

#include <vector>

#include "sim/gates.h"
#include "sim/simulator.h"

namespace psnt::sim {

class DelayLine : public Component {
 public:
  // Builds `stage_delays.size()` buffers: in → t0 → t1 → ... Tap k is the
  // output of stage k (cumulative delay = sum of stage_delays[0..k]).
  DelayLine(Simulator& sim, std::string name, Net& in,
            std::vector<Picoseconds> stage_delays);

  [[nodiscard]] std::size_t stages() const { return taps_.size(); }
  [[nodiscard]] Net& tap(std::size_t k) { return *taps_.at(k); }

 private:
  std::vector<Net*> taps_;
};

}  // namespace psnt::sim
