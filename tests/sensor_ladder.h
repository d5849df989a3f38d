// Equal-ΔC sensor ladder for tests: C_i = c_first + i * c_step, the paper's
// stated design, built through SensorArray::with_loads.
#pragma once

#include <cstddef>
#include <vector>

#include "core/sensor_array.h"

namespace psnt::core {

inline SensorArray linear_array(const analog::AlphaPowerDelayModel& inverter,
                                const analog::FlipFlopTimingModel& flipflop,
                                Picofarad c_first, Picofarad c_step,
                                std::size_t bits) {
  std::vector<Picofarad> loads;
  loads.reserve(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    loads.push_back(c_first + c_step * static_cast<double>(i));
  }
  return SensorArray::with_loads(inverter, flipflop, loads);
}

}  // namespace psnt::core
