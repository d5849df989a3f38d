// Reads the Delay Code a gate-level control FSM holds, from the Q nets of its
// code register (an X or Z bit reads as 0).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/fsm_netlist.h"

namespace psnt::core {

inline DelayCode held_code(StructuralControlFsm& fsm) {
  std::uint8_t value = 0;
  for (std::size_t b = 0; b < 3; ++b) {
    if (fsm.code_q(b).value() == sim::Logic::L1) {
      value |= static_cast<std::uint8_t>(1u << b);
    }
  }
  return DelayCode{value};
}

}  // namespace psnt::core
