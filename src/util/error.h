// Precondition checks for the library.
//
// Logic errors (violated preconditions inside the library itself) use
// PSNT_CHECK, which throws std::logic_error in every build type.
#pragma once

#include <stdexcept>
#include <string>

namespace psnt::util {

// Precondition check that survives NDEBUG builds: model invariants here are
// correctness-critical (a negative capacitance would silently corrupt every
// experiment), so they stay on in release.
#define PSNT_CHECK(cond, msg)                                          \
  do {                                                                 \
    if (!(cond)) {                                                     \
      throw std::logic_error(std::string("PSNT_CHECK failed: ") +     \
                             (msg) + " [" #cond "]");                  \
    }                                                                  \
  } while (false)

}  // namespace psnt::util
