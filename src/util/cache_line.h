// The cache-line size the concurrent structures pad and align to.
//
// Fixed at 64 bytes (x86-64 and most AArch64 cores) rather than taken from
// std::hardware_destructive_interference_size: that value follows -mtune,
// so a layout built on it is not pinned across builds, and GCC warns on
// every use (-Winterference-size).
#pragma once

#include <cstddef>

namespace psnt::util {

inline constexpr std::size_t kCacheLine = 64;

}  // namespace psnt::util
