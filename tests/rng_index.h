// Uniform integer in [0, n) drawn from a Xoshiro256 stream, for tests that
// pick random sizes and cases. Rejection sampling removes the modulo bias;
// n == 0 yields 0.
#pragma once

#include <cstdint>

#include "stats/rng.h"

namespace psnt::stats {

inline std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n) {
  if (n == 0) return 0;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t limit = kMax - kMax % n;
  std::uint64_t x = rng.next();
  while (x >= limit) x = rng.next();
  return x % n;
}

}  // namespace psnt::stats
