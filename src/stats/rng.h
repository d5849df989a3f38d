// Deterministic random number generation.
//
// Every stochastic element in the library (metastability resolution, PDN
// workload noise, Monte-Carlo process variation) draws from an explicitly
// seeded Xoshiro256** stream so experiments are bit-reproducible. No global
// RNG exists on purpose: each consumer owns its stream.
#pragma once

#include <array>
#include <cstdint>

namespace psnt::stats {

// SplitMix64: used only to expand a single seed into Xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Xoshiro256** by Blackman & Vigna — fast, high quality, 2^256-1 period.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x5eed5eed5eedULL);

  std::uint64_t next();

  // Uniform double in [0, 1).
  double uniform01();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Standard normal via Box–Muller (cached second variate).
  double normal();
  double normal(double mean, double stddev);

  // Bernoulli draw.
  bool bernoulli(double p_true);

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace psnt::stats
