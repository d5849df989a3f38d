// Batch firing-threshold compare: the SIMD inner loop of the vectorized
// SENSE path (DESIGN.md §14).
//
// BatchedSenseKernel inverts the per-cell arrival-vs-strobe test into a
// per-cell *firing-threshold voltage* once per (DelayCode, skew); after that
// inversion a batch measure of N supplies is a pure data-parallel compare:
//
//     word[k] bit i  =  v[k] > threshold[i]
//
// This header is that compare, and nothing else — no physics, no caching.
// The backend is chosen at build time by the PSNT_SIMD CMake option: ON
// (the default) builds AVX2 on x86-64 compilers that take -mavx2 and the
// portable scalar loop anywhere else; OFF always builds the scalar loop.
// This TU is the only one compiled with extended ISA flags; callers gate on
// runtime_supported() before dispatching so a binary built with -mavx2
// still runs (through the scalar engine path) on a host without AVX2.
//
// Every threshold is carried as a guard-band *pair* (lo[i] < hi[i]): the bit
// is taken from the hi compare, and a sample whose voltage lands between the
// two compares for any cell is flagged for the caller's exact scalar
// fallback. That pair is what makes the compare path provably bit-identical
// to the scalar engine — see BatchedSenseKernel's ladder construction.
#pragma once

#include <cstddef>
#include <cstdint>

namespace psnt::core::simd {

// True when the compiled backend's instructions exist on this CPU (always
// true for the scalar loop; cpuid-checked for AVX2). Callers must not
// dispatch sense_compare when false.
[[nodiscard]] bool runtime_supported();

// For each sample k in [0, n):
//   out_words[k]    — bit i (i < bits) set iff v[k] > hi[i]
//   out_fallback[k] — nonzero iff the compare result is not trustworthy for
//                     sample k: v[k] is NaN, outside the open window
//                     (win_lo, win_hi), or inside some cell's (lo[i], hi[i]]
//                     guard band. The caller must re-sense such samples
//                     through its exact scalar path; out_words[k] is
//                     meaningless for them.
// Preconditions: bits <= 32, lo[i] < hi[i] for all i.
void sense_compare(const double* v, std::size_t n, const double* lo,
                   const double* hi, std::size_t bits, double win_lo,
                   double win_hi, std::uint32_t* out_words,
                   std::uint8_t* out_fallback);

}  // namespace psnt::core::simd
