#include "core/sense_simd.h"

#if defined(PSNT_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace psnt::core::simd {

namespace {

// Portable reference lane, also the tail handler of the AVX2 backend. The
// comparisons are the whole semantic contract: strict v > threshold, with
// NaN comparing false everywhere (so a NaN voltage fails the window test and
// falls back to the scalar engine, which models it).
inline void compare_one(double x, const double* lo, const double* hi,
                        std::size_t bits, double win_lo, double win_hi,
                        std::uint32_t& word_out, std::uint8_t& fallback_out) {
  std::uint32_t word = 0;
  std::uint32_t ambiguous = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    const std::uint32_t above_lo = x > lo[i] ? 1u : 0u;
    const std::uint32_t above_hi = x > hi[i] ? 1u : 0u;
    word |= above_hi << i;
    ambiguous |= above_lo ^ above_hi;
  }
  const bool in_window = x > win_lo && x < win_hi;
  word_out = word;
  fallback_out = static_cast<std::uint8_t>((in_window ? 0u : 1u) | ambiguous);
}

}  // namespace

#if defined(PSNT_SIMD_AVX2)

bool runtime_supported() { return __builtin_cpu_supports("avx2") != 0; }

void sense_compare(const double* v, std::size_t n, const double* lo,
                   const double* hi, std::size_t bits, double win_lo,
                   double win_hi, std::uint32_t* out_words,
                   std::uint8_t* out_fallback) {
  const __m256d wlo = _mm256_set1_pd(win_lo);
  const __m256d whi = _mm256_set1_pd(win_hi);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d x = _mm256_loadu_pd(v + k);
    // Open-window membership; NaN lanes compare false on both sides and so
    // come out as fallback, same as the scalar lane.
    const __m256d in_window =
        _mm256_and_pd(_mm256_cmp_pd(x, wlo, _CMP_GT_OQ),
                      _mm256_cmp_pd(x, whi, _CMP_LT_OQ));
    int fallback = (~_mm256_movemask_pd(in_window)) & 0xF;
    std::uint32_t w0 = 0;
    std::uint32_t w1 = 0;
    std::uint32_t w2 = 0;
    std::uint32_t w3 = 0;
    for (std::size_t i = 0; i < bits; ++i) {
      const int above_hi = _mm256_movemask_pd(
          _mm256_cmp_pd(x, _mm256_set1_pd(hi[i]), _CMP_GT_OQ));
      const int above_lo = _mm256_movemask_pd(
          _mm256_cmp_pd(x, _mm256_set1_pd(lo[i]), _CMP_GT_OQ));
      fallback |= above_lo ^ above_hi;
      // movemask packs one bit per lane; scatter lane j's compare into
      // sample j's word at cell position i.
      w0 |= static_cast<std::uint32_t>(above_hi & 1) << i;
      w1 |= static_cast<std::uint32_t>((above_hi >> 1) & 1) << i;
      w2 |= static_cast<std::uint32_t>((above_hi >> 2) & 1) << i;
      w3 |= static_cast<std::uint32_t>((above_hi >> 3) & 1) << i;
    }
    out_words[k + 0] = w0;
    out_words[k + 1] = w1;
    out_words[k + 2] = w2;
    out_words[k + 3] = w3;
    out_fallback[k + 0] = static_cast<std::uint8_t>(fallback & 1);
    out_fallback[k + 1] = static_cast<std::uint8_t>((fallback >> 1) & 1);
    out_fallback[k + 2] = static_cast<std::uint8_t>((fallback >> 2) & 1);
    out_fallback[k + 3] = static_cast<std::uint8_t>((fallback >> 3) & 1);
  }
  for (; k < n; ++k) {
    compare_one(v[k], lo, hi, bits, win_lo, win_hi, out_words[k],
                out_fallback[k]);
  }
}

#else  // scalar fallback (PSNT_SIMD=OFF, or no -mavx2 x86-64 target)

bool runtime_supported() { return true; }

void sense_compare(const double* v, std::size_t n, const double* lo,
                   const double* hi, std::size_t bits, double win_lo,
                   double win_hi, std::uint32_t* out_words,
                   std::uint8_t* out_fallback) {
  // Branch-free enough for the autovectorizer; -fopenmp-simd (set on this TU
  // when the compiler takes it) makes the intent explicit without a runtime
  // OpenMP dependency.
#pragma omp simd
  for (std::size_t k = 0; k < n; ++k) {
    compare_one(v[k], lo, hi, bits, win_lo, win_hi, out_words[k],
                out_fallback[k]);
  }
}

#endif

}  // namespace psnt::core::simd
