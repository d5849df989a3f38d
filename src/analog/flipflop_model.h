// Flip-flop timing behaviour: setup check, clk-to-q, and metastability.
//
// The paper's Fig. 2 shows the sensor FF's OUT delay growing *non-linearly*
// as DS approaches the sampling edge, with an outright failure in the last
// case. That is classic metastability, and we reproduce it with the standard
// small-signal tau model:
//
//   margin m = (t_clock - t_setup) - t_data_arrival
//   m >= w          → clean capture,      t_c2q = t_c2q_nominal
//   0 < m < w       → metastable capture, t_c2q = t_c2q_nominal + tau·ln(w/m)
//   m <= 0          → setup violated: the FF retains its previous value
//
// w is the metastability aperture and tau the regeneration time constant of
// the FF's cross-coupled pair. The model is deterministic by default; an
// optional resolver callback can randomise the outcome inside a configurable
// deep-metastability band for Monte-Carlo studies.
#pragma once

#include <functional>
#include <optional>

#include "util/units.h"

namespace psnt::analog {

enum class SampleRegion {
  kClean,       // margin comfortably positive
  kMetastable,  // captured the new value but with degraded clk-to-q
  kViolated,    // setup failed: old value retained
};

[[nodiscard]] const char* to_string(SampleRegion region);

struct SampleOutcome {
  bool captured_value = false;   // value at Q after the edge
  SampleRegion region = SampleRegion::kClean;
  Picoseconds clk_to_q{0.0};
  Picoseconds setup_margin{0.0};
};

struct FlipFlopParams {
  Picoseconds t_setup{35.0};
  Picoseconds t_hold{10.0};
  Picoseconds t_clk_to_q{95.0};
  // Regeneration time constant of the latch.
  Picoseconds tau{8.0};
  // Metastability aperture: margins below this degrade clk-to-q.
  Picoseconds meta_window{10.0};
  // Hard cap for the resolved clk-to-q (a real FF snaps eventually or is
  // sampled as X by the next stage).
  Picoseconds max_resolution{400.0};

  [[nodiscard]] bool valid() const;
};

class FlipFlopTimingModel {
 public:
  // Called when the margin is inside (+/-) `deep_band` of zero; returns the
  // value Q resolves to. Lets Monte-Carlo tests model the coin-flip nature of
  // razor-thin margins. When unset the model is fully deterministic.
  using DeepMetaResolver = std::function<bool(Picoseconds margin,
                                              bool new_value, bool old_value)>;

  FlipFlopTimingModel() = default;
  explicit FlipFlopTimingModel(FlipFlopParams params);

  [[nodiscard]] const FlipFlopParams& params() const { return params_; }

  // Evaluates one sampling edge.
  //   data_arrival — time the D input settled to `new_value`
  //   clock_edge   — time of the active clock edge
  //   new_value    — the value D carries after data_arrival
  //   old_value    — the value Q held before the edge
  [[nodiscard]] SampleOutcome sample(Picoseconds data_arrival,
                                     Picoseconds clock_edge, bool new_value,
                                     bool old_value) const;

  // Convenience: margin only.
  [[nodiscard]] Picoseconds setup_margin(Picoseconds data_arrival,
                                         Picoseconds clock_edge) const;

  void set_deep_meta_resolver(DeepMetaResolver resolver,
                              Picoseconds deep_band);

  // True when a Monte-Carlo resolver is installed. Sampling is then no
  // longer a pure threshold function of the margin, so batch paths that
  // precompute firing thresholds (core::BatchedSenseKernel's compare-only
  // SENSE) must fall back to calling sample() per evaluation.
  [[nodiscard]] bool has_deep_meta_resolver() const {
    return static_cast<bool>(deep_resolver_);
  }

 private:
  FlipFlopParams params_;
  DeepMetaResolver deep_resolver_;
  Picoseconds deep_band_{0.0};
};

}  // namespace psnt::analog
