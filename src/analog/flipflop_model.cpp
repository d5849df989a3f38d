#include "analog/flipflop_model.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace psnt::analog {

const char* to_string(SampleRegion region) {
  switch (region) {
    case SampleRegion::kClean:
      return "clean";
    case SampleRegion::kMetastable:
      return "metastable";
    case SampleRegion::kViolated:
      return "violated";
  }
  return "?";
}

bool FlipFlopParams::valid() const {
  return t_setup.value() >= 0.0 && t_hold.value() >= 0.0 &&
         t_clk_to_q.value() > 0.0 && tau.value() > 0.0 &&
         meta_window.value() > 0.0 &&
         max_resolution.value() > t_clk_to_q.value();
}

FlipFlopTimingModel::FlipFlopTimingModel(FlipFlopParams params)
    : params_(params) {
  PSNT_CHECK(params_.valid(), "flip-flop parameters out of physical range");
}

Picoseconds FlipFlopTimingModel::setup_margin(Picoseconds data_arrival,
                                              Picoseconds clock_edge) const {
  return clock_edge - params_.t_setup - data_arrival;
}

SampleOutcome FlipFlopTimingModel::sample(Picoseconds data_arrival,
                                          Picoseconds clock_edge,
                                          bool new_value,
                                          bool old_value) const {
  SampleOutcome out;
  out.setup_margin = setup_margin(data_arrival, clock_edge);
  const double m = out.setup_margin.value();
  const double w = params_.meta_window.value();

  if (deep_resolver_ && std::fabs(m) < deep_band_.value()) {
    // Razor-thin margin: outcome delegated to the Monte-Carlo resolver, with
    // worst-case (fully degraded) clk-to-q.
    out.captured_value = deep_resolver_(out.setup_margin, new_value, old_value);
    out.region = SampleRegion::kMetastable;
    out.clk_to_q = params_.max_resolution;
    return out;
  }

  if (m >= w) {
    out.captured_value = new_value;
    out.region = SampleRegion::kClean;
    out.clk_to_q = params_.t_clk_to_q;
    return out;
  }
  if (m > 0.0) {
    out.captured_value = new_value;
    out.region = SampleRegion::kMetastable;
    const double extra = params_.tau.value() * std::log(w / m);
    out.clk_to_q = Picoseconds{
        std::min(params_.t_clk_to_q.value() + extra,
                 params_.max_resolution.value())};
    return out;
  }
  // Setup violated: D changed too late; the launch edge saw the old value.
  out.captured_value = old_value;
  out.region = SampleRegion::kViolated;
  out.clk_to_q = params_.t_clk_to_q;
  return out;
}

void FlipFlopTimingModel::set_deep_meta_resolver(DeepMetaResolver resolver,
                                                 Picoseconds deep_band) {
  PSNT_CHECK(deep_band.value() >= 0.0, "deep band must be non-negative");
  deep_resolver_ = std::move(resolver);
  deep_band_ = deep_band;
}

}  // namespace psnt::analog
