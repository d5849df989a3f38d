// Windowed per-site rollups: a ring of time-bucketed OnlineStats + sketch
// windows with O(1) ingest and constant memory regardless of run length.
//
// Time (sample sim-time, picoseconds) is quantised into fixed-width epochs;
// epoch e lives in slot e % windows. Ingesting a sample whose epoch differs
// from its slot's resets that slot first — rotation is lazy, paid only by
// the sample that opens a new window, so a ring never needs a timer thread.
// Gaps in time larger than the ring simply leave stale slots behind; queries
// filter them by epoch (QueryEngine reads only slots whose epoch falls
// inside the requested span), and samples older than the retention horizon
// (latest_epoch − windows) are dropped and counted, never silently merged
// into the wrong window.
//
// Single writer per ring (the store shard that owns the site); reads happen
// on plain copies inside published snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/histogram_sketch.h"
#include "stats/online_stats.h"
#include "util/units.h"

namespace psnt::serve {

struct WindowConfig {
  // Width of one time bucket in sample (simulation) time.
  Picoseconds width{50000.0};
  // Ring depth: how many trailing windows are retained.
  std::size_t windows = 8;
  // Per-window value sketch configuration.
  SketchConfig sketch;
};

// One time bucket: epoch tag + Welford stats + value sketch.
struct WindowSlot {
  static constexpr std::uint64_t kNoEpoch = static_cast<std::uint64_t>(-1);

  std::uint64_t epoch = kNoEpoch;
  stats::OnlineStats stats;
  HistogramSketch sketch;

  [[nodiscard]] bool live() const { return epoch != kNoEpoch; }
};

class WindowRing {
 public:
  WindowRing() : WindowRing(WindowConfig{}) {}
  explicit WindowRing(const WindowConfig& config);

  // O(1): locates the epoch's slot, rotating it if it holds an older
  // window. Samples older than the retention horizon are counted in
  // late_drops() and otherwise ignored.
  void add(Picoseconds t, double v);

  // Largest epoch epoch_of() returns: times past it (up to +inf) saturate
  // here, so `epoch + windows` cannot overflow. NaN and times at or below
  // zero map to epoch 0.
  static constexpr std::uint64_t kMaxEpoch = std::uint64_t{1} << 62;

  [[nodiscard]] std::uint64_t epoch_of(Picoseconds t) const;
  [[nodiscard]] std::uint64_t latest_epoch() const { return latest_epoch_; }
  [[nodiscard]] std::uint64_t late_drops() const { return late_drops_; }

  [[nodiscard]] const WindowConfig& config() const { return config_; }
  [[nodiscard]] std::size_t window_count() const { return slots_.size(); }
  [[nodiscard]] const WindowSlot& slot(std::size_t i) const {
    return slots_[i];
  }
  [[nodiscard]] const std::vector<WindowSlot>& slots() const { return slots_; }

 private:
  WindowConfig config_;
  double inv_width_ = 0.0;
  std::vector<WindowSlot> slots_;
  std::uint64_t latest_epoch_ = WindowSlot::kNoEpoch;
  std::uint64_t late_drops_ = 0;
  // The epoch of the last accepted add and its slot index: a repeat of it
  // needs no horizon check, no modulo and no rotation.
  std::uint64_t current_epoch_ = WindowSlot::kNoEpoch;
  std::size_t current_slot_ = 0;
};

}  // namespace psnt::serve
