#include "serve/rollup_window.h"

#include <cmath>

#include "util/error.h"

namespace psnt::serve {

WindowRing::WindowRing(const WindowConfig& config) : config_(config) {
  PSNT_CHECK(config.width.value() > 0.0, "window width must be positive");
  PSNT_CHECK(config.windows > 0, "window ring needs at least one window");
  inv_width_ = 1.0 / config.width.value();
  slots_.reserve(config.windows);
  for (std::size_t i = 0; i < config.windows; ++i) {
    slots_.emplace_back(WindowSlot{WindowSlot::kNoEpoch, {},
                                   HistogramSketch{config.sketch}});
  }
}

std::uint64_t WindowRing::epoch_of(Picoseconds t) const {
  const double e = std::floor(t.value() * inv_width_);
  if (!(e > 0.0)) return 0;  // also NaN
  if (e >= static_cast<double>(kMaxEpoch)) return kMaxEpoch;
  return static_cast<std::uint64_t>(e);
}

void WindowRing::add(Picoseconds t, double v) {
  const std::uint64_t e = epoch_of(t);
  if (e != current_epoch_) {
    // Older than the retention horizon: its window was already evicted, and
    // merging it into whatever lives in that slot now would corrupt a newer
    // window. Count and drop.
    if (latest_epoch_ != WindowSlot::kNoEpoch &&
        e + slots_.size() <= latest_epoch_) {
      ++late_drops_;
      return;
    }
    current_epoch_ = e;
    current_slot_ = e % slots_.size();
    WindowSlot& slot = slots_[current_slot_];
    if (slot.epoch != e) {
      // Lazy rotation: the first sample of a new epoch evicts whatever the
      // slot held (the epoch `windows` back, or an even older one after a
      // gap in time).
      slot.epoch = e;
      slot.stats = stats::OnlineStats{};
      slot.sketch.reset();
    }
    if (latest_epoch_ == WindowSlot::kNoEpoch || e > latest_epoch_) {
      latest_epoch_ = e;
    }
  }
  // Until another epoch is accepted, latest_epoch_ and the slot's epoch tag
  // stay as the branch above left them, so a repeat lands here directly.
  WindowSlot& slot = slots_[current_slot_];
  slot.stats.add(v);
  slot.sketch.add(v);
}

}  // namespace psnt::serve
