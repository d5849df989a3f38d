// WindowRing edge cases: lazy rotation, time gaps larger than the ring,
// wraparound reuse of slots, late-sample drops, last(n) filtering, and the
// current-epoch slot cache against a ring that locates every slot afresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "serve/rollup_window.h"
#include "rng_index.h"
#include "stats/rng.h"

namespace psnt::serve {
namespace {

// The live slots covering the `n` most recent epochs
// (latest_epoch − n, latest_epoch], newest first. Stale and empty slots are
// skipped, so the result may hold fewer than n entries.
std::vector<const WindowSlot*> last(const WindowRing& ring, std::size_t n) {
  std::vector<const WindowSlot*> out;
  const std::uint64_t latest = ring.latest_epoch();
  if (latest == WindowSlot::kNoEpoch) return out;
  n = std::min(n, ring.window_count());
  for (std::size_t back = 0; back < n && back <= latest; ++back) {
    const std::uint64_t e = latest - back;
    const WindowSlot& slot = ring.slot(e % ring.window_count());
    if (slot.epoch == e && slot.stats.count() > 0) out.push_back(&slot);
  }
  return out;
}

WindowConfig small_ring() {
  WindowConfig config;
  config.width = Picoseconds{100.0};
  config.windows = 4;
  config.sketch = SketchConfig{0.01, 1e-3, 64};
  return config;
}

TEST(WindowRing, EpochQuantisation) {
  WindowRing ring{small_ring()};
  EXPECT_EQ(ring.epoch_of(Picoseconds{0.0}), 0u);
  EXPECT_EQ(ring.epoch_of(Picoseconds{99.9}), 0u);
  EXPECT_EQ(ring.epoch_of(Picoseconds{100.0}), 1u);
  EXPECT_EQ(ring.epoch_of(Picoseconds{450.0}), 4u);
  // Negative time clamps to epoch 0 rather than underflowing.
  EXPECT_EQ(ring.epoch_of(Picoseconds{-50.0}), 0u);
  // Times past the uint64 range saturate instead of reaching an
  // out-of-range float-to-integer cast; NaN and -inf map to epoch 0.
  EXPECT_EQ(ring.epoch_of(Picoseconds{1e300}), WindowRing::kMaxEpoch);
  EXPECT_EQ(ring.epoch_of(Picoseconds{
                std::numeric_limits<double>::infinity()}),
            WindowRing::kMaxEpoch);
  EXPECT_EQ(ring.epoch_of(Picoseconds{
                -std::numeric_limits<double>::infinity()}),
            0u);
  EXPECT_EQ(ring.epoch_of(Picoseconds{
                std::numeric_limits<double>::quiet_NaN()}),
            0u);
}

TEST(WindowRing, SamplesWithinOneEpochShareASlot) {
  WindowRing ring{small_ring()};
  ring.add(Picoseconds{10.0}, 1.0);
  ring.add(Picoseconds{50.0}, 2.0);
  ring.add(Picoseconds{99.0}, 3.0);
  EXPECT_EQ(ring.latest_epoch(), 0u);
  const auto live = last(ring, 1);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0]->stats.count(), 3u);
  EXPECT_DOUBLE_EQ(live[0]->stats.mean(), 2.0);
}

TEST(WindowRing, RotationResetsRecycledSlot) {
  WindowRing ring{small_ring()};
  ring.add(Picoseconds{0.0}, 1.0);  // epoch 0 -> slot 0
  // Epoch 4 maps back onto slot 0 (4 % 4); the old window must be gone.
  ring.add(Picoseconds{420.0}, 9.0);
  EXPECT_EQ(ring.latest_epoch(), 4u);
  const auto& slot = ring.slot(0);
  EXPECT_EQ(slot.epoch, 4u);
  EXPECT_EQ(slot.stats.count(), 1u);
  EXPECT_DOUBLE_EQ(slot.stats.mean(), 9.0);
}

TEST(WindowRing, GapLargerThanRingLeavesOnlyStaleSlots) {
  WindowRing ring{small_ring()};
  for (int e = 0; e < 4; ++e) {
    ring.add(Picoseconds{static_cast<double>(e) * 100.0 + 1.0}, 1.0);
  }
  ASSERT_EQ(last(ring, 4).size(), 4u);

  // Jump 100 epochs forward: every prior window is now outside the span.
  ring.add(Picoseconds{10400.0}, 5.0);  // epoch 104
  EXPECT_EQ(ring.latest_epoch(), 104u);
  const auto live = last(ring, 4);
  ASSERT_EQ(live.size(), 1u);  // stale epochs filtered, not returned
  EXPECT_EQ(live[0]->epoch, 104u);
  EXPECT_DOUBLE_EQ(live[0]->stats.mean(), 5.0);
}

TEST(WindowRing, LateSamplesBeyondRetentionAreDroppedAndCounted) {
  WindowRing ring{small_ring()};
  ring.add(Picoseconds{1000.0}, 1.0);  // epoch 10
  EXPECT_EQ(ring.late_drops(), 0u);

  // Epoch 6 = latest − 4 = retention horizon: too old, must not be merged.
  ring.add(Picoseconds{650.0}, 99.0);
  EXPECT_EQ(ring.late_drops(), 1u);
  for (const auto* slot : last(ring, 4)) {
    EXPECT_NE(slot->stats.max(), 99.0);
  }

  // Epoch 7 (latest − 3) is still inside the ring: accepted out of order.
  ring.add(Picoseconds{750.0}, 42.0);
  EXPECT_EQ(ring.late_drops(), 1u);
  const auto live = last(ring, 4);
  ASSERT_EQ(live.size(), 2u);  // epochs 10 and 7, newest first
  EXPECT_EQ(live[0]->epoch, 10u);
  EXPECT_EQ(live[1]->epoch, 7u);
  EXPECT_DOUBLE_EQ(live[1]->stats.mean(), 42.0);
}

TEST(WindowRing, WraparoundKeepsExactlyRingDepthWindows) {
  WindowRing ring{small_ring()};
  // 12 consecutive epochs through a 4-deep ring.
  for (int e = 0; e < 12; ++e) {
    ring.add(Picoseconds{static_cast<double>(e) * 100.0 + 50.0},
             static_cast<double>(e));
  }
  EXPECT_EQ(ring.latest_epoch(), 11u);
  const auto live = last(ring, 4);
  ASSERT_EQ(live.size(), 4u);
  // Newest first: epochs 11, 10, 9, 8 — each holding exactly its one sample.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(live[i]->epoch, 11u - i);
    EXPECT_EQ(live[i]->stats.count(), 1u);
    EXPECT_DOUBLE_EQ(live[i]->stats.mean(), static_cast<double>(11u - i));
  }
}

TEST(WindowRing, LastNSpansOnlyRequestedEpochs) {
  WindowRing ring{small_ring()};
  for (int e = 0; e < 4; ++e) {
    ring.add(Picoseconds{static_cast<double>(e) * 100.0 + 50.0},
             static_cast<double>(e));
  }
  const auto last2 = last(ring, 2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0]->epoch, 3u);
  EXPECT_EQ(last2[1]->epoch, 2u);
  EXPECT_TRUE(last(ring, 0).empty());
}

TEST(WindowRing, EmptyRing) {
  WindowRing ring{small_ring()};
  EXPECT_EQ(ring.latest_epoch(), WindowSlot::kNoEpoch);
  EXPECT_TRUE(last(ring, 4).empty());
  EXPECT_EQ(ring.late_drops(), 0u);
}

// The ring without a slot cache: every add runs the horizon check, the
// modulo and the rotation test.
class ReferenceRing {
 public:
  explicit ReferenceRing(const WindowConfig& config) {
    for (std::size_t i = 0; i < config.windows; ++i) {
      slots_.push_back(WindowSlot{WindowSlot::kNoEpoch, {},
                                  HistogramSketch{config.sketch}});
    }
  }

  void add(std::uint64_t e, double v) {
    if (latest_ != WindowSlot::kNoEpoch && e + slots_.size() <= latest_) {
      ++late_drops_;
      return;
    }
    WindowSlot& slot = slots_[e % slots_.size()];
    if (slot.epoch != e) {
      slot.epoch = e;
      slot.stats = stats::OnlineStats{};
      slot.sketch.reset();
    }
    slot.stats.add(v);
    slot.sketch.add(v);
    if (latest_ == WindowSlot::kNoEpoch || e > latest_) latest_ = e;
  }

  // Slot indices of last(n), newest first.
  std::vector<std::size_t> last(std::size_t n) const {
    std::vector<std::size_t> out;
    if (latest_ == WindowSlot::kNoEpoch) return out;
    n = std::min(n, slots_.size());
    for (std::size_t back = 0; back < n && back <= latest_; ++back) {
      const std::uint64_t e = latest_ - back;
      const std::size_t i = e % slots_.size();
      if (slots_[i].epoch == e && slots_[i].stats.count() > 0) {
        out.push_back(i);
      }
    }
    return out;
  }

  const std::vector<WindowSlot>& slots() const { return slots_; }
  std::uint64_t latest_epoch() const { return latest_; }
  std::uint64_t late_drops() const { return late_drops_; }

 private:
  std::vector<WindowSlot> slots_;
  std::uint64_t latest_ = WindowSlot::kNoEpoch;
  std::uint64_t late_drops_ = 0;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string diff(const WindowRing& ring, const ReferenceRing& ref) {
  if (ring.latest_epoch() != ref.latest_epoch()) return "latest_epoch";
  if (ring.late_drops() != ref.late_drops()) return "late_drops";
  for (std::size_t i = 0; i < ring.window_count(); ++i) {
    const WindowSlot& a = ring.slot(i);
    const WindowSlot& b = ref.slots()[i];
    const std::string where = "slot " + std::to_string(i) + " ";
    if (a.epoch != b.epoch) return where + "epoch";
    if (a.stats.count() != b.stats.count() ||
        !same_bits(a.stats.mean(), b.stats.mean()) ||
        !same_bits(a.stats.min(), b.stats.min()) ||
        !same_bits(a.stats.max(), b.stats.max())) {
      return where + "stats";
    }
    if (a.sketch.count() != b.sketch.count()) {
      return where + "sketch totals";
    }
    for (std::size_t k = 0; k < a.sketch.config().bucket_count; ++k) {
      if (a.sketch.bucket_count_at(k) != b.sketch.bucket_count_at(k)) {
        return where + "sketch bucket " + std::to_string(k);
      }
    }
  }
  for (std::size_t n = 0; n <= ring.window_count() + 1; ++n) {
    std::vector<std::size_t> got;
    for (const WindowSlot* slot : last(ring, n)) {
      got.push_back(static_cast<std::size_t>(slot - &ring.slot(0)));
    }
    if (got != ref.last(n)) return "last(" + std::to_string(n) + ")";
  }
  return "";
}

// Seeded sample times that repeat an epoch, step forward, go back inside the
// retention horizon, fall behind it, jump over gaps and finally saturate at
// kMaxEpoch: the cached ring must match the reference after every add.
TEST(WindowRing, SlotCacheMatchesRingWithoutCache) {
  const WindowConfig config = small_ring();
  const double width = config.width.value();
  const double depth = static_cast<double>(config.windows);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    WindowRing ring{config};
    ReferenceRing ref{config};
    stats::Xoshiro256 rng(seed);
    double now = 0.0;  // latest time stepped to
    constexpr int kSteps = 3000;
    for (int step = 0; step < kSteps; ++step) {
      const double u = rng.uniform01();
      double t = now;
      std::string kind;
      if (step > kSteps * 9 / 10 && u < 0.05) {
        t = rng.bernoulli(0.5) ? 1e300
                               : std::numeric_limits<double>::infinity();
        kind = "saturate";
      } else if (u < 0.40) {
        t = now + rng.uniform(0.0, 0.2) * width;  // mostly the same epoch
        now = t;
        kind = "repeat";
      } else if (u < 0.60) {
        now += width;
        t = now;
        kind = "next epoch";
      } else if (u < 0.72) {
        t = std::max(0.0, now - rng.uniform(0.0, depth - 1.0) * width);
        kind = "back inside horizon";
      } else if (u < 0.82) {
        t = now - (depth + rng.uniform(0.0, 6.0)) * width;
        kind = "behind horizon";
      } else if (u < 0.90) {
        now += width * static_cast<double>(2 + uniform_index(rng, 12));
        t = now;
        kind = "gap";
      } else if (u < 0.95) {
        t = rng.bernoulli(0.5) ? -width
                               : std::numeric_limits<double>::quiet_NaN();
        kind = "epoch 0";
      } else {
        t = now;
        kind = "same time";
      }
      const double v = rng.bernoulli(0.5) ? 0.95 : rng.uniform(0.5, 1.5);
      ring.add(Picoseconds{t}, v);
      ref.add(ring.epoch_of(Picoseconds{t}), v);
      ASSERT_EQ(diff(ring, ref), "") << "step " << step << " (" << kind
                                     << ", t=" << t << ")";
    }
    EXPECT_EQ(ring.latest_epoch(), WindowRing::kMaxEpoch);
    EXPECT_GT(ring.late_drops(), 0u);
  }
}

}  // namespace
}  // namespace psnt::serve
