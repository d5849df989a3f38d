// WindowRing edge cases: lazy rotation, time gaps larger than the ring,
// wraparound reuse of slots, late-sample drops, and last(n) filtering.
#include <gtest/gtest.h>

#include <limits>

#include "serve/rollup_window.h"

namespace psnt::serve {
namespace {

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
  const auto live = ring.last(1);
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
  ASSERT_EQ(ring.last(4).size(), 4u);

  // Jump 100 epochs forward: every prior window is now outside the span.
  ring.add(Picoseconds{10400.0}, 5.0);  // epoch 104
  EXPECT_EQ(ring.latest_epoch(), 104u);
  const auto live = ring.last(4);
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
  for (const auto* slot : ring.last(4)) {
    EXPECT_NE(slot->stats.max(), 99.0);
  }

  // Epoch 7 (latest − 3) is still inside the ring: accepted out of order.
  ring.add(Picoseconds{750.0}, 42.0);
  EXPECT_EQ(ring.late_drops(), 1u);
  const auto live = ring.last(4);
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
  const auto live = ring.last(4);
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
  const auto last2 = ring.last(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0]->epoch, 3u);
  EXPECT_EQ(last2[1]->epoch, 2u);
  EXPECT_TRUE(ring.last(0).empty());
}

TEST(WindowRing, EmptyRing) {
  WindowRing ring{small_ring()};
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.last(4).empty());
  EXPECT_EQ(ring.late_drops(), 0u);
}

}  // namespace
}  // namespace psnt::serve
