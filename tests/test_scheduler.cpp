#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace psnt::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_until(30);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
  EXPECT_EQ(s.executed_events(), 3u);
}

TEST(Scheduler, SameTimeFifoOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  s.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  s.schedule_at(21, [&] { ++count; });
  s.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(21);
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWithoutEvents) {
  Scheduler s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) s.schedule_at(s.now() + 1, chain);
  };
  s.schedule_at(0, chain);
  s.run_until(9);
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.now(), 9);
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler s;
  s.schedule_at(100, [] {});
  s.run_until(100);
  EXPECT_THROW(s.schedule_at(50, [] {}), std::logic_error);
}

TEST(Scheduler, FarFutureEventsParkInOverflowThenMigrate) {
  Scheduler s;
  const SimTime horizon = Scheduler::wheel_horizon();
  std::vector<int> order;
  s.schedule_at(10, [&] { order.push_back(0); });
  // Beyond the wheel window: must land in the overflow heap, not a wrapped
  // bucket (which would corrupt ordering).
  s.schedule_at(horizon + 5, [&] { order.push_back(1); });
  s.schedule_at(3 * horizon + 7, [&] { order.push_back(2); });
  EXPECT_EQ(s.overflow_pending(), 2u);
  s.run_until(3 * horizon + 7);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.now(), 3 * horizon + 7);
  EXPECT_EQ(s.overflow_pending(), 0u);
}

TEST(Scheduler, RunUntilExactlyAtHorizonBoundary) {
  Scheduler s;
  const SimTime horizon = Scheduler::wheel_horizon();
  int count = 0;
  s.schedule_at(horizon, [&] { ++count; });      // first overflow time
  s.schedule_at(horizon - 1, [&] { ++count; });  // last wheel time
  s.run_until(horizon);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), horizon);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ExecutedEventsCountsEveryDispatch) {
  Scheduler s;
  EXPECT_EQ(s.executed_events(), 0u);
  for (int i = 0; i < 7; ++i) s.schedule_at(10 * i, [] {});
  s.run_until(30);
  EXPECT_EQ(s.executed_events(), 4u);  // t = 0, 10, 20, 30
  s.run_until(60);
  EXPECT_EQ(s.executed_events(), 7u);
  // run_until past the last event must not invent dispatches.
  s.run_until(s.now() + 1000);
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(Scheduler, StressOrderMatchesStableSortReference) {
  // Random times straddling the wheel/overflow boundary, with heavy
  // same-timestamp collisions: execution order must equal a stable sort by
  // time (FIFO within a timestamp).
  Scheduler s;
  std::mt19937 rng{12345};
  const SimTime horizon = Scheduler::wheel_horizon();
  std::uniform_int_distribution<SimTime> dist{0, 2 * horizon / 97};
  std::vector<std::pair<SimTime, int>> expected;
  std::vector<int> actual;
  for (int i = 0; i < 2000; ++i) {
    const SimTime t = dist(rng) * 97;  // coarse grid forces collisions
    expected.emplace_back(t, i);
    s.schedule_at(t, [&actual, i] { actual.push_back(i); });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  s.run_until(expected.back().first);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i].second) << "position " << i;
  }
}

TEST(Scheduler, ArenaIsRecycledInSteadyState) {
  Scheduler s;
  // Bounded in-flight events: after the first chunk is carved the free list
  // satisfies every later schedule, so allocation_count stops growing.
  for (int i = 0; i < 50; ++i) s.schedule_at(i, [] {});
  s.run_until(49);
  const std::uint64_t after_warmup = s.allocation_count();
  EXPECT_GE(after_warmup, 1u);
  SimTime t = s.now();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 50; ++i) s.schedule_at(++t, [] {});
    s.run_until(t);
  }
  EXPECT_EQ(s.allocation_count(), after_warmup);
  EXPECT_EQ(s.heap_callbacks(), 0u);
}

TEST(Scheduler, OversizedCallablesSpillToHeapAndAreCounted) {
  Scheduler s;
  std::array<std::uint64_t, 16> big{};  // 128 bytes > the 48-byte buffer
  big[15] = 42;
  std::uint64_t seen = 0;
  s.schedule_at(1, [big, &seen] { seen = big[15]; });
  EXPECT_EQ(s.heap_callbacks(), 1u);
  s.schedule_at(2, [&seen] { ++seen; });  // small: stays inline
  EXPECT_EQ(s.heap_callbacks(), 1u);
  s.run_until(2);
  EXPECT_EQ(seen, 43u);
}

}  // namespace
}  // namespace psnt::sim
