// TopKDroop vs. an exact reference: random monotone update streams, K larger
// than the site count, ties, and negative (overshoot) droops.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "serve/topk.h"
#include "rng_index.h"
#include "stats/rng.h"

namespace psnt::serve {
namespace {

std::vector<TopKDroop::Entry> top_of(const TopKDroop& tracker) {
  std::vector<TopKDroop::Entry> out;
  tracker.top_into(out);
  return out;
}

// Exact reference: max per site, sort droop desc / site asc, cut to K.
std::vector<TopKDroop::Entry> exact_topk(const std::vector<double>& worst,
                                         std::size_t k) {
  std::vector<TopKDroop::Entry> entries;
  for (std::uint32_t s = 0; s < worst.size(); ++s) {
    if (worst[s] != -std::numeric_limits<double>::infinity()) {
      entries.push_back({s, worst[s]});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const TopKDroop::Entry& a, const TopKDroop::Entry& b) {
              if (a.droop != b.droop) return a.droop > b.droop;
              return a.site < b.site;
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

void expect_same(const std::vector<TopKDroop::Entry>& got,
                 const std::vector<TopKDroop::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].site, want[i].site) << "rank " << i;
    EXPECT_DOUBLE_EQ(got[i].droop, want[i].droop) << "rank " << i;
  }
}

TEST(TopKDroop, MatchesExactSortUnderRandomUpdates) {
  constexpr std::size_t kSiteCount = 64;
  constexpr std::size_t kK = 8;
  stats::Xoshiro256 rng(1234);

  TopKDroop tracker(kSiteCount, kK);
  std::vector<double> worst(kSiteCount,
                            -std::numeric_limits<double>::infinity());
  for (int step = 0; step < 20000; ++step) {
    const auto site =
        static_cast<std::uint32_t>(uniform_index(rng, kSiteCount));
    const double droop = rng.normal(0.01 * site, 0.05);  // high sites worse
    tracker.update(site, droop);
    worst[site] = std::max(worst[site], droop);
    if (step % 977 == 0) {
      expect_same(top_of(tracker), exact_topk(worst, kK));
    }
  }
  expect_same(top_of(tracker), exact_topk(worst, kK));
  // Per-site worsts are tracked exactly for every site, not just the top K.
  for (std::uint32_t s = 0; s < kSiteCount; ++s) {
    EXPECT_DOUBLE_EQ(tracker.worst(s), worst[s]);
  }
}

TEST(TopKDroop, KLargerThanSiteCountReturnsAllSeenSites) {
  TopKDroop tracker(4, 16);
  tracker.update(2, 0.3);
  tracker.update(0, 0.1);
  const auto top = top_of(tracker);
  ASSERT_EQ(top.size(), 2u);  // unseen sites are absent, not zero-filled
  EXPECT_EQ(top[0].site, 2u);
  EXPECT_EQ(top[1].site, 0u);
}

TEST(TopKDroop, TiesBreakTowardLowerSiteId) {
  TopKDroop tracker(8, 3);
  tracker.update(5, 0.2);
  tracker.update(1, 0.2);
  tracker.update(3, 0.2);
  tracker.update(7, 0.2);
  const auto top = top_of(tracker);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].site, 1u);
  EXPECT_EQ(top[1].site, 3u);
  EXPECT_EQ(top[2].site, 5u);
}

TEST(TopKDroop, NegativeDroopNeverDisplacesWorseSites) {
  TopKDroop tracker(4, 2);
  tracker.update(0, 0.5);
  tracker.update(1, 0.4);
  tracker.update(2, -0.1);  // overshoot: valid value, loses to both
  auto top = top_of(tracker);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].site, 0u);
  EXPECT_EQ(top[1].site, 1u);

  // But it enters while there is room.
  TopKDroop roomy(4, 4);
  roomy.update(2, -0.1);
  ASSERT_EQ(top_of(roomy).size(), 1u);
  EXPECT_EQ(top_of(roomy)[0].site, 2u);
}

TEST(TopKDroop, EvictedSiteCanReenterByWorsening) {
  TopKDroop tracker(4, 2);
  tracker.update(0, 0.5);
  tracker.update(1, 0.4);
  tracker.update(2, 0.3);  // never makes the heap
  tracker.update(2, 0.6);  // monotone worsening pushes it past site 1
  const auto top = top_of(tracker);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].site, 2u);
  EXPECT_EQ(top[1].site, 0u);
}

TEST(TopKDroop, StaleUpdateIsIgnored) {
  TopKDroop tracker(4, 2);
  tracker.update(0, 0.5);
  tracker.update(0, 0.2);  // better reading: per-site max must not regress
  EXPECT_DOUBLE_EQ(tracker.worst(0), 0.5);
  EXPECT_DOUBLE_EQ(top_of(tracker)[0].droop, 0.5);
}

}  // namespace
}  // namespace psnt::serve
