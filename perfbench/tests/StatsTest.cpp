//===- StatsTest.cpp - hand-computed checks of the perfbench helpers ------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <gtest/gtest.h>

using namespace perfbench;

TEST(PerfbenchStats, QuantileInterpolatesBetweenRanks) {
  // Sorted: 1 2 3 4; position 0.5 * 3 = 1.5 -> halfway between 2 and 3.
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7, 1, 3}), 3.0);
  // Position 0.9 * 10 = 9 -> the tenth of 0..10.
  EXPECT_DOUBLE_EQ(quantile({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.0);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(PerfbenchStats, TailPercentileKeepsTenSamplesBeyond) {
  // 100 samples: p90 leaves ranks 91..100 beyond it (10), p95 only 5.
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_EQ(samplesBeyond(100, 95), 5u);
  EXPECT_DOUBLE_EQ(tailPercentile(100), 90.0);
  // 1000 samples: p99 leaves 10, p99.9 leaves 1.
  EXPECT_DOUBLE_EQ(tailPercentile(1000), 99.0);
  // 20 samples: p50 leaves 10; 19 samples leave 9 beyond p50.
  EXPECT_DOUBLE_EQ(tailPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(tailPercentile(19), 0.0);
  // 108 samples: ceil(97.2) = 98, so p90 leaves 10.
  EXPECT_EQ(samplesBeyond(108, 90), 10u);
}

TEST(PerfbenchStats, GeomeanOfRatios) {
  // (2 * 8)^(1/2) = 4; (1 * 10 * 100)^(1/3) = 10.
  EXPECT_NEAR(geomean({2, 8}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({1, 10, 100}), 10.0, 1e-12);
  EXPECT_TRUE(std::isnan(geomean({1, 0})));
  EXPECT_TRUE(std::isnan(geomean({})));
}

TEST(PerfbenchStats, SelfTimeSubtractsCoveredChildIntervals) {
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping: union
  // [1, 6] = 5) and a grandchild [2, 3] under the first child.
  std::vector<Span> S(4);
  S[0] = {"root", 0, 10, -1, 7};
  S[1] = {"a", 1, 4, 0, 7};
  S[2] = {"b", 3, 6, 0, 7};
  S[3] = {"c", 2, 3, 1, 7};
  std::vector<double> Self = selfTimes(S);
  EXPECT_DOUBLE_EQ(Self[0], 10 - 5);
  EXPECT_DOUBLE_EQ(Self[1], 3 - 1);
  EXPECT_DOUBLE_EQ(Self[2], 3);
  EXPECT_DOUBLE_EQ(Self[3], 1);
}

TEST(PerfbenchStats, SelfTimeClipsChildrenToTheParent) {
  // A child that outlives its parent only covers the overlap [8, 10].
  std::vector<Span> S(2);
  S[0] = {"root", 0, 10, -1, 1};
  S[1] = {"late", 8, 12, 0, 1};
  EXPECT_DOUBLE_EQ(selfTimes(S)[0], 8);
}
