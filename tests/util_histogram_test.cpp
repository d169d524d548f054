// Unit tests for the log-bucketed latency histogram.
#include <gtest/gtest.h>

#include <cstdint>

#include "util/histogram.hpp"
#include "util/xoshiro.hpp"

namespace {

using txf::util::LatencyHistogram;

TEST(Histogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(LatencyHistogram::index_for(v), v);
    EXPECT_EQ(LatencyHistogram::upper_bound(LatencyHistogram::index_for(v)), v);
  }
}

TEST(Histogram, IndexIsMonotonic) {
  unsigned prev = 0;
  for (std::uint64_t v = 1; v < 1'000'000; v = v * 3 / 2 + 1) {
    const unsigned idx = LatencyHistogram::index_for(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(Histogram, UpperBoundContainsValue) {
  txf::util::Xoshiro256 rng(41);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.next() >> (rng.next_bounded(60));
    const unsigned idx = LatencyHistogram::index_for(v);
    EXPECT_GE(LatencyHistogram::upper_bound(idx), v);
    if (idx > 0) {
      EXPECT_LT(LatencyHistogram::upper_bound(idx - 1), v);
    }
  }
}

TEST(Histogram, RelativeErrorBounded) {
  // upper_bound(idx) overestimates v by at most ~1/32 for large values.
  for (std::uint64_t v = 64; v < (1ull << 40); v = v * 5 / 4 + 3) {
    const auto ub = LatencyHistogram::upper_bound(LatencyHistogram::index_for(v));
    EXPECT_LE(static_cast<double>(ub - v) / static_cast<double>(v), 1.0 / 16.0);
  }
}

TEST(Histogram, QuantilesOrdered) {
  LatencyHistogram h;
  txf::util::Xoshiro256 rng(43);
  for (int i = 0; i < 50000; ++i) h.record(rng.next_bounded(1'000'000));
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_LE(h.p99(), h.max_recorded());
}

TEST(Histogram, UniformMedianNearMiddle) {
  LatencyHistogram h;
  txf::util::Xoshiro256 rng(47);
  for (int i = 0; i < 100000; ++i) h.record(rng.next_bounded(1000));
  EXPECT_NEAR(static_cast<double>(h.p50()), 500.0, 60.0);
  EXPECT_NEAR(h.mean(), 499.5, 15.0);
}

TEST(Histogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 300; ++i) b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 400u);
  EXPECT_EQ(a.p50(), LatencyHistogram::upper_bound(
                         LatencyHistogram::index_for(1000)));
}

TEST(Histogram, EmptyQuantileIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_recorded(), 0u);
}

TEST(Histogram, HandlesHugeValues) {
  LatencyHistogram h;
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max_recorded(), (~std::uint64_t{0}) >> 1);
}

}  // namespace
