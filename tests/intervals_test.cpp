#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/intervals.hpp"
#include "util/rng.hpp"

namespace manet::util {
namespace {

TEST(IntervalSet, EmptyAndDegenerateAdds) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total_length(), 0);
  s.add(5, 5);    // empty
  s.add(9, 3);    // inverted
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, MergesOverlappingAndAdjacent) {
  IntervalSet s;
  s.add(0, 10);
  s.add(5, 15);   // overlap
  s.add(15, 20);  // adjacent
  s.add(30, 40);  // disjoint
  const auto& iv = s.intervals();
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0], (Interval{0, 20}));
  EXPECT_EQ(iv[1], (Interval{30, 40}));
  EXPECT_EQ(s.total_length(), 30);
}

TEST(IntervalSet, OrderIndependent) {
  IntervalSet a, b;
  a.add(0, 5);
  a.add(10, 15);
  a.add(3, 12);
  b.add(3, 12);
  b.add(10, 15);
  b.add(0, 5);
  EXPECT_EQ(a.intervals(), b.intervals());
}

TEST(IntervalSet, Clamped) {
  IntervalSet s;
  s.add(0, 10);
  s.add(20, 30);
  const IntervalSet c = s.clamped(5, 25);
  ASSERT_EQ(c.intervals().size(), 2u);
  EXPECT_EQ(c.intervals()[0], (Interval{5, 10}));
  EXPECT_EQ(c.intervals()[1], (Interval{20, 25}));
  EXPECT_TRUE(s.clamped(11, 19).empty());
}

TEST(IntervalSet, IntersectionLength) {
  IntervalSet a, b;
  a.add(0, 10);
  a.add(20, 30);
  b.add(5, 25);
  EXPECT_EQ(a.intersection_length(b), 5 + 5);
  EXPECT_EQ(b.intersection_length(a), 10);  // symmetric
  IntervalSet empty;
  EXPECT_EQ(a.intersection_length(empty), 0);
}

TEST(IntervalSet, ComplementWithin) {
  IntervalSet s;
  s.add(10, 20);
  s.add(30, 40);
  const auto gaps = s.complement_within(0, 50);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Interval{0, 10}));
  EXPECT_EQ(gaps[1], (Interval{20, 30}));
  EXPECT_EQ(gaps[2], (Interval{40, 50}));

  // Window fully covered: no gaps.
  EXPECT_TRUE(s.complement_within(12, 18).empty());
  // Window outside all intervals: one gap.
  const auto outside = s.complement_within(100, 110);
  ASSERT_EQ(outside.size(), 1u);
  EXPECT_EQ(outside[0], (Interval{100, 110}));
  // Interval overlapping window start.
  const auto partial = s.complement_within(15, 35);
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial[0], (Interval{20, 30}));
}

TEST(IntervalSet, MergeSets) {
  IntervalSet a, b;
  a.add(0, 10);
  b.add(5, 20);
  b.add(40, 50);
  a.merge(b);
  EXPECT_EQ(a.total_length(), 20 + 10);
  ASSERT_EQ(a.intervals().size(), 2u);
}

TEST(IntervalSet, PropertyComplementPartitionsWindow) {
  // For random interval sets, covered + gaps == window length exactly.
  Xoshiro256ss rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet s;
    for (int i = 0; i < 20; ++i) {
      const SimTime lo = static_cast<SimTime>(rng.uniform_int(1000));
      s.add(lo, lo + static_cast<SimTime>(rng.uniform_int(80)));
    }
    const SimTime w0 = 100, w1 = 900;
    SimDuration gap_total = 0;
    for (const Interval& g : s.complement_within(w0, w1)) {
      gap_total += g.length();
      // Gaps must not intersect the set.
      IntervalSet gset;
      gset.add(g.lo, g.hi);
      EXPECT_EQ(s.intersection_length(gset), 0);
    }
    EXPECT_EQ(gap_total + s.clamped(w0, w1).total_length(), w1 - w0);
  }
}

TEST(IntervalSet, PropertyInclusionExclusion) {
  // |A| + |B| == |A ∪ B| + |A ∩ B| for random sets.
  Xoshiro256ss rng(78);
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet a, b;
    for (int i = 0; i < 10; ++i) {
      SimTime lo = static_cast<SimTime>(rng.uniform_int(500));
      a.add(lo, lo + static_cast<SimTime>(rng.uniform_int(60)));
      lo = static_cast<SimTime>(rng.uniform_int(500));
      b.add(lo, lo + static_cast<SimTime>(rng.uniform_int(60)));
    }
    IntervalSet u = a;
    u.merge(b);
    EXPECT_EQ(a.total_length() + b.total_length(),
              u.total_length() + a.intersection_length(b));
  }
}

/// The normalized form of `raw` by the textbook route: sort by lo, then
/// merge overlapping or touching neighbours into a fresh vector.
std::vector<Interval> sort_and_merge(std::vector<Interval> raw) {
  std::vector<Interval> kept;
  for (const Interval& iv : raw) {
    if (iv.hi > iv.lo) kept.push_back(iv);
  }
  std::sort(kept.begin(), kept.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> merged;
  for (const Interval& iv : kept) {
    if (!merged.empty() && iv.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

TEST(IntervalSet, PropertyMatchesSortAndMergeReference) {
  // One set reused across trials (cleared in between), fed each trial in
  // one of several shapes: in lo order, shuffled, nested, touching, or
  // with many equal lo values. Queried mid-fill too, so adds also land
  // on an already-normalized buffer.
  Xoshiro256ss rng(79);
  IntervalSet s;
  for (int trial = 0; trial < 500; ++trial) {
    s.clear();
    std::vector<Interval> raw;
    const int shape = trial % 5;
    const int count = static_cast<int>(rng.uniform_int(30));
    SimTime cursor = 0;
    for (int i = 0; i < count; ++i) {
      Interval iv;
      switch (shape) {
        case 0:  // in lo order, gaps and overlaps mixed
          cursor += static_cast<SimTime>(rng.uniform_int(20));
          iv = {cursor, cursor + static_cast<SimTime>(rng.uniform_int(40))};
          break;
        case 1:  // out of order
          iv.lo = static_cast<SimTime>(rng.uniform_int(400));
          iv.hi = iv.lo + static_cast<SimTime>(rng.uniform_int(40));
          break;
        case 2:  // nested inside one wide interval
          iv.lo = static_cast<SimTime>(100 + rng.uniform_int(200));
          iv.hi = iv.lo + static_cast<SimTime>(rng.uniform_int(100 - i % 50));
          if (i == 0) iv = {50, 400};
          break;
        case 3:  // touching: each starts where another ends
          iv.lo = static_cast<SimTime>(10 * rng.uniform_int(30));
          iv.hi = iv.lo + 10;
          break;
        default:  // equal lo, different hi (plus empty and inverted adds)
          iv.lo = static_cast<SimTime>(25 * rng.uniform_int(4));
          iv.hi = iv.lo + static_cast<SimTime>(rng.uniform_int(60)) - 5;
          break;
      }
      raw.push_back(iv);
      s.add(iv.lo, iv.hi);
      if (rng.uniform_int(7) == 0) {
        ASSERT_EQ(s.intervals(), sort_and_merge(raw)) << "trial " << trial;
      }
    }
    const std::vector<Interval> expected = sort_and_merge(raw);
    ASSERT_EQ(s.intervals(), expected) << "trial " << trial;
    SimDuration total = 0;
    for (const Interval& iv : expected) total += iv.length();
    EXPECT_EQ(s.total_length(), total);
    EXPECT_EQ(s.empty(), expected.empty());
  }
}

TEST(IntervalSet, AssignUnionMatchesMerge) {
  Xoshiro256ss rng(80);
  IntervalSet a, b, u;
  for (int trial = 0; trial < 200; ++trial) {
    a.clear();
    b.clear();
    for (int i = 0; i < 12; ++i) {
      SimTime lo = static_cast<SimTime>(rng.uniform_int(500));
      a.add(lo, lo + static_cast<SimTime>(rng.uniform_int(60)));
      lo = static_cast<SimTime>(rng.uniform_int(500));
      b.add(lo, lo + static_cast<SimTime>(rng.uniform_int(60)));
    }
    IntervalSet merged = a;
    merged.merge(b);
    u.assign_union(a, b);  // reused: replaces the previous trial's union
    EXPECT_EQ(u.intervals(), merged.intervals()) << "trial " << trial;
  }
}

TEST(IntervalSet, ClearKeepsTheBuffer) {
  // Refilling a cleared set with no more intervals than it held before
  // must reuse its storage: normalizing merges in place.
  IntervalSet s;
  for (SimTime t = 0; t < 64; ++t) s.add(20 * (64 - t), 20 * (64 - t) + 5);
  ASSERT_EQ(s.intervals().size(), 64u);
  const Interval* buffer = s.intervals().data();
  for (int round = 0; round < 3; ++round) {
    s.clear();
    for (SimTime t = 0; t < 40; ++t) s.add(30 * t, 30 * t + 40);  // overlaps
    s.add(5, 7);                                                 // out of order
    EXPECT_EQ(s.intervals().data(), buffer) << "round " << round;
    EXPECT_EQ(s.intervals().size(), 1u);
  }
}

}  // namespace
}  // namespace manet::util
