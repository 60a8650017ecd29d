// Half-open time-interval set with union/intersection/complement —
// the bookkeeping behind the monitor's observation-window accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace manet::util {

struct Interval {
  SimTime lo = 0;
  SimTime hi = 0;  // exclusive
  SimDuration length() const { return hi - lo; }
  bool operator==(const Interval&) const = default;
};

/// A set of half-open intervals, kept normalized (sorted, disjoint,
/// non-empty) lazily on query. Normalizing merges in place in the set's own
/// buffer and sorts only when an add arrived out of `lo` order, so a set
/// filled in time order costs one linear pass.
class IntervalSet {
 public:
  /// Adds [lo, hi); empty or inverted input is ignored.
  void add(SimTime lo, SimTime hi);

  /// Removes every interval but keeps the buffer's capacity, so one set can
  /// be reused across the monitor's per-window accounting without
  /// reallocating.
  void clear();

  bool empty() const;

  /// Sum of lengths of the (unioned) intervals.
  SimDuration total_length() const;

  /// Normalized intervals.
  const std::vector<Interval>& intervals() const;

  /// Restricts the set to [lo, hi).
  IntervalSet clamped(SimTime lo, SimTime hi) const;

  /// Restricts the set to [lo, hi) in place (no allocation).
  void clamp_to(SimTime lo, SimTime hi);

  /// Length of the intersection with `other`.
  SimDuration intersection_length(const IntervalSet& other) const;

  /// The gaps of this set within [lo, hi): maximal sub-intervals not
  /// covered by the set.
  std::vector<Interval> complement_within(SimTime lo, SimTime hi) const;

  /// complement_within into a caller-provided buffer (cleared first), so
  /// repeated window accounting reuses one allocation.
  void complement_within(SimTime lo, SimTime hi, std::vector<Interval>& out) const;

  /// Set union (mutating).
  void merge(const IntervalSet& other);

  /// Replaces the contents with a ∪ b by a linear merge of the two
  /// normalized sets (no sort), reusing this set's buffer.
  void assign_union(const IntervalSet& a, const IntervalSet& b);

 private:
  void normalize() const;

  mutable std::vector<Interval> items_;
  mutable bool normalized_ = true;
  mutable bool sorted_ = true;  // items_ ascending by lo
};

}  // namespace manet::util
