#include "util/intervals.hpp"

#include <algorithm>

namespace manet::util {

void IntervalSet::add(SimTime lo, SimTime hi) {
  if (hi <= lo) return;
  if (!items_.empty() && lo < items_.back().lo) sorted_ = false;
  items_.push_back(Interval{lo, hi});
  normalized_ = false;
}

void IntervalSet::clear() {
  items_.clear();
  normalized_ = true;
  sorted_ = true;
}

void IntervalSet::normalize() const {
  if (normalized_) return;
  if (!sorted_) {
    std::sort(items_.begin(), items_.end(),
              [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    sorted_ = true;
  }
  // Overlapping or touching neighbours fold into the last kept interval.
  std::size_t kept = 0;
  for (std::size_t i = 1; i < items_.size(); ++i) {
    if (items_[i].lo <= items_[kept].hi) {
      items_[kept].hi = std::max(items_[kept].hi, items_[i].hi);
    } else {
      items_[++kept] = items_[i];
    }
  }
  if (!items_.empty()) items_.resize(kept + 1);
  normalized_ = true;
}

bool IntervalSet::empty() const {
  normalize();
  return items_.empty();
}

SimDuration IntervalSet::total_length() const {
  normalize();
  SimDuration total = 0;
  for (const Interval& iv : items_) total += iv.length();
  return total;
}

const std::vector<Interval>& IntervalSet::intervals() const {
  normalize();
  return items_;
}

IntervalSet IntervalSet::clamped(SimTime lo, SimTime hi) const {
  normalize();
  IntervalSet out;
  for (const Interval& iv : items_) {
    out.add(std::max(iv.lo, lo), std::min(iv.hi, hi));
  }
  return out;
}

void IntervalSet::clamp_to(SimTime lo, SimTime hi) {
  normalize();
  // Clipping a normalized set keeps it sorted and disjoint; only emptied
  // intervals need removing.
  std::size_t out = 0;
  for (const Interval& iv : items_) {
    const SimTime a = std::max(iv.lo, lo);
    const SimTime b = std::min(iv.hi, hi);
    if (b > a) items_[out++] = Interval{a, b};
  }
  items_.resize(out);
}

SimDuration IntervalSet::intersection_length(const IntervalSet& other) const {
  normalize();
  other.normalize();
  SimDuration total = 0;
  std::size_t i = 0, j = 0;
  while (i < items_.size() && j < other.items_.size()) {
    const Interval& a = items_[i];
    const Interval& b = other.items_[j];
    const SimTime lo = std::max(a.lo, b.lo);
    const SimTime hi = std::min(a.hi, b.hi);
    if (hi > lo) total += hi - lo;
    if (a.hi < b.hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

std::vector<Interval> IntervalSet::complement_within(SimTime lo, SimTime hi) const {
  std::vector<Interval> gaps;
  complement_within(lo, hi, gaps);
  return gaps;
}

void IntervalSet::complement_within(SimTime lo, SimTime hi,
                                    std::vector<Interval>& out) const {
  normalize();
  out.clear();
  SimTime cursor = lo;
  for (const Interval& iv : items_) {
    if (iv.hi <= lo) continue;
    if (iv.lo >= hi) break;
    const SimTime start = std::max(iv.lo, lo);
    if (start > cursor) out.push_back(Interval{cursor, start});
    cursor = std::max(cursor, std::min(iv.hi, hi));
  }
  if (cursor < hi) out.push_back(Interval{cursor, hi});
}

void IntervalSet::merge(const IntervalSet& other) {
  other.normalize();
  for (const Interval& iv : other.items_) add(iv.lo, iv.hi);
}

void IntervalSet::assign_union(const IntervalSet& a, const IntervalSet& b) {
  a.normalize();
  b.normalize();
  clear();
  // Adding in lo order keeps sorted_, so normalizing is one merge pass.
  std::size_t i = 0, j = 0;
  while (i < a.items_.size() || j < b.items_.size()) {
    const bool take_a =
        j == b.items_.size() || (i < a.items_.size() && a.items_[i].lo <= b.items_[j].lo);
    const Interval& iv = take_a ? a.items_[i++] : b.items_[j++];
    add(iv.lo, iv.hi);
  }
}

}  // namespace manet::util
