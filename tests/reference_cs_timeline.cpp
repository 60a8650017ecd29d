#include "reference_cs_timeline.hpp"

#include <algorithm>
#include <cassert>

namespace manet::phy {

namespace {

using TransitionIt =
    std::vector<std::pair<SimTime, bool>>::const_iterator;

/// First retained transition strictly after `t`.
TransitionIt first_after(const CsTimelineSnapshot& tl, SimTime t) {
  return std::upper_bound(
      tl.transitions.begin(), tl.transitions.end(), t,
      [](SimTime v, const std::pair<SimTime, bool>& tr) { return v < tr.first; });
}

/// Channel state at absolute time t (assumes t >= earliest retained).
bool busy_at(const CsTimelineSnapshot& tl, SimTime t) {
  const auto it = first_after(tl, t);
  if (it == tl.transitions.begin()) return tl.initial_busy;
  return std::prev(it)->second;
}

}  // namespace

SimDuration busy_time_reference(const CsTimelineSnapshot& tl, SimTime from,
                                SimTime to) {
  assert(from <= to);
  if (from == to) return 0;

  SimDuration busy = 0;
  SimTime cursor = from;
  bool state = busy_at(tl, from);

  for (auto it = first_after(tl, from);
       it != tl.transitions.end() && it->first < to; ++it) {
    if (state) busy += it->first - cursor;
    cursor = it->first;
    state = it->second;
  }
  if (state) busy += to - cursor;
  return busy;
}

SlotCounts count_slots_reference(const CsTimelineSnapshot& tl, SimTime from,
                                 SimTime to, SimDuration slot) {
  assert(slot > 0);
  SlotCounts counts;
  bool prev_slot_idle = false;
  for (SimTime t = from; t + slot <= to; t += slot) {
    const bool slot_busy = busy_time_reference(tl, t, t + slot) > 0;
    if (slot_busy) {
      ++counts.busy;
      prev_slot_idle = false;
    } else {
      ++counts.idle;
      if (!prev_slot_idle) ++counts.idle_periods;
      prev_slot_idle = true;
    }
  }
  return counts;
}

SimDuration countable_idle_time_reference(const CsTimelineSnapshot& tl,
                                          SimTime from, SimTime to,
                                          SimDuration difs) {
  assert(from <= to);
  SimDuration countable = 0;
  SimTime cursor = from;
  bool state = busy_at(tl, from);

  auto close_idle_period = [&](SimTime end_at) {
    const SimDuration len = end_at - cursor;
    if (!state && len > difs) countable += len - difs;
  };

  for (auto it = first_after(tl, from);
       it != tl.transitions.end() && it->first < to; ++it) {
    close_idle_period(it->first);
    cursor = it->first;
    state = it->second;
  }
  close_idle_period(to);
  return countable;
}

SimDuration outage_time_reference(const CsTimelineSnapshot& tl, SimTime from,
                                  SimTime to) {
  assert(from <= to);
  SimDuration total = 0;
  for (const auto& [start, stop] : tl.outages) {
    const SimTime lo = std::max(from, start);
    const SimTime hi = std::min(to, stop);
    if (hi > lo) total += hi - lo;
  }
  if (tl.in_outage) {
    const SimTime lo = std::max(from, tl.outage_start);
    if (to > lo) total += to - lo;
  }
  return total;
}

}  // namespace manet::phy
