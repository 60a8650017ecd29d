#include "phy/cs_timeline.hpp"

#include <algorithm>
#include <cassert>

namespace manet::phy {

void CsTimeline::follow(Radio& radio, SimTime now) {
  assert(transitions_.empty() && !current_busy_ && !in_outage_);
  if (radio.in_outage()) on_outage(true, now);
  if (radio.carrier_busy()) on_carrier(true, now);
  radio.add_listener(this);
}

void CsTimeline::on_carrier(bool busy, SimTime at) {
  assert(transitions_.empty() || at >= transitions_.back().at);
  if (busy == current_busy_) return;
  if (edge_observer_ != nullptr) edge_observer_->before_edge(at);
  if (current_busy_) cum_busy_ += at - last_edge_;
  last_edge_ = at;
  transitions_.push_back(Transition{at, busy});
  current_busy_ = busy;
  // Pruning is amortized: retention trimming is pure memory reclamation
  // (windowed queries never reach past it), so running it every 32nd edge
  // saves the deque walk on the busiest path in the simulator. The hard
  // budget still triggers immediately — retained size never exceeds the
  // configured cap.
  if (transitions_.size() >= max_transitions_ || (++prune_tick_ & 31u) == 0) {
    prune(at);
  }
}

void CsTimeline::prune(SimTime now) {
  const SimTime horizon = now - retention_;
  while (transitions_.size() > 1 && transitions_[1].at <= horizon) {
    initial_busy_ = transitions_.front().busy;
    transitions_.pop_front();
  }
  while (!outages_.empty() && outages_.front().stop <= horizon) {
    outages_.pop_front();
  }
  // Hard budgets: when age-based pruning alone can't keep the history under
  // the cap, compact by folding the oldest transitions into the initial
  // state, exactly as retention pruning does. Queries reaching back past
  // the compacted horizon see the folded state; everything younger stays
  // exact. Surfaced through budget_stats() so workloads that hit the caps
  // are visible rather than silently truncated.
  if (transitions_.size() > max_transitions_) {
    ++budget_stats_.compactions;
    do {
      initial_busy_ = transitions_.front().busy;
      transitions_.pop_front();
      ++budget_stats_.dropped_transitions;
    } while (transitions_.size() > max_transitions_);
  }
  while (outages_.size() > max_outages_) {
    outages_.pop_front();
    ++budget_stats_.dropped_outages;
  }
  // High-water marks after budget enforcement: what was actually retained,
  // never the one-edge transient the compaction just trimmed.
  budget_stats_.peak_transitions =
      std::max(budget_stats_.peak_transitions, transitions_.size());
  budget_stats_.peak_outages =
      std::max(budget_stats_.peak_outages, outages_.size());
}

void CsTimeline::on_outage(bool deaf, SimTime at) {
  if (deaf == in_outage_) return;
  if (edge_observer_ != nullptr) edge_observer_->before_edge(at);
  if (deaf) {
    outage_start_ = at;
  } else if (at > outage_start_) {
    outages_.push_back(OutageSpan{outage_start_, at});
  }
  in_outage_ = deaf;
  if (outages_.size() >= max_outages_ || (++prune_tick_ & 31u) == 0) {
    prune(at);
  }
}

SimDuration CsTimeline::outage_time(SimTime from, SimTime to) const {
  assert(from <= to);
  SimDuration total = 0;
  // Completed spans are disjoint and sorted; skip everything that ended at
  // or before `from` instead of scanning the whole retained history.
  auto it = std::lower_bound(
      outages_.begin(), outages_.end(), from,
      [](const OutageSpan& o, SimTime v) { return o.stop <= v; });
  for (; it != outages_.end() && it->start < to; ++it) {
    const SimTime lo = std::max(from, it->start);
    const SimTime hi = std::min(to, it->stop);
    if (hi > lo) total += hi - lo;
  }
  if (in_outage_) {
    const SimTime lo = std::max(from, outage_start_);
    if (to > lo) total += to - lo;
  }
  return total;
}

SimDuration CsTimeline::cumulative_busy(SimTime at) const {
  assert(at >= last_edge_);
  return cum_busy_ + (current_busy_ ? at - last_edge_ : 0);
}

SimDuration CsTimeline::busy_time(SimTime from, SimTime to) const {
  assert(from <= to);
  if (from == to) return 0;
  SimDuration busy = 0;
  for_each_segment(from, to, [&](SimTime a, SimTime b, bool state) {
    if (state) busy += b - a;
  });
  return busy;
}

SlotCounts CsTimeline::count_slots(SimTime from, SimTime to, SimDuration slot) const {
  assert(slot > 0);
  SlotCounts counts;
  if (from + slot > to) return counts;

  // One merged walk: the transition iterator advances monotonically across
  // all slots, so a window costs O(log T + transitions + slots) instead of
  // one binary search plus scan per slot.
  auto it = std::upper_bound(
      transitions_.begin(), transitions_.end(), from,
      [](SimTime v, const Transition& tr) { return v < tr.at; });
  bool state = it == transitions_.begin() ? initial_busy_ : std::prev(it)->busy;

  bool prev_slot_idle = false;
  for (SimTime t = from; t + slot <= to; t += slot) {
    const SimTime slot_end = t + slot;
    // A slot is busy iff some positive-length busy span intersects it —
    // the same predicate as busy_time(t, slot_end) > 0.
    bool slot_busy = false;
    SimTime cursor = t;
    for (; it != transitions_.end() && it->at < slot_end; ++it) {
      if (state && it->at > cursor) slot_busy = true;
      cursor = it->at;
      state = it->busy;
    }
    if (state && slot_end > cursor) slot_busy = true;

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

std::vector<std::pair<SimTime, SimTime>> CsTimeline::busy_intervals(
    SimTime from, SimTime to) const {
  std::vector<std::pair<SimTime, SimTime>> out;
  busy_intervals_into(from, to, out);
  return out;
}

void CsTimeline::busy_intervals_into(
    SimTime from, SimTime to, std::vector<std::pair<SimTime, SimTime>>& out) const {
  out.clear();
  for_each_segment(from, to, [&](SimTime a, SimTime b, bool state) {
    if (state && b > a) out.emplace_back(a, b);
  });
}

SimDuration CsTimeline::countable_idle_time(SimTime from, SimTime to,
                                            SimDuration difs) const {
  assert(from <= to);
  SimDuration countable = 0;
  for_each_segment(from, to, [&](SimTime a, SimTime b, bool state) {
    if (!state && b - a > difs) countable += b - a - difs;
  });
  return countable;
}

double CsTimeline::busy_fraction(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  return static_cast<double>(busy_time(from, to)) / static_cast<double>(to - from);
}

CsTimelineSnapshot CsTimeline::snapshot() const {
  CsTimelineSnapshot snap;
  snap.retention = retention_;
  snap.initial_busy = initial_busy_;
  snap.current_busy = current_busy_;
  snap.in_outage = in_outage_;
  snap.last_edge = last_edge_;
  snap.outage_start = outage_start_;
  snap.cum_busy = cum_busy_;
  snap.transitions.reserve(transitions_.size());
  for (const Transition& tr : transitions_) {
    snap.transitions.emplace_back(tr.at, tr.busy);
  }
  snap.outages.reserve(outages_.size());
  for (const OutageSpan& o : outages_) snap.outages.emplace_back(o.start, o.stop);
  return snap;
}

void CsTimeline::restore(const CsTimelineSnapshot& snap) {
  retention_ = snap.retention;
  initial_busy_ = snap.initial_busy;
  current_busy_ = snap.current_busy;
  in_outage_ = snap.in_outage;
  last_edge_ = snap.last_edge;
  outage_start_ = snap.outage_start;
  cum_busy_ = snap.cum_busy;
  transitions_.clear();
  for (const auto& [at, busy] : snap.transitions) {
    transitions_.push_back(Transition{at, busy});
  }
  outages_.clear();
  for (const auto& [start, stop] : snap.outages) {
    outages_.push_back(OutageSpan{start, stop});
  }
}

}  // namespace manet::phy
