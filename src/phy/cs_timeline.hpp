// Carrier-sense timeline: the record of busy/idle transitions one node's
// radio perceives, with slot-accounting queries.
//
// This is the monitor's raw material: the paper's monitor counts the idle
// (I) and busy (B) slots it observes between two transmissions of the
// tagged neighbor, and the ARMA filter consumes per-window busy fractions.
// History older than `retention` is pruned so memory stays bounded over
// 300 s runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "phy/radio.hpp"
#include "util/types.hpp"

namespace manet::phy {

/// Full internal state of a CsTimeline, for exact capture/restore. The
/// trace recorder (src/detect/trace.hpp) snapshots a node's timeline at
/// monitor-attach time so a replayed run continues from the identical
/// carrier state (busy or idle, deaf or not, cumulative busy time) and
/// retained history.
struct CsTimelineSnapshot {
  SimDuration retention = 0;
  bool initial_busy = false;
  bool current_busy = false;
  bool in_outage = false;
  SimTime last_edge = 0;
  SimTime outage_start = 0;
  SimDuration cum_busy = 0;
  std::vector<std::pair<SimTime, bool>> transitions;      // (at, busy)
  std::vector<std::pair<SimTime, SimTime>> outages;       // completed spans

  bool operator==(const CsTimelineSnapshot&) const = default;
};

struct SlotCounts {
  std::int64_t idle = 0;
  std::int64_t busy = 0;
  /// Number of distinct idle periods in the window (each one costs the
  /// counting station a DIFS of deferral before countdown resumes).
  std::int64_t idle_periods = 0;

  std::int64_t total() const { return idle + busy; }
};

/// Told about every carrier or outage edge that changes a timeline's state,
/// before the timeline records or prunes anything: at that instant the
/// timeline still holds exactly the history of every time before `at`.
class CsEdgeObserver {
 public:
  virtual void before_edge(SimTime at) = 0;

 protected:
  ~CsEdgeObserver() = default;
};

class CsTimeline : public RadioListener {
 public:
  /// Default hard caps. 2^18 transitions x 16 B = 4 MiB/node worst case —
  /// far above what any 10 s retention window accumulates at paper loads,
  /// so the caps are pure insurance; scale scenarios lower them explicitly
  /// (see ScenarioConfig::timeline_max_transitions).
  static constexpr std::size_t kDefaultMaxTransitions = std::size_t{1} << 18;
  static constexpr std::size_t kDefaultMaxOutages = std::size_t{1} << 12;

  /// Counters surfaced so memory-ceiling tests (and cache-stats readouts)
  /// can assert the budgets actually bound retention.
  struct BudgetStats {
    std::uint64_t compactions = 0;           // budget-forced fold-ins
    std::uint64_t dropped_transitions = 0;   // transitions folded by budget
    std::uint64_t dropped_outages = 0;       // outage spans dropped by budget
    std::size_t peak_transitions = 0;        // high-water retained count
    std::size_t peak_outages = 0;
  };

  explicit CsTimeline(SimDuration retention = 10 * kSecond,
                      std::size_t max_transitions = kDefaultMaxTransitions,
                      std::size_t max_outages = kDefaultMaxOutages)
      : retention_(retention),
        max_transitions_(std::max<std::size_t>(max_transitions, 2)),
        max_outages_(std::max<std::size_t>(max_outages, 1)) {}

  /// Starts this fresh timeline recording `radio` at `now` and registers
  /// it as the radio's listener. A busy or deaf radio starts the timeline
  /// in that state at `now`, as if it had seen that edge; history before
  /// `now` reads as idle air. (A timeline attached with
  /// radio.add_listener(&timeline) before t=0 starts idle at time 0.)
  void follow(Radio& radio, SimTime now);

  // RadioListener:
  void on_carrier(bool busy, SimTime at) override;
  void on_receive(const Signal&) override {}
  void on_receive_error(const Signal&) override {}
  void on_transmit_end(std::uint64_t) override {}
  void on_outage(bool deaf, SimTime at) override;

  bool busy_at_end() const { return current_busy_; }

  /// The one before-edge observer (see CsEdgeObserver). Throws
  /// std::logic_error when another observer is already registered.
  void set_edge_observer(CsEdgeObserver* observer) {
    if (edge_observer_ != nullptr && edge_observer_ != observer) {
      throw std::logic_error("CsTimeline: edge observer already registered");
    }
    edge_observer_ = observer;
  }
  /// Unregisters `observer` if it is the registered one.
  void clear_edge_observer(const CsEdgeObserver* observer) noexcept {
    if (edge_observer_ == observer) edge_observer_ = nullptr;
  }

  /// Time within [from, to] the radio was deaf (fault-injected outage).
  /// The recorded timeline shows idle air during an outage; monitors use
  /// this query to discard observation windows that overlap one instead of
  /// mistaking deafness for countable idle time.
  SimDuration outage_time(SimTime from, SimTime to) const;

  bool in_outage() const { return in_outage_; }

  /// Busy time within [from, to] given the recorded transitions. `to` must
  /// not precede `from`; times beyond the last transition extend the
  /// current state.
  SimDuration busy_time(SimTime from, SimTime to) const;

  /// Classifies the window [from, to] into whole slots of length `slot`:
  /// a slot is busy if the channel was busy at any point inside it
  /// (conservative, matching how a station's countdown actually freezes).
  SlotCounts count_slots(SimTime from, SimTime to, SimDuration slot) const;

  /// Busy fraction of [from, to] (0 if empty window).
  double busy_fraction(SimTime from, SimTime to) const;

  /// Maximal busy intervals intersected with [from, to].
  std::vector<std::pair<SimTime, SimTime>> busy_intervals(SimTime from,
                                                          SimTime to) const;

  /// Allocation-free variant: clears and refills `out` (capacity is kept
  /// across calls) with the same intervals busy_intervals returns.
  void busy_intervals_into(SimTime from, SimTime to,
                           std::vector<std::pair<SimTime, SimTime>>& out) const;

  /// Cumulative busy time since t=0 up to `at` (which must be >= the last
  /// recorded transition). Unlike the windowed queries this survives
  /// pruning, so long-horizon busy fractions (a whole run's traffic
  /// intensity) stay exact: fraction = (cum(b) - cum(a)) / (b - a).
  SimDuration cumulative_busy(SimTime at) const;

  /// Total idle time within [from, to] that a deferring station could have
  /// spent counting down: each maximal idle period inside the window is
  /// charged one DIFS of deferral (802.11 resumes countdown only after the
  /// medium has been idle for DIFS). This is the monitor's denominator for
  /// converting observed idle time into candidate back-off slots.
  SimDuration countable_idle_time(SimTime from, SimTime to, SimDuration difs) const;

  std::size_t recorded_transitions() const { return transitions_.size(); }
  SimDuration retention() const { return retention_; }

  const BudgetStats& budget_stats() const { return budget_stats_; }
  std::size_t max_transitions() const { return max_transitions_; }

  /// Bytes retained by the transition and outage histories (the per-node
  /// quantity the memory-ceiling test bounds).
  std::size_t retained_memory_bytes() const {
    return transitions_.size() * sizeof(Transition) +
           outages_.size() * sizeof(OutageSpan);
  }

  /// Exact state capture / restore (see CsTimelineSnapshot). restore()
  /// replaces every field, including the retention horizon.
  CsTimelineSnapshot snapshot() const;
  void restore(const CsTimelineSnapshot& snap);

 private:
  void prune(SimTime now);

  /// One merged walk over the retained transitions: invokes
  /// `segment(seg_start, seg_end, busy)` for every maximal constant-state
  /// span intersected with [from, to], in order. All windowed queries share
  /// this cursor-based sweep (one upper_bound, then a linear scan), so each
  /// costs O(log T + transitions inside the window).
  template <class SegmentFn>
  void for_each_segment(SimTime from, SimTime to, SegmentFn&& segment) const {
    SimTime cursor = from;
    auto it = std::upper_bound(
        transitions_.begin(), transitions_.end(), from,
        [](SimTime v, const Transition& tr) { return v < tr.at; });
    bool state = it == transitions_.begin() ? initial_busy_ : std::prev(it)->busy;
    for (; it != transitions_.end() && it->at < to; ++it) {
      segment(cursor, it->at, state);
      cursor = it->at;
      state = it->busy;
    }
    segment(cursor, to, state);
  }

  struct Transition {
    SimTime at;
    bool busy;  // state from `at` onward
  };

  SimDuration retention_;
  CsEdgeObserver* edge_observer_ = nullptr;
  std::size_t max_transitions_ = kDefaultMaxTransitions;
  std::size_t max_outages_ = kDefaultMaxOutages;
  std::uint32_t prune_tick_ = 0;  // amortizes retention pruning (every 32 edges)
  BudgetStats budget_stats_;
  std::deque<Transition> transitions_;  // sorted by time
  bool current_busy_ = false;
  bool initial_busy_ = false;  // state before the first retained transition
  SimTime last_edge_ = 0;      // time of the most recent transition
  SimDuration cum_busy_ = 0;   // busy time accumulated before last_edge_

  struct OutageSpan {
    SimTime start;
    SimTime stop;
  };
  std::deque<OutageSpan> outages_;  // completed spans, sorted, pruned by age
  bool in_outage_ = false;
  SimTime outage_start_ = 0;
};

}  // namespace manet::phy
