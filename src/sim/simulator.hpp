// The discrete-event simulator: a clock plus the pending-event set.
//
// Single-threaded by design; determinism (given seeds) is a core property
// the test suite asserts. Components hold a Simulator& and schedule
// callbacks; there is no global singleton, so tests can run many
// simulations side by side.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace manet::sim {

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules at an absolute time (must be >= now()).
  EventId at(SimTime t, EventFn fn);

  /// Schedules after a non-negative delay.
  EventId after(SimDuration d, EventFn fn) { return at(now_ + d, std::move(fn)); }

  /// Schedules at an explicit dispatch-order key (EventQueue::
  /// schedule_at_key); the key must lie after progress().
  EventId at_key(const EventKey& key, EventFn fn);

  /// Reserves the sequence number an event scheduled right now would get,
  /// for an event inserted later with at_key().
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// How far dispatch has got, as a key: every event ordered before it has
  /// run. While an event runs this is that event's key; once run_until()
  /// (or run()) returns without stop(), everything at or before the end
  /// time counts as run. Never moves backwards.
  const EventKey& progress() const { return progress_; }

  void cancel(EventId id) { queue_.cancel(id); }
  bool pending(EventId id) const { return queue_.pending(id); }

  /// Dispatches events with time <= `end`, then advances the clock to
  /// exactly `end`. Returns the number of events dispatched.
  std::uint64_t run_until(SimTime end);

  /// Dispatches until the event set is empty or stop() is called.
  std::uint64_t run();

  /// Makes run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t dispatched_events() const { return dispatched_; }

 private:
  std::uint64_t loop(SimTime end);

  EventQueue queue_;
  SimTime now_ = 0;
  EventKey progress_{0, std::numeric_limits<SimTime>::min(), 0};
  bool stopped_ = false;
  std::uint64_t dispatched_ = 0;
};

}  // namespace manet::sim
