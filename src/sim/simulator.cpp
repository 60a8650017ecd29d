#include "sim/simulator.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace manet::sim {

EventId Simulator::at(SimTime t, EventFn fn) {
  if (t < now_) throw std::invalid_argument("cannot schedule in the past");
  return queue_.schedule(t, std::move(fn), now_);
}

EventId Simulator::at_key(const EventKey& key, EventFn fn) {
  if (key.time < now_ || !(progress_ < key)) {
    throw std::invalid_argument("cannot schedule before the dispatch point");
  }
  return queue_.schedule_at_key(key, std::move(fn));
}

std::uint64_t Simulator::loop(SimTime end) {
  std::uint64_t count = 0;
  while (!stopped_) {
    const SimTime t = queue_.next_time();
    if (t == kTimeNever || t > end) break;
    auto ev = queue_.pop();
    assert(ev.key.time >= now_ && "event queue yielded a past event");
    now_ = ev.key.time;
    if (progress_ < ev.key) progress_ = ev.key;
    ev.fn();
    ++count;
  }
  if (!stopped_) {
    // Nothing at or before `end` is left: an event scheduled from now on
    // at `end` itself still runs after everything counted as run.
    const EventKey done{end, std::numeric_limits<SimTime>::max(),
                        std::numeric_limits<std::uint64_t>::max()};
    if (progress_ < done) progress_ = done;
  }
  dispatched_ += count;
  return count;
}

std::uint64_t Simulator::run_until(SimTime end) {
  stopped_ = false;
  const std::uint64_t n = loop(end);
  if (!stopped_ && end > now_) now_ = end;
  return n;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  return loop(kTimeNever);
}

}  // namespace manet::sim
