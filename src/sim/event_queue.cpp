#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace manet::sim {

EventId EventQueue::schedule_at_key(const EventKey& key, EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{key, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return make_id(slot, s.generation);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.generation;            // invalidates the issued id and its heap entry
  if (s.generation == 0) ++s.generation;  // ids are never generation 0
  free_slots_.push_back(slot);
  --live_;
}

void EventQueue::cancel(EventId id) {
  if (!pending(id)) return;
  release_slot(slot_of(id));
  // Lazily-cancelled entries must not accumulate: a MAC that schedules and
  // cancels timers in a loop would otherwise grow the heap without bound.
  if (heap_.size() > 64 && heap_.size() > 2 * live_) compact();
}

void EventQueue::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !entry_live(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::drop_dead_head() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() {
  drop_dead_head();
  return heap_.empty() ? kTimeNever : heap_.front().key.time;
}

EventQueue::Dispatched EventQueue::pop() {
  drop_dead_head();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  Dispatched d{e.key, make_id(e.slot, e.generation), std::move(slots_[e.slot].fn)};
  release_slot(e.slot);
  return d;
}

void EventQueue::clear() {
  for (const Entry& e : heap_) {
    if (entry_live(e)) release_slot(e.slot);
  }
  heap_.clear();
  assert(live_ == 0);
}

}  // namespace manet::sim
