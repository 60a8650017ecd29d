#include "reference_event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace manet::sim {

EventId ReferenceEventQueue::schedule_at_key(const EventKey& key, EventFn fn) {
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

void ReferenceEventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.generation;
  if (s.generation == 0) ++s.generation;
  free_slots_.push_back(slot);
  --live_;
}

void ReferenceEventQueue::cancel(EventId id) {
  if (!pending(id)) return;
  release_slot(slot_of(id));
  if (heap_.size() > 64 && heap_.size() > 2 * live_) compact();
}

void ReferenceEventQueue::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !entry_live(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void ReferenceEventQueue::drop_dead_head() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime ReferenceEventQueue::next_time() {
  drop_dead_head();
  return heap_.empty() ? kTimeNever : heap_.front().key.time;
}

EventQueue::Dispatched ReferenceEventQueue::pop() {
  drop_dead_head();
  assert(!heap_.empty() && "pop() on empty ReferenceEventQueue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  EventQueue::Dispatched d{e.key, make_id(e.slot, e.generation),
                           std::move(slots_[e.slot].fn)};
  release_slot(e.slot);
  return d;
}

void ReferenceEventQueue::clear() {
  std::vector<std::uint32_t> live;
  for (const Entry& e : heap_) {
    if (entry_live(e)) live.push_back(e.slot);
  }
  std::sort(live.begin(), live.end());
  for (const std::uint32_t slot : live) release_slot(slot);
  heap_.clear();
  assert(live_ == 0);
}

}  // namespace manet::sim
