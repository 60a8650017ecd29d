// The pre-wheel pending-event set (test-only oracle).
//
// EventQueue dispatches from a hashed timer wheel. This is the lazily-
// cancelled binary heap it replaced, kept as the differential oracle: the
// same slot/generation ids, the same (time, scheduled_at, seq) order, the
// same free-slot reuse. Cancelled entries stay in the heap until popped
// or until compaction (dead entries outnumbering live ones past a floor
// of 64) rebuilds it. One change from the original: clear() releases
// live slots in ascending slot order, the order EventQueue::clear() uses,
// so both queues hand out identical ids after a clear.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace manet::sim {

class ReferenceEventQueue {
 public:
  EventId schedule(SimTime t, EventFn fn, SimTime scheduled_at = 0) {
    return schedule_at_key(EventKey{t, scheduled_at, next_seq_++}, std::move(fn));
  }
  EventId schedule_at_key(const EventKey& key, EventFn fn);
  std::uint64_t reserve_seq() { return next_seq_++; }
  void cancel(EventId id);
  bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].generation == generation_of(id);
  }
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  SimTime next_time();
  EventQueue::Dispatched pop();
  void clear();
  std::size_t heap_entries() const { return heap_.size(); }

 private:
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  struct Entry {
    EventKey key;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return b.key < a.key; }
  };
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
  };

  bool entry_live(const Entry& e) const {
    return slots_[e.slot].generation == e.generation;
  }
  void release_slot(std::uint32_t slot);
  void drop_dead_head();
  void compact();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace manet::sim
