// Pending-event set for the discrete-event kernel.
//
// A binary heap of small POD entries keyed by (time, scheduling instant,
// sequence number). The key makes dispatch order total and deterministic:
// events scheduled earlier run first among equal timestamps (FIFO), which is
// what protocol code expects. Scheduling instants never decrease as the
// sequence number grows, so the middle field never reorders anything that
// (time, seq) alone would order; it lets a caller insert an event "as of" an
// earlier instant (schedule_at_key) and still land exactly where an event
// scheduled back then would have (net/traffic.hpp's parked sources).
//
// Callables live outside the heap in a slot table (reused via a free list)
// so heap sift operations move 32-byte PODs, not closures, and the
// small-buffer EventFn keeps typical MAC timers off the allocator entirely.
// An EventId encodes (slot, generation); the generation is bumped whenever
// a slot is cancelled or dispatched, so stale ids can never alias a reused
// slot — cancel() and pending() are O(1) with no hash table.
//
// Cancellation is lazy: a cancelled entry stays in the heap and is skipped
// at pop time (detected by its stale generation). To bound memory under
// cancel-heavy back-off workloads, the heap is compacted in place whenever
// dead entries outnumber live ones, so heap size stays O(live events).
#pragma once

#include <cstdint>
#include <vector>

#include "util/small_function.hpp"
#include "util/types.hpp"

namespace manet::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// 48 bytes of inline storage covers every closure the simulator's hot
/// paths schedule (channel delivery fan-out, MAC timers); larger captures
/// fall back to one heap allocation, exactly like std::function always did.
using EventFn = util::SmallFunction<void(), 48>;

/// An event's position in dispatch order: earlier `time` first; at equal
/// times the event scheduled at the earlier instant; then schedule order.
struct EventKey {
  SimTime time = 0;
  SimTime scheduled_at = 0;
  std::uint64_t seq = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.scheduled_at != b.scheduled_at) return a.scheduled_at < b.scheduled_at;
    return a.seq < b.seq;
  }
};

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`; returns a cancellable id (never
  /// kInvalidEvent). `scheduled_at` is the caller's clock (the Simulator
  /// passes now()); it must not decrease from one call to the next.
  EventId schedule(SimTime t, EventFn fn, SimTime scheduled_at = 0) {
    return schedule_at_key(EventKey{t, scheduled_at, next_seq_++}, std::move(fn));
  }

  /// Schedules `fn` at an explicit key whose seq came from reserve_seq():
  /// the event dispatches exactly where one scheduled by schedule() at
  /// `key.scheduled_at`, at the moment the seq was reserved, would have.
  EventId schedule_at_key(const EventKey& key, EventFn fn);

  /// Consumes the sequence number the next schedule() would use.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Cancels a pending event. Cancelling an already-dispatched, already-
  /// cancelled, or invalid id is a harmless no-op.
  void cancel(EventId id);

  /// True if `id` is scheduled and not yet dispatched or cancelled.
  bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].generation == generation_of(id);
  }

  /// True if no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event; kTimeNever when empty.
  SimTime next_time();

  /// Removes and returns the earliest live event. Precondition: !empty().
  struct Dispatched {
    EventKey key;
    EventId id;
    EventFn fn;
  };
  Dispatched pop();

  /// Drops all pending events.
  void clear();

  /// Heap entries currently held, including lazily-cancelled (dead) ones.
  /// Compaction keeps this O(size()); exposed so tests can assert the
  /// bound under cancel-heavy workloads.
  std::size_t heap_entries() const { return heap_.size(); }

 private:
  // An id packs the slot index (low 32 bits) and the slot's generation at
  // issue time (high 32 bits). Generations start at 1, so no id is ever 0.
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  struct Entry {  // 32-byte POD moved by heap sifts
    EventKey key;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return b.key < a.key; }
  };

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;  // bumped on cancel/dispatch; odd history fine
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
