// Pending-event set for the discrete-event kernel.
//
// Events dispatch in the total order of their key (time, scheduling
// instant, sequence number): events scheduled earlier run first among equal
// timestamps (FIFO), which is what protocol code expects. Scheduling
// instants never decrease as the sequence number grows, so the middle field
// never reorders anything that (time, seq) alone would order; it lets a
// caller insert an event "as of" an earlier instant (schedule_at_key) and
// still land exactly where an event scheduled back then would have
// (net/traffic.hpp's parked sources).
//
// The set is a hashed timer wheel: 4096 buckets of 2^14 ns (16.4 us, under
// the 20 us DCF slot), a 67 ms window that starts at the bucket of the last
// dispatched event and covers every MAC timer (CWmax is 20.5 ms). A bucket
// holds the events of exactly one 16.4 us tick as an intrusive doubly-linked
// list threaded through the slot table, so schedule and cancel are O(1)
// with no allocation. A two-level occupancy bitmap finds the next non-empty
// bucket, and a linear scan of that bucket takes the exact minimum key.
// The DCF cancels and re-arms its back-off finish event on every carrier
// edge; in the wheel such a cancel unlinks the event at once instead of
// leaving a dead entry for the dispatcher to pop.
//
// Events past the window (AODV discovery timeouts, slow traffic arrivals,
// outages), and those of a tick whose bucket already holds 32, wait in a
// binary heap with lazy cancellation: a cancelled entry stays until it
// surfaces or until dead entries outnumber live ones past a floor of 64,
// when the heap is compacted. They move into the wheel as the window
// advances and buckets drain; the earliest event is the earlier of the
// wheel's and the heap's. The minimum found by next_time() is remembered,
// so the pop() that follows (the Simulator's loop) does not search again.
//
// Callables live in the slot table, reused via a free list; the
// small-buffer EventFn keeps typical MAC timers off the allocator entirely.
// An EventId encodes (slot, generation); the generation is bumped whenever
// a slot is cancelled or dispatched, so stale ids can never alias a reused
// slot — cancel() and pending() are O(1) with no hash table.
#pragma once

#include <array>
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
  EventQueue();

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
    return slot < nodes_.size() && nodes_[slot].generation == generation_of(id);
  }

  /// True if no live (non-cancelled) events remain.
  bool empty() const { return size() == 0; }

  /// Number of live events.
  std::size_t size() const { return wheel_size_ + far_live_; }

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

  /// Entries currently held: every wheel event plus the far heap's
  /// entries, lazily-cancelled (dead) ones included. Compaction keeps this
  /// O(size()); exposed so tests can assert the bound under cancel-heavy
  /// workloads.
  std::size_t stored_entries() const { return wheel_size_ + far_.size(); }

 private:
  static constexpr int kTickBits = 14;    // one bucket spans 2^14 ns
  static constexpr int kWheelBits = 12;   // 4096 buckets
  static constexpr std::int64_t kBuckets = std::int64_t{1} << kWheelBits;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  // Events a bucket takes before the rest of its tick goes to the heap, so
  // a dense tick (thousands of events in 16.4 us) costs a heap's log n per
  // event instead of a scan of the whole bucket per pop.
  static constexpr std::uint8_t kBucketCap = 32;
  // Node::bucket values past the wheel's bucket indices.
  static constexpr auto kInFar = static_cast<std::uint32_t>(kBuckets);
  static constexpr std::uint32_t kFree = kInFar + 1;

  static std::int64_t tick_of(SimTime t) { return t >> kTickBits; }

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

  struct Node {  // one per slot; the callable lives beside it in fns_
    EventKey key;
    std::uint32_t generation = 1;  // bumped on cancel/dispatch; never 0
    std::uint32_t bucket = kFree;  // wheel bucket, kInFar or kFree
    std::uint32_t prev = kNil;     // bucket list links (wheel only)
    std::uint32_t next = kNil;
  };
  struct FarEntry {
    EventKey key;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const FarEntry& a, const FarEntry& b) const { return b.key < a.key; }
  };

  bool far_live(const FarEntry& e) const {
    return nodes_[e.slot].generation == e.generation;
  }
  bool try_link(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void push_far(std::uint32_t slot);
  void pop_far();
  void drop_dead_far_head();
  void compact_far_if_sparse();
  void release_slot(std::uint32_t slot);
  std::uint32_t next_occupied(std::uint32_t bucket) const;
  std::uint32_t find_min();
  void advance(std::int64_t tick);
  void rebase(std::int64_t tick);

  std::vector<Node> nodes_;
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> heads_;  // first slot of each bucket's list
  std::vector<std::uint8_t> bucket_sizes_;
  std::array<std::uint64_t, kBuckets / 64> occupied_{};  // bit per bucket
  std::uint64_t occupied_words_ = 0;  // bit per non-zero occupied_ word
  std::vector<FarEntry> far_;  // heap: past the window or over a bucket cap
  std::size_t far_live_ = 0;
  std::size_t wheel_size_ = 0;
  std::int64_t base_tick_ = 0;        // the window is [base, base + kBuckets)
  std::uint32_t min_slot_ = kNil;     // cached earliest event, kNil if unknown
  std::uint64_t next_seq_ = 0;
};

}  // namespace manet::sim
