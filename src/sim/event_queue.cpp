#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace manet::sim {

EventQueue::EventQueue() : heads_(kBuckets, kNil), bucket_sizes_(kBuckets, 0) {}

EventId EventQueue::schedule_at_key(const EventKey& key, EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    fns_.emplace_back();
  }
  Node& n = nodes_[slot];
  n.key = key;
  fns_[slot] = std::move(fn);
  if (empty() || (min_slot_ != kNil && key < nodes_[min_slot_].key)) min_slot_ = slot;
  if (tick_of(key.time) < base_tick_) rebase(tick_of(key.time));
  if (!try_link(slot)) push_far(slot);
  return make_id(slot, n.generation);
}

bool EventQueue::try_link(std::uint32_t slot) {
  Node& n = nodes_[slot];
  const std::int64_t tick = tick_of(n.key.time);
  const auto b = static_cast<std::uint32_t>(tick & (kBuckets - 1));
  if (tick - base_tick_ >= kBuckets || bucket_sizes_[b] == kBucketCap) return false;
  ++bucket_sizes_[b];
  n.bucket = b;
  n.prev = kNil;
  n.next = heads_[b];
  if (n.next != kNil) {
    nodes_[n.next].prev = slot;
  } else {
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    occupied_words_ |= std::uint64_t{1} << (b >> 6);
  }
  heads_[b] = slot;
  ++wheel_size_;
  return true;
}

void EventQueue::unlink(std::uint32_t slot) {
  const Node& n = nodes_[slot];
  const std::uint32_t b = n.bucket;
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    heads_[b] = n.next;
    if (n.next == kNil) {
      occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      if (occupied_[b >> 6] == 0) occupied_words_ &= ~(std::uint64_t{1} << (b >> 6));
    }
  }
  if (n.next != kNil) nodes_[n.next].prev = n.prev;
  --bucket_sizes_[b];
  --wheel_size_;
}

void EventQueue::push_far(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.bucket = kInFar;
  far_.push_back(FarEntry{n.key, slot, n.generation});
  std::push_heap(far_.begin(), far_.end(), Later{});
  ++far_live_;
}

void EventQueue::pop_far() {
  std::pop_heap(far_.begin(), far_.end(), Later{});
  far_.pop_back();
}

void EventQueue::drop_dead_far_head() {
  while (!far_.empty() && !far_live(far_.front())) pop_far();
}

void EventQueue::compact_far_if_sparse() {
  // Lazily-cancelled entries must not accumulate: a source that schedules
  // and cancels far timers in a loop would otherwise grow the heap without
  // bound.
  if (far_.size() <= 64 || far_.size() <= 2 * far_live_) return;
  std::erase_if(far_, [this](const FarEntry& e) { return !far_live(e); });
  std::make_heap(far_.begin(), far_.end(), Later{});
}

void EventQueue::release_slot(std::uint32_t slot) {
  Node& n = nodes_[slot];
  fns_[slot].reset();
  n.bucket = kFree;
  ++n.generation;  // invalidates the issued id and any far-heap entry
  if (n.generation == 0) ++n.generation;  // ids are never generation 0
  free_slots_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  if (!pending(id)) return;
  const std::uint32_t slot = slot_of(id);
  if (slot == min_slot_) min_slot_ = kNil;
  if (nodes_[slot].bucket == kInFar) {
    --far_live_;
    release_slot(slot);
    compact_far_if_sparse();
  } else {
    unlink(slot);
    release_slot(slot);
  }
}

std::uint32_t EventQueue::next_occupied(std::uint32_t bucket) const {
  // First occupied bucket at or after `bucket`, wrapping around the wheel.
  // Precondition: the wheel holds at least one event.
  std::uint32_t w = bucket >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (bucket & 63));
  if (bits == 0) {
    std::uint64_t words = occupied_words_ & (~std::uint64_t{1} << w);
    if (words == 0) words = occupied_words_;  // wrap around
    w = static_cast<std::uint32_t>(std::countr_zero(words));
    bits = occupied_[w];
  }
  return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
}

std::uint32_t EventQueue::find_min() {
  std::uint32_t best = kNil;
  if (wheel_size_ > 0) {
    // The window holds one tick per bucket, so the first occupied bucket
    // from the window's start holds the wheel's earliest tick.
    const auto start = static_cast<std::uint32_t>(base_tick_ & (kBuckets - 1));
    best = heads_[next_occupied(start)];
    for (std::uint32_t s = nodes_[best].next; s != kNil; s = nodes_[s].next) {
      if (nodes_[s].key < nodes_[best].key) best = s;
    }
  }
  drop_dead_far_head();
  if (!far_.empty() && (best == kNil || far_.front().key < nodes_[best].key)) {
    best = far_.front().slot;
  }
  return best;
}

SimTime EventQueue::next_time() {
  if (empty()) return kTimeNever;
  if (min_slot_ == kNil) min_slot_ = find_min();
  return nodes_[min_slot_].key.time;
}

EventQueue::Dispatched EventQueue::pop() {
  assert(!empty() && "pop() on empty EventQueue");
  const std::uint32_t slot = min_slot_ != kNil ? min_slot_ : find_min();
  min_slot_ = kNil;
  const Node& n = nodes_[slot];
  if (n.bucket == kInFar) {
    drop_dead_far_head();
    assert(far_.front().slot == slot);
    pop_far();
    --far_live_;
  } else {
    unlink(slot);
  }
  Dispatched d{n.key, make_id(slot, n.generation), std::move(fns_[slot])};
  release_slot(slot);
  advance(tick_of(d.key.time));
  return d;
}

void EventQueue::advance(std::int64_t tick) {
  // Every live event is at or after the one just dispatched, so the window
  // may start at its tick; far events that now fall inside move in, in key
  // order, until one lies past the window or meets a full bucket.
  if (tick <= base_tick_) return;
  base_tick_ = tick;
  bool moved = false;
  while (!far_.empty()) {
    const FarEntry top = far_.front();
    if (far_live(top)) {
      if (!try_link(top.slot)) break;
      --far_live_;
      moved = true;
    }
    pop_far();
  }
  if (moved) compact_far_if_sparse();
}

void EventQueue::rebase(std::int64_t tick) {
  // Only a bare queue gets here (the Simulator never schedules before the
  // event it is dispatching): the window moves back to `tick`, and wheel
  // events that fall past its new end move to the far heap.
  base_tick_ = tick;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    for (std::uint32_t s = heads_[b]; s != kNil;) {
      const std::uint32_t next = nodes_[s].next;
      if (tick_of(nodes_[s].key.time) - base_tick_ >= kBuckets) {
        unlink(s);
        push_far(s);
      }
      s = next;
    }
  }
}

void EventQueue::clear() {
  // Ascending slot order, so the free list (and the ids issued next) does
  // not depend on where events sat.
  for (std::uint32_t slot = 0; slot < nodes_.size(); ++slot) {
    if (nodes_[slot].bucket != kFree) release_slot(slot);
  }
  std::fill(heads_.begin(), heads_.end(), kNil);
  std::fill(bucket_sizes_.begin(), bucket_sizes_.end(), 0);
  occupied_.fill(0);
  occupied_words_ = 0;
  far_.clear();
  far_live_ = 0;
  wheel_size_ = 0;
  min_slot_ = kNil;
}

}  // namespace manet::sim
