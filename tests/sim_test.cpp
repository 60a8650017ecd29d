#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace manet::sim {
namespace {

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule(5, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsDispatch) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(10, [&] { fired = true; });
  q.schedule(20, [] {});
  EXPECT_TRUE(q.pending(id));
  q.cancel(id);
  EXPECT_FALSE(q.pending(id));
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeOnBogusIds) {
  EventQueue q;
  const EventId id = q.schedule(1, [] {});
  q.cancel(id);
  q.cancel(id);              // double cancel
  q.cancel(kInvalidEvent);   // invalid
  q.cancel(99999);           // never issued
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, CancelAfterDispatchIsNoOp) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.pop().fn();   // dispatches a
  q.cancel(a);    // must not disturb the remaining event
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 2);
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(5, [] {});
  q.schedule(6, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SlotReuseInvalidatesStaleIds) {
  EventQueue q;
  const EventId a = q.schedule(10, [] {});
  q.cancel(a);
  const EventId b = q.schedule(11, [] {});  // may reuse a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.pending(a));
  EXPECT_TRUE(q.pending(b));
  q.cancel(a);  // the stale id must not kill the reused slot
  EXPECT_TRUE(q.pending(b));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, b);
}

TEST(EventQueue, HeapStaysBoundedWhenCancelsDominate) {
  // The MAC's back-off pattern: a standing population of timers where
  // nearly every scheduled event is cancelled and replaced before firing.
  // Lazy cancellation must not let dead heap entries accumulate. Timers
  // from t = 0 sit in the wheel (eager cancel); timers from 1 s lie past
  // its window, in the far heap with lazy cancels (AODV's 250 ms
  // discovery timeouts).
  for (const SimTime start : {SimTime{0}, kSecond}) {
    EventQueue q;
    manet::util::Xoshiro256ss rng(99);
    std::vector<EventId> live(64, kInvalidEvent);
    SimTime t = start;
    for (auto& id : live) id = q.schedule(++t, [] {});
    for (int i = 0; i < 100000; ++i) {
      const std::size_t k = rng.uniform_int(live.size());
      q.cancel(live[k]);
      live[k] = q.schedule(++t, [] {});
    }
    EXPECT_EQ(q.size(), live.size());
    // Compaction keeps dead entries at most on par with live ones (modulo
    // the small-heap threshold below which compaction never bothers).
    EXPECT_LE(q.stored_entries(), 2 * q.size() + 64);
    // And exactly the live set dispatches, in time order.
    std::size_t popped = 0;
    SimTime prev = start;
    while (!q.empty()) {
      const auto d = q.pop();
      EXPECT_GT(d.key.time, prev);
      prev = d.key.time;
      ++popped;
    }
    EXPECT_EQ(popped, live.size());
  }
}

TEST(EventQueue, SchedulingInstantKeyKeepsTimeSeqOrder) {
  // The event queue orders by (time, scheduled_at, seq). With scheduled_at
  // taken from a clock that never decreases (the Simulator's now()), random
  // schedule/cancel/pop sequences must dispatch in plain (time, seq) order.
  util::Xoshiro256ss rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    EventQueue q;
    std::map<std::pair<SimTime, std::uint64_t>, int> reference;  // (time, seq)
    std::vector<std::pair<EventId, std::pair<SimTime, std::uint64_t>>> live;
    std::vector<int> got;
    std::vector<int> want;
    SimTime clock = 0;
    std::uint64_t seq = 0;
    const auto pop_one = [&] {
      auto d = q.pop();
      clock = d.key.time;
      d.fn();
      want.push_back(reference.begin()->second);
      reference.erase(reference.begin());
      std::erase_if(live, [&](const auto& e) { return e.first == d.id; });
    };
    for (int op = 0; op < 1500; ++op) {
      const std::uint64_t r = rng.uniform_int(10);
      if (r < 6) {
        // Few distinct offsets: many equal times with different instants.
        const SimTime t = clock + static_cast<SimTime>(rng.uniform_int(4)) * 10;
        const std::pair<SimTime, std::uint64_t> key{t, seq++};
        live.emplace_back(q.schedule(t, [&got, op] { got.push_back(op); }, clock), key);
        reference[key] = op;
      } else if (r < 8 && !live.empty()) {
        const std::size_t i = rng.uniform_int(live.size());
        q.cancel(live[i].first);
        reference.erase(live[i].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (!q.empty()) {
        pop_one();
      }
    }
    while (!q.empty()) pop_one();
    ASSERT_EQ(got, want);
    EXPECT_TRUE(reference.empty());
  }
}

// The wheel against the binary heap it replaced (tests/reference_event_
// queue.*): random operation sequences must give both queues identical
// ids, sizes, next times and (key, id) dispatch streams. Each trial draws
// its own mix of event times, so some trials crowd one 16.4 us bucket past
// its cap, some spread over the 67 ms window, some mostly past it (the far
// heap, its lazy cancels and compaction, and migration into the wheel),
// some at the window's end, some near kTimeNever, and some schedule behind
// the last pop, which moves the wheel's window back.
TEST(EventQueueDifferential, MatchesReferenceHeapOnRandomSequences) {
  constexpr SimTime kBucket = SimTime{1} << 14;
  constexpr SimTime kWindow = kBucket << 12;
  util::Xoshiro256ss rng(20251020);
  for (int trial = 0; trial < 120; ++trial) {
    EventQueue q;
    ReferenceEventQueue ref;
    std::vector<EventId> issued;
    std::vector<std::uint64_t> reserved;
    std::vector<SimTime> times;  // earlier event times, for exact ties
    std::vector<std::pair<EventKey, EventId>> got;
    std::vector<std::pair<EventKey, EventId>> want;
    SimTime clock = static_cast<SimTime>(rng.uniform_int(1u << 30));
    int fired_q = -1;
    int fired_ref = -1;
    // Per-trial weights of the eight time shapes below.
    std::vector<std::uint64_t> weight(8);
    for (auto& w : weight) w = rng.uniform_int(4);
    weight[1] += 1;  // never all zero
    std::uint64_t total = 0;
    for (const auto w : weight) total += w;

    const auto later = [&](SimTime d) {  // clock + d, saturated at kTimeNever
      return d > kTimeNever - clock ? kTimeNever : clock + d;
    };
    const auto draw_time = [&]() -> SimTime {
      std::uint64_t r = rng.uniform_int(total);
      int shape = 0;
      while (r >= weight[static_cast<std::size_t>(shape)]) {
        r -= weight[static_cast<std::size_t>(shape)];
        ++shape;
      }
      switch (shape) {
        case 0:  // an exact tie with an earlier time
          if (!times.empty()) return times[rng.uniform_int(times.size())];
          return clock;
        case 1:  // within the current bucket's reach
          return later(static_cast<SimTime>(rng.uniform_int(kBucket)));
        case 2:  // across many buckets of the window
          return later(static_cast<SimTime>(rng.uniform_int(kWindow)));
        case 3:  // past the window's end
          return later(kWindow + static_cast<SimTime>(rng.uniform_int(16 * kWindow)));
        case 4:  // close to kTimeNever (kTimeNever itself included)
          return kTimeNever - static_cast<SimTime>(rng.uniform_int(4 * kWindow));
        case 5:  // behind the last pop, possibly by more than a window
          return clock - static_cast<SimTime>(rng.uniform_int(2 * kWindow));
        case 6:  // the current tick or the next: crowds a bucket past the
                 // 32 events it takes, and the rest of the tick overflows
                 // to the heap
          return later((clock / kBucket + static_cast<SimTime>(rng.uniform_int(2))) *
                           kBucket -
                       clock + static_cast<SimTime>(rng.uniform_int(kBucket)));
        default:  // the buckets around the window's end
          return later(((clock / kBucket + 4094 +
                         static_cast<SimTime>(rng.uniform_int(4))) * kBucket) -
                       clock + static_cast<SimTime>(rng.uniform_int(kBucket)));
      }
    };
    const auto schedule = [&](int op) {
      const SimTime t = draw_time();
      times.push_back(t);
      EventId a;
      EventId b;
      if (!reserved.empty() && rng.uniform_int(4) == 0) {
        // A key "as of" an earlier instant, with a seq reserved earlier.
        const std::size_t i = rng.uniform_int(reserved.size());
        const EventKey key{t, clock - static_cast<SimTime>(rng.uniform_int(kWindow)),
                           reserved[i]};
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(i));
        a = q.schedule_at_key(key, [&fired_q, op] { fired_q = op; });
        b = ref.schedule_at_key(key, [&fired_ref, op] { fired_ref = op; });
      } else {
        const SimTime at = clock - static_cast<SimTime>(rng.uniform_int(3));
        a = q.schedule(t, [&fired_q, op] { fired_q = op; }, at);
        b = ref.schedule(t, [&fired_ref, op] { fired_ref = op; }, at);
      }
      ASSERT_EQ(a, b);
      issued.push_back(a);
    };
    const auto pop_one = [&] {
      auto d = q.pop();
      auto e = ref.pop();
      d.fn();
      e.fn();
      ASSERT_EQ(fired_q, fired_ref);
      got.emplace_back(d.key, d.id);
      want.emplace_back(e.key, e.id);
      clock = d.key.time;
    };

    for (int op = 0; op < 2500; ++op) {
      const std::uint64_t r = rng.uniform_int(100);
      if (r < 40) {
        schedule(op);
      } else if (r < 45) {
        const std::uint64_t s = q.reserve_seq();
        ASSERT_EQ(s, ref.reserve_seq());
        reserved.push_back(s);
      } else if (r < 70 && !issued.empty()) {
        // Mostly recent ids (live ones), sometimes any id ever issued.
        const std::size_t n = issued.size();
        const std::size_t i = rng.uniform_int(2) == 0
                                  ? n - 1 - rng.uniform_int(std::min<std::size_t>(n, 8))
                                  : rng.uniform_int(n);
        ASSERT_EQ(q.pending(issued[i]), ref.pending(issued[i]));
        q.cancel(issued[i]);
        ref.cancel(issued[i]);
      } else if (r < 78) {
        ASSERT_EQ(q.next_time(), ref.next_time());
      } else if (r < 99) {
        if (!q.empty()) pop_one();
      } else if (rng.uniform_int(8) == 0) {
        q.clear();
        ref.clear();
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_LE(q.stored_entries(), 2 * q.size() + 64);
    }
    while (!q.empty()) pop_one();
    ASSERT_TRUE(ref.empty());
    ASSERT_EQ(q.next_time(), kTimeNever);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].second, want[i].second) << "trial " << trial << " pop " << i;
      ASSERT_EQ(got[i].first.time, want[i].first.time);
      ASSERT_EQ(got[i].first.scheduled_at, want[i].first.scheduled_at);
      ASSERT_EQ(got[i].first.seq, want[i].first.seq);
    }
  }
}

TEST(Simulator, ReservedSeqDispatchesWhereItWasReserved) {
  Simulator sim;
  std::vector<int> order;
  std::uint64_t reserved = 0;
  sim.at(5, [&] {
    sim.at(10, [&] { order.push_back(1); });
    reserved = sim.reserve_seq();
    sim.at(10, [&] { order.push_back(3); });
  });
  sim.at(7, [&] {
    sim.at(10, [&] { order.push_back(4); });
    // Inserted later, but "as of" instant 5 between the two events above.
    sim.at_key(EventKey{10, 5, reserved}, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, ProgressTracksDispatchAndRunUntilEnd) {
  Simulator sim;
  EventKey seen;
  sim.at(3, [&] { seen = sim.progress(); });
  sim.run_until(10);
  EXPECT_EQ(seen.time, 3);
  EXPECT_EQ(seen.scheduled_at, 0);
  // After run_until everything up to and including t = 10 counts as run...
  EXPECT_TRUE((EventKey{10, 9, 12345} < sim.progress()));
  EXPECT_TRUE(sim.progress() < (EventKey{11, 0, 0}));
  // ...so an event scheduled now at t = 10 leaves progress where it is, and
  // a key before the dispatch point is refused.
  sim.at(10, [&] { seen = sim.progress(); });
  sim.run_until(10);
  EXPECT_TRUE((EventKey{10, 9, 12345} < seen));
  EXPECT_THROW(sim.at_key(EventKey{10, 9, 0}, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(sim.at_key(EventKey{11, 9, sim.reserve_seq()}, [] {}));
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.at(100, [&] { times.push_back(sim.now()); });
  sim.after(50, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.dispatched_events(), 2u);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.at(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);  // inclusive boundary
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run_until(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100);  // clock advances even past last event
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(10, recurse);
  };
  sim.at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(sim.at(100, [] {}));  // "now" is allowed
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&] { ++fired; });
  sim.at(2, [&] {
    ++fired;
    sim.stop();
  });
  sim.at(3, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  // A later run resumes with the remaining events.
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, CancelViaSimulator) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  util::Xoshiro256ss rng(99);
  for (int i = 0; i < 20000; ++i) {
    const SimTime t = static_cast<SimTime>(rng.uniform_int(1000000));
    sim.at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.dispatched_events(), 20000u);
}

}  // namespace
}  // namespace manet::sim
