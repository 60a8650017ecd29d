// Microbenchmark: discrete-event kernel throughput — the floor under every
// simulation second this library runs.
#include <benchmark/benchmark.h>

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using manet::sim::EventQueue;
using manet::sim::Simulator;

void BM_ScheduleAndPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  manet::util::Xoshiro256ss rng(1);
  for (auto _ : state) {
    EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.schedule(static_cast<manet::SimTime>(rng.uniform_int(1u << 20)), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleAndPop)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_ScheduleCancel(benchmark::State& state) {
  // The MAC cancels timers constantly; cancel must be O(1)-ish.
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < 1024; ++i) {
      const auto id = q.schedule(i, [] {});
      q.cancel(id);
    }
    benchmark::DoNotOptimize(q.empty());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_ScheduleCancel);

void BM_CancelChurnSteadyState(benchmark::State& state) {
  // The MAC's steady-state pattern: a standing population of timers where
  // almost every scheduled event is cancelled and replaced before firing.
  // Exercises slot reuse and the dead-entry compaction bound.
  EventQueue q;
  manet::util::Xoshiro256ss rng(7);
  std::vector<manet::sim::EventId> live(512, manet::sim::kInvalidEvent);
  manet::SimTime t = 0;
  for (auto& id : live) id = q.schedule(++t, [] {});
  for (auto _ : state) {
    const std::size_t i = rng.uniform_int(512);
    q.cancel(live[i]);
    live[i] = q.schedule(++t, [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["stored_entries"] =
      static_cast<double>(q.stored_entries());
  state.counters["live"] = static_cast<double>(q.size());
}
BENCHMARK(BM_CancelChurnSteadyState);

// Delay bands (scheduled time minus scheduling instant) for QueueShape; the
// last three lie past the wheel's 67 ms window.
constexpr std::array<std::pair<manet::SimTime, manet::SimTime>, 8> kDelayBands{{
    {0, 60 * manet::kMicrosecond},
    {60 * manet::kMicrosecond, 700 * manet::kMicrosecond},
    {700 * manet::kMicrosecond, 2 * manet::kMillisecond},
    {2 * manet::kMillisecond, 20500 * manet::kMicrosecond},
    {20500 * manet::kMicrosecond, 67 * manet::kMillisecond},
    {67 * manet::kMillisecond, 250 * manet::kMillisecond},
    {250 * manet::kMillisecond, 1000 * manet::kMillisecond},
    {1000 * manet::kMillisecond, 4000 * manet::kMillisecond},
}};

// The queue a benchmark workload puts on the kernel, as an instrumented
// queue counted it over a whole `benchmark/run.py --seed 7 --seconds 10`
// run (every simulation, calibration probes included).
struct QueueShape {
  int live;        // mean number of live events when one is dispatched
  int cancel_pct;  // share of scheduled events cancelled before they fire
  std::array<int, kDelayBands.size()> delay_bp;  // schedules per band, per 10^4
};

// A standing population of `live` timers, the earliest dispatched one at a
// time as the Simulator's loop does (next_time(), then pop()). Each
// dispatch schedules its successor, and cancels (a random timer cancelled
// and scheduled again, as the DCF freezes and resumes its back-off
// countdown) make up `cancel_pct` of all schedules. Delays are drawn by
// the measured band shares, uniformly within a band. One iteration is one
// dispatched event, churn included.
void BM_QueueShape(benchmark::State& state, QueueShape shape) {
  using manet::SimTime;
  EventQueue q;
  manet::util::Xoshiro256ss rng(11);
  SimTime now = 0;
  int total_bp = 0;
  for (const int bp : shape.delay_bp) total_bp += bp;
  const auto delay = [&]() -> SimTime {
    auto r = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(total_bp)));
    std::size_t band = 0;
    while (r >= shape.delay_bp[band]) r -= shape.delay_bp[band++];
    const auto [lo, hi] = kDelayBands[band];
    return lo + static_cast<SimTime>(rng.uniform_int(static_cast<std::uint64_t>(hi - lo)));
  };
  std::vector<manet::sim::EventId> timers(static_cast<std::size_t>(shape.live));
  std::size_t fired = 0;
  const auto arm = [&](std::size_t j) {
    timers[j] = q.schedule(now + delay(), [&fired, j] { fired = j; }, now);
  };
  for (std::size_t j = 0; j < timers.size(); ++j) arm(j);
  // Cancels per dispatch, so that cancels / schedules = cancel_pct / 100.
  const double churn = shape.cancel_pct / (100.0 - shape.cancel_pct);
  double owed = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.next_time());
    auto d = q.pop();
    now = d.key.time;
    d.fn();
    arm(fired);  // the dispatched timer's successor
    for (owed += churn; owed >= 1.0; owed -= 1.0) {
      const std::size_t j = rng.uniform_int(timers.size());
      q.cancel(timers[j]);
      arm(j);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["live"] = static_cast<double>(q.size());
  state.counters["stored_entries"] = static_cast<double>(q.stored_entries());
}
// allpairs_deg8: few live events; 1.1% of schedules past the window.
BENCHMARK_CAPTURE(BM_QueueShape, allpairs_deg8,
                  QueueShape{15, 18, {1292, 5205, 92, 3137, 163, 99, 12, 0}});
// paper_grid: freeze/resume churn; 42% of schedules cancelled.
BENCHMARK_CAPTURE(BM_QueueShape, paper_grid,
                  QueueShape{40, 42, {978, 4560, 794, 3560, 92, 14, 2, 0}});
// scale_rwp_1k: a deeper queue; 66% cancelled, 0.18% past the window.
BENCHMARK_CAPTURE(BM_QueueShape, scale_rwp_1k,
                  QueueShape{142, 66, {67, 9584, 131, 199, 0, 1, 5, 12}});

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  // A single self-rescheduling timer: the pattern of per-node periodic work.
  for (auto _ : state) {
    Simulator sim;
    int remaining = 10000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.after(20, tick);
    };
    sim.at(0, tick);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorSelfScheduling);

}  // namespace

BENCHMARK_MAIN();
