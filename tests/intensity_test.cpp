// ObservationHub::IntensityTracker against the ARMA tick chain it replaced
// (tests/reference_intensity.*). Random carrier and outage edges land on
// timelines with a tiny transition budget (budget compactions fall inside
// batches), with a retention shorter than a batch, and with the defaults;
// trackers attach at t = 0 and mid-run; reads land exactly on batch
// boundaries as well as between them. Every intensity and batch count
// must equal the oracle's bit for bit. Also: the first batch starts at
// attach, and a timeline takes one hub at a time.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "detect/observation_hub.hpp"
#include "mac/params.hpp"
#include "phy/cs_timeline.hpp"
#include "reference_intensity.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace manet::detect {
namespace {

struct Pair {
  ObservationHub::IntensityTracker* tracker;
  std::unique_ptr<ReferenceIntensity> oracle;
  SimTime attached_at;
  SimDuration batch;
};

struct Knobs {
  double alpha;
  std::size_t batch_slots;
};

constexpr Knobs kKnobs[] = {{0.995, 100}, {0.9, 7}};

/// Drives one seeded history; returns how many reads landed exactly on a
/// batch boundary of the pair read.
std::size_t run_case(std::uint64_t seed, SimDuration retention,
                     std::size_t max_transitions) {
  sim::Simulator sim;
  phy::CsTimeline timeline(retention, max_transitions, /*max_outages=*/3);
  const mac::DcfParams params;
  ObservationHub hub(sim, /*self=*/1, params, timeline);
  util::Xoshiro256ss rng(seed);

  std::vector<Pair> pairs;
  auto attach = [&] {
    for (const Knobs& k : kKnobs) {
      pairs.push_back(Pair{&hub.intensity_tracker(k.alpha, k.batch_slots),
                           std::make_unique<ReferenceIntensity>(
                               sim, timeline, params.slot_time, k.alpha,
                               k.batch_slots),
                           sim.now(),
                           static_cast<SimDuration>(k.batch_slots) * params.slot_time});
    }
  };
  attach();

  const SimDuration big_batch = pairs.front().batch;
  bool busy = false;
  bool deaf = false;
  bool attached_mid_run = false;
  std::size_t boundary_reads = 0;
  const SimTime stop = 400 * big_batch;
  while (sim.now() < stop) {
    // Next instant: a batch boundary of a random pair, or a random gap
    // (zero gaps stack several edges on one instant).
    SimTime t = sim.now();
    const Pair& target = pairs[rng.uniform_int(pairs.size())];
    if (rng.bernoulli(0.3)) {
      const SimDuration since = t - target.attached_at;
      t = target.attached_at + (since / target.batch + 1) * target.batch;
    } else if (rng.bernoulli(0.8)) {
      t += static_cast<SimDuration>(rng.uniform_int(big_batch / 2));
    } else {
      t += static_cast<SimDuration>(rng.uniform_int(5 * big_batch));
    }
    sim.run_until(t);  // the oracle's ticks at or before t fire first
    if (!attached_mid_run && t >= stop / 3) {
      attach();
      attached_mid_run = true;
    }

    const double action = rng.uniform();
    if (action < 0.5) {
      busy = rng.bernoulli(0.8) ? !busy : busy;  // some edges change nothing
      timeline.on_carrier(busy, t);
    } else if (action < 0.6) {
      deaf = !deaf;
      timeline.on_outage(deaf, t);
    } else {
      for (Pair& p : pairs) {
        if ((t - p.attached_at) % p.batch == 0) ++boundary_reads;
        EXPECT_EQ(p.tracker->batches(), p.oracle->filter().batches())
            << "seed " << seed << " at " << t;
        EXPECT_EQ(p.tracker->intensity(), p.oracle->filter().intensity())
            << "seed " << seed << " at " << t;
      }
    }
  }
  for (Pair& p : pairs) {
    EXPECT_EQ(p.tracker->batches(), p.oracle->filter().batches());
    EXPECT_EQ(p.tracker->intensity(), p.oracle->filter().intensity());
  }
  if (max_transitions < 16) {
    EXPECT_GT(timeline.budget_stats().compactions, 10u) << "seed " << seed;
  }
  return boundary_reads;
}

TEST(IntensityFold, MatchesTickChainOracle) {
  std::size_t boundary_reads = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    // Tiny budgets compact inside batches; a retention shorter than a
    // batch prunes inside them; the defaults exercise the exact fold.
    boundary_reads += run_case(seed, 10 * kSecond, 4);
    boundary_reads += run_case(seed, 700 * kMicrosecond, phy::CsTimeline::kDefaultMaxTransitions);
    boundary_reads += run_case(seed, 10 * kSecond, phy::CsTimeline::kDefaultMaxTransitions);
  }
  EXPECT_GT(boundary_reads, 100u);
}

TEST(IntensityFold, FirstBatchStartsAtAttach) {
  // A hub created mid-run (a mobile handoff) must not average its first
  // batch over history before it attached: the timeline has folded that
  // history, and it is not what the monitor observed.
  sim::Simulator sim;
  phy::CsTimeline timeline;
  timeline.on_carrier(true, 0);
  timeline.on_carrier(false, 20 * kSecond);
  sim.run_until(30 * kSecond);
  const mac::DcfParams params;
  ObservationHub hub(sim, 1, params, timeline);
  ObservationHub::IntensityTracker& tracker = hub.intensity_tracker(0.995, 100);
  sim.run_until(30 * kSecond + 100 * params.slot_time);
  EXPECT_EQ(tracker.batches(), 1u);
  EXPECT_EQ(tracker.intensity(), 0.0);
}

TEST(IntensityFold, SecondHubOnATimelineThrows) {
  sim::Simulator sim;
  phy::CsTimeline timeline;
  const mac::DcfParams params;
  ObservationHub hub(sim, 1, params, timeline);
  EXPECT_THROW(ObservationHub(sim, 2, params, timeline), std::logic_error);
}

TEST(IntensityFold, DestroyedHubUnregisters) {
  sim::Simulator sim;
  phy::CsTimeline timeline;
  const mac::DcfParams params;
  {
    ObservationHub first(sim, 1, params, timeline);
    first.intensity_tracker(0.995, 100);
  }
  // The edge must not reach the destroyed hub (ASan would report the
  // use-after-free), and the timeline takes a new hub.
  timeline.on_carrier(true, 5 * kMillisecond);
  ObservationHub second(sim, 1, params, timeline);
  sim.run_until(10 * kMillisecond);
  timeline.on_carrier(false, 10 * kMillisecond);
  ObservationHub::IntensityTracker& tracker = second.intensity_tracker(0.995, 100);
  sim.run_until(12 * kMillisecond);
  EXPECT_EQ(tracker.batches(), 1u);
}

}  // namespace
}  // namespace manet::detect
