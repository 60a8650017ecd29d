#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "phy/channel.hpp"
#include "phy/cs_timeline.hpp"
#include "phy/impairments.hpp"
#include "phy/joint_tracker.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace manet::phy {
namespace {

struct DummyPayload : Payload {};

PayloadPtr payload() { return std::make_shared<const DummyPayload>(); }

/// Records radio callbacks for assertions.
struct Recorder : RadioListener {
  std::vector<std::pair<bool, SimTime>> carrier;
  std::vector<Signal> received;
  std::vector<Signal> failed;
  int errors = 0;
  int tx_ends = 0;

  void on_carrier(bool busy, SimTime at) override { carrier.push_back({busy, at}); }
  void on_receive(const Signal& s) override { received.push_back(s); }
  void on_receive_error(const Signal& s) override {
    failed.push_back(s);
    ++errors;
  }
  void on_transmit_end(std::uint64_t) override { ++tx_ends; }
};

/// Fixed positions for a handful of radios. By default the provider
/// describes no motion, so the channel takes its reference full scan;
/// `frozen` declares every radio parked forever, which lets the channel
/// serve transmissions from its static-layout audible lists.
struct FixedPositions : PositionProvider {
  FixedPositions(std::vector<geom::Vec2> p, bool frozen)
      : pos(std::move(p)), frozen(frozen) {}
  std::vector<geom::Vec2> pos;
  bool frozen;
  geom::Vec2 position(NodeId node, SimTime) const override { return pos.at(node); }
  bool piecewise_linear() const override { return frozen; }
  MotionState motion(NodeId node, SimTime) const override {
    return MotionState{pos.at(node), geom::Vec2{0.0, 0.0}, kTimeNever, 0};
  }
};

struct PhyFixture {
  explicit PhyFixture(std::vector<geom::Vec2> layout,
                      PropagationParams params = {}, bool frozen = false)
      : prop(params, /*shadowing_seed=*/7), positions{std::move(layout), frozen},
        channel(sim, prop, positions) {
    for (NodeId i = 0; i < positions.pos.size(); ++i) {
      radios.push_back(std::make_unique<Radio>(i, channel));
      recorders.push_back(std::make_unique<Recorder>());
      radios.back()->add_listener(recorders.back().get());
    }
  }

  sim::Simulator sim;
  Propagation prop;
  FixedPositions positions;
  Channel channel;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::unique_ptr<Recorder>> recorders;
};

TEST(Propagation, ThresholdsMatchConfiguredRanges) {
  PropagationParams p;  // free space, 250 / 550 m
  Propagation prop(p, 1);
  EXPECT_NEAR(prop.mean_rx_power_dbm(250), prop.rx_threshold_dbm(), 1e-9);
  EXPECT_NEAR(prop.mean_rx_power_dbm(550), prop.cs_threshold_dbm(), 1e-9);
  // Decodable strictly inside, inaudible strictly outside.
  EXPECT_GT(prop.mean_rx_power_dbm(249), prop.rx_threshold_dbm());
  EXPECT_LT(prop.mean_rx_power_dbm(251), prop.rx_threshold_dbm());
  EXPECT_GT(prop.mean_rx_power_dbm(549), prop.cs_threshold_dbm());
  EXPECT_LT(prop.mean_rx_power_dbm(551), prop.cs_threshold_dbm());
}

TEST(Propagation, PowerDecaysWithDistanceAndExponent) {
  PropagationParams p;
  Propagation prop(p, 1);
  EXPECT_GT(prop.mean_rx_power_dbm(10), prop.mean_rx_power_dbm(100));
  // Free space: -20 dB per decade.
  EXPECT_NEAR(prop.mean_rx_power_dbm(10) - prop.mean_rx_power_dbm(100), 20.0, 1e-9);

  PropagationParams p4 = p;
  p4.path_loss_exponent = 4.0;
  Propagation prop4(p4, 1);
  EXPECT_NEAR(prop4.mean_rx_power_dbm(10) - prop4.mean_rx_power_dbm(100), 40.0, 1e-9);
}

TEST(Propagation, ShadowingAddsVariance) {
  PropagationParams p;
  p.shadowing_sigma_db = 6.0;
  Propagation prop(p, 42);
  util::RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(prop.rx_power_dbm({0, 0}, {100, 0}));
  }
  EXPECT_NEAR(stats.mean(), prop.mean_rx_power_dbm(100), 0.3);
  EXPECT_NEAR(stats.stddev(), 6.0, 0.3);
}

TEST(Propagation, RejectsInvertedRanges) {
  PropagationParams p;
  p.tx_range_m = 600;
  p.cs_range_m = 300;
  EXPECT_THROW(Propagation(p, 1), std::invalid_argument);
}

TEST(Channel, DeliversWithinTxRangeOnly) {
  // Node 1 at 200 m (decodable), node 2 at 400 m (energy only),
  // node 3 at 600 m (inaudible).
  PhyFixture f({{0, 0}, {200, 0}, {400, 0}, {600, 0}});
  f.radios[0]->transmit(payload(), 100 * kMicrosecond);
  f.sim.run();

  EXPECT_EQ(f.recorders[1]->received.size(), 1u);
  EXPECT_EQ(f.recorders[2]->received.size(), 0u);
  EXPECT_EQ(f.recorders[3]->received.size(), 0u);
  // Energy seen (carrier busy edge) at 1 and 2, not at 3.
  EXPECT_FALSE(f.recorders[1]->carrier.empty());
  EXPECT_FALSE(f.recorders[2]->carrier.empty());
  EXPECT_TRUE(f.recorders[3]->carrier.empty());
  EXPECT_EQ(f.recorders[0]->tx_ends, 1);
}

TEST(Channel, CarrierBusyWindowMatchesAirtime) {
  PhyFixture f({{0, 0}, {200, 0}});
  f.sim.at(1000, [&] { f.radios[0]->transmit(payload(), 100 * kMicrosecond); });
  f.sim.run();
  ASSERT_EQ(f.recorders[1]->carrier.size(), 2u);
  EXPECT_EQ(f.recorders[1]->carrier[0], std::make_pair(true, SimTime{1000}));
  EXPECT_EQ(f.recorders[1]->carrier[1],
            std::make_pair(false, SimTime{1000 + 100 * kMicrosecond}));
}

TEST(Radio, SelfTransmissionSetsCarrierAndBlocksReception) {
  PhyFixture f({{0, 0}, {200, 0}});
  f.radios[0]->transmit(payload(), 100 * kMicrosecond);
  EXPECT_TRUE(f.radios[0]->carrier_busy());
  EXPECT_TRUE(f.radios[0]->transmitting());
  // Node 1 transmits while 0 is still on air: 0 must not decode it.
  f.sim.at(10 * kMicrosecond,
           [&] { f.radios[1]->transmit(payload(), 20 * kMicrosecond); });
  f.sim.run();
  EXPECT_EQ(f.recorders[0]->received.size(), 0u);
  EXPECT_FALSE(f.radios[0]->carrier_busy());
}

TEST(Radio, CollisionCorruptsBothFrames) {
  // Two senders equidistant from the middle receiver, overlapping in time.
  PhyFixture f({{0, 0}, {200, 0}, {400, 0}});
  f.radios[0]->transmit(payload(), 100 * kMicrosecond);
  f.sim.at(50 * kMicrosecond,
           [&] { f.radios[2]->transmit(payload(), 100 * kMicrosecond); });
  f.sim.run();
  EXPECT_EQ(f.recorders[1]->received.size(), 0u);
  EXPECT_GE(f.recorders[1]->errors, 1);
}

TEST(Radio, CaptureLetsMuchStrongerFrameSurvive) {
  // Interferer at 520 m (>10 dB weaker than the 50 m signal).
  PhyFixture f({{0, 0}, {50, 0}, {520, 0}});
  f.radios[2]->transmit(payload(), 100 * kMicrosecond);
  f.sim.at(10 * kMicrosecond,
           [&] { f.radios[0]->transmit(payload(), 50 * kMicrosecond); });
  f.sim.run();
  // Node 1 locks onto node 0's strong frame despite the ongoing interference.
  ASSERT_EQ(f.recorders[1]->received.size(), 1u);
  EXPECT_EQ(f.recorders[1]->received[0].transmitter, 0u);
}

TEST(Radio, WeakerConcurrentArrivalIsInterferenceNotLock) {
  // Strong frame first, weak frame second: strong survives.
  PhyFixture f({{0, 0}, {50, 0}, {520, 0}});
  f.radios[0]->transmit(payload(), 100 * kMicrosecond);
  f.sim.at(10 * kMicrosecond,
           [&] { f.radios[2]->transmit(payload(), 50 * kMicrosecond); });
  f.sim.run();
  ASSERT_EQ(f.recorders[1]->received.size(), 1u);
  EXPECT_EQ(f.recorders[1]->received[0].transmitter, 0u);
}

// --- One Signal per transmission, slim per-radio records ---------------------
//
// The channel builds one Signal per transmission and sets each receiver's
// power on it; radios keep only (id, power) of in-flight signals and copy
// the full Signal when they lock onto a frame. Each case runs on the
// reference full scan and on the static-layout audible lists.

class RadioDelivery : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Paths, RadioDelivery, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "AudibleLists"
                                                         : "FullScan");
                         });

TEST_P(RadioDelivery, EachReceiverSeesTheSharedSignalAtItsOwnPower) {
  PhyFixture f({{0, 0}, {60, 0}, {0, 180}}, {}, GetParam());
  const PayloadPtr p = payload();
  // Twice: the second transmission reuses a cached audible list.
  for (int round = 0; round < 2; ++round) {
    const SimTime at = (1 + round) * kMillisecond;
    f.sim.at(at, [&] { f.radios[0]->transmit(p, 100 * kMicrosecond); });
  }
  f.sim.run();
  for (NodeId rx : {1u, 2u}) {
    SCOPED_TRACE(rx);
    const auto& got = f.recorders[rx]->received;
    ASSERT_EQ(got.size(), 2u);
    for (int round = 0; round < 2; ++round) {
      const Signal& s = got[round];
      const SimTime at = (1 + round) * kMillisecond;
      EXPECT_EQ(s.transmitter, 0u);
      EXPECT_EQ(s.payload.get(), p.get());
      EXPECT_EQ(s.start, at);
      EXPECT_EQ(s.end, at + 100 * kMicrosecond);
      EXPECT_EQ(s.rx_power_dbm,
                f.prop.rx_power_dbm(f.positions.pos[0], f.positions.pos[rx]));
      EXPECT_FALSE(s.corrupted);
    }
  }
  EXPECT_EQ(f.recorders[1]->received[0].id, f.recorders[2]->received[0].id);
  // The audible-list path collected candidates once, for the list build.
  EXPECT_EQ(f.channel.cache_stats().candidate_sets, GetParam() ? 1u : 0u);
  EXPECT_GT(f.recorders[1]->received[0].rx_power_dbm,
            f.recorders[2]->received[0].rx_power_dbm);
}

TEST_P(RadioDelivery, InterferersEndingInEitherOrderLeaveTheLockedFrame) {
  // Receiver 1 locks onto node 0's strong frame (50 m); nodes 2 and 3 are
  // >10 dB weaker interferers. Both end before the locked frame, in either
  // order, so each removal takes a different slot of the radio's records.
  for (const bool short_first : {true, false}) {
    SCOPED_TRACE(short_first);
    PhyFixture f({{0, 0}, {50, 0}, {570, 0}, {50, 520}}, {}, GetParam());
    const SimDuration airtime_2 = (short_first ? 100 : 250) * kMicrosecond;
    const SimDuration airtime_3 = (short_first ? 250 : 100) * kMicrosecond;
    f.radios[0]->transmit(payload(), 400 * kMicrosecond);
    f.sim.at(10 * kMicrosecond,
             [&] { f.radios[2]->transmit(payload(), airtime_2); });
    f.sim.at(20 * kMicrosecond,
             [&] { f.radios[3]->transmit(payload(), airtime_3); });
    f.sim.run_until(300 * kMicrosecond);
    EXPECT_TRUE(f.radios[1]->carrier_busy());  // the locked frame remains
    f.sim.run();
    const Recorder& r = *f.recorders[1];
    ASSERT_EQ(r.received.size(), 1u);
    EXPECT_EQ(r.received[0].transmitter, 0u);
    EXPECT_EQ(r.errors, 0);
    const std::vector<std::pair<bool, SimTime>> edges = {
        {true, 0}, {false, 400 * kMicrosecond}};
    EXPECT_EQ(r.carrier, edges);
  }
}

TEST_P(RadioDelivery, CorruptedDeliveryDamagesOnlyItsOwnReceiver) {
  // Six receivers in decode range; each delivery is corrupted with
  // probability 1/2 and gets a fresh replacement payload, so every
  // damaged frame a receiver reports must be one corruption of its own.
  PhyFixture f({{0, 0}, {40, 0}, {80, 0}, {120, 0}, {0, 40}, {0, 80}, {0, 120}},
               {}, GetParam());
  FaultPlan plan;
  plan.corrupt_probability = 0.5;
  FaultInjector faults(plan, 3);
  std::size_t corruptions = 0;
  faults.set_corruptor([&corruptions](const PayloadPtr&, util::Xoshiro256ss&) {
    ++corruptions;
    return payload();
  });
  f.channel.install_faults(faults);
  const PayloadPtr p = payload();
  for (int round = 0; round < 3; ++round) {
    f.sim.at(round * kMillisecond,
             [&] { f.radios[0]->transmit(p, 100 * kMicrosecond); });
  }
  f.sim.run();
  std::size_t intact = 0;
  std::set<const Payload*> damaged;
  for (NodeId rx = 1; rx < f.radios.size(); ++rx) {
    const Recorder& r = *f.recorders[rx];
    EXPECT_EQ(r.received.size() + r.failed.size(), 3u);
    for (const Signal& s : r.received) {
      EXPECT_FALSE(s.corrupted);
      EXPECT_EQ(s.payload.get(), p.get());
      ++intact;
    }
    for (const Signal& s : r.failed) {
      EXPECT_TRUE(s.corrupted);
      EXPECT_NE(s.payload.get(), p.get());
      EXPECT_EQ(s.transmitter, 0u);
      damaged.insert(s.payload.get());
    }
  }
  EXPECT_EQ(faults.decisions(), 18u);
  EXPECT_EQ(intact + corruptions, 18u);
  EXPECT_EQ(damaged.size(), corruptions);
  EXPECT_GT(intact, 0u);
  EXPECT_GT(corruptions, 0u);
}

TEST(CsTimeline, BusyTimeAndSlotAccounting) {
  CsTimeline tl;
  tl.on_carrier(true, 100 * kMicrosecond);
  tl.on_carrier(false, 200 * kMicrosecond);
  tl.on_carrier(true, 400 * kMicrosecond);
  tl.on_carrier(false, 500 * kMicrosecond);

  EXPECT_EQ(tl.busy_time(0, 600 * kMicrosecond), 200 * kMicrosecond);
  EXPECT_EQ(tl.busy_time(150 * kMicrosecond, 450 * kMicrosecond),
            100 * kMicrosecond);
  EXPECT_DOUBLE_EQ(tl.busy_fraction(0, 600 * kMicrosecond), 200.0 / 600.0);

  const SlotCounts slots = tl.count_slots(0, 600 * kMicrosecond, 20 * kMicrosecond);
  EXPECT_EQ(slots.total(), 30);
  EXPECT_EQ(slots.busy, 10);
  EXPECT_EQ(slots.idle, 20);
  EXPECT_EQ(slots.idle_periods, 3);
}

TEST(CsTimeline, CountableIdleSubtractsDifsPerIdlePeriod) {
  CsTimeline tl;
  const SimDuration difs = 50 * kMicrosecond;
  tl.on_carrier(true, 1 * kMillisecond);
  tl.on_carrier(false, 2 * kMillisecond);
  // Window [0, 3ms]: idle [0,1ms) loses DIFS, busy [1,2), idle [2,3) loses DIFS.
  EXPECT_EQ(tl.countable_idle_time(0, 3 * kMillisecond, difs),
            2 * kMillisecond - 2 * difs);
  // Idle period shorter than DIFS contributes nothing.
  EXPECT_EQ(tl.countable_idle_time(0, 40 * kMicrosecond, difs), 0);
}

TEST(CsTimeline, RedundantEdgesAreIgnored) {
  CsTimeline tl;
  tl.on_carrier(false, 10);  // already idle
  tl.on_carrier(true, 100);
  tl.on_carrier(true, 200);  // redundant
  tl.on_carrier(false, 300);
  EXPECT_EQ(tl.recorded_transitions(), 2u);
  EXPECT_EQ(tl.busy_time(0, 400), 200);
}

TEST(CsTimeline, PruneKeepsRecentWindowQueryable) {
  CsTimeline tl(1 * kSecond);  // short retention
  for (int i = 0; i < 1000; ++i) {
    tl.on_carrier(true, i * 10 * kMillisecond);
    tl.on_carrier(false, i * 10 * kMillisecond + 5 * kMillisecond);
  }
  // Old history pruned, recent queries still exact.
  EXPECT_LT(tl.recorded_transitions(), 300u);
  const SimTime t0 = 9900 * kMillisecond;
  EXPECT_EQ(tl.busy_time(t0, t0 + 10 * kMillisecond), 5 * kMillisecond);
}

TEST(JointTracker, AccumulatesJointDurations) {
  PhyFixture f({{0, 0}, {200, 0}, {400, 0}});
  JointBusyTracker tracker(*f.radios[0], *f.radios[1]);
  // Node 2 at 400 m of node 1 and node 0: audible by 1 (200 m away? no —
  // dist(1,2)=200 decodable; dist(0,2)=400 energy-only). Both hear it.
  f.sim.at(0, [&] { f.radios[2]->transmit(payload(), 1 * kMillisecond); });
  f.sim.run_until(2 * kMillisecond);
  tracker.flush(2 * kMillisecond);
  EXPECT_EQ(tracker.duration(true, true), 1 * kMillisecond);
  EXPECT_EQ(tracker.duration(false, false), 1 * kMillisecond);
  EXPECT_DOUBLE_EQ(tracker.r_busy_fraction(), 0.5);
}

TEST(JointTracker, ConditionalProbabilities) {
  PhyFixture f({{0, 0}, {200, 0}, {140, 480}});
  // Node 2 is 500 m from node 0 (energy) and ~520 m from node 1 (energy):
  // both busy when 2 transmits. Instead use node 0 transmitting: S=0 is
  // "busy" (own tx), R=1 busy (hears it).
  JointBusyTracker tracker(*f.radios[0], *f.radios[1]);
  f.sim.at(0, [&] { f.radios[0]->transmit(payload(), 1 * kMillisecond); });
  f.sim.run_until(4 * kMillisecond);
  tracker.flush(4 * kMillisecond);
  // R busy 25% of the window, S busy exactly when R busy.
  EXPECT_DOUBLE_EQ(tracker.r_busy_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(tracker.p_s_busy_given_r_idle(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.p_s_idle_given_r_busy(), 0.0);
}


TEST(CsTimeline, CumulativeBusySurvivesPruning) {
  CsTimeline tl(1 * kSecond);  // aggressive pruning
  SimDuration expected = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime t0 = i * 20 * kMillisecond;
    tl.on_carrier(true, t0);
    tl.on_carrier(false, t0 + 7 * kMillisecond);
    expected += 7 * kMillisecond;
  }
  const SimTime end = 500 * 20 * kMillisecond;
  EXPECT_EQ(tl.cumulative_busy(end), expected);
  // Long-horizon busy fraction derived from the counter is exact.
  EXPECT_NEAR(static_cast<double>(tl.cumulative_busy(end)) /
                  static_cast<double>(end),
              0.35, 1e-9);
}

TEST(CsTimeline, CumulativeBusyExtendsCurrentBusyState) {
  CsTimeline tl;
  tl.on_carrier(true, 100);
  EXPECT_EQ(tl.cumulative_busy(150), 50);
  tl.on_carrier(false, 200);
  EXPECT_EQ(tl.cumulative_busy(500), 100);
}

TEST(CsTimeline, BusyIntervalsMatchBusyTime) {
  CsTimeline tl;
  tl.on_carrier(true, 100);
  tl.on_carrier(false, 250);
  tl.on_carrier(true, 400);
  tl.on_carrier(false, 460);

  const auto iv = tl.busy_intervals(0, 1000);
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0], std::make_pair(SimTime{100}, SimTime{250}));
  EXPECT_EQ(iv[1], std::make_pair(SimTime{400}, SimTime{460}));

  // Clipping at window edges.
  const auto clipped = tl.busy_intervals(150, 420);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped[0], std::make_pair(SimTime{150}, SimTime{250}));
  EXPECT_EQ(clipped[1], std::make_pair(SimTime{400}, SimTime{420}));

  SimDuration total = 0;
  for (const auto& [a, b] : clipped) total += b - a;
  EXPECT_EQ(total, tl.busy_time(150, 420));
}

}  // namespace
}  // namespace manet::phy
