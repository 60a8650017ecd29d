#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/load.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"

namespace manet::net {
namespace {

TEST(Topology, GridPlacesNodesOnLattice) {
  const auto nodes = grid_topology(7, 8, 240.0, {100, 50});
  ASSERT_EQ(nodes.size(), 56u);
  EXPECT_EQ(nodes[0], (geom::Vec2{100, 50}));
  EXPECT_EQ(nodes[1], (geom::Vec2{340, 50}));
  EXPECT_EQ(nodes[8], (geom::Vec2{100, 290}));
  EXPECT_EQ(nodes[55], (geom::Vec2{100 + 7 * 240.0, 50 + 6 * 240.0}));
  // Grid neighbors at 240 m are within the 250 m tx range; diagonals not.
  EXPECT_NEAR(geom::distance(nodes[0], nodes[1]), 240.0, 1e-9);
  EXPECT_GT(geom::distance(nodes[0], nodes[9]), 250.0);
}

TEST(Topology, GridCenterIndexIsInterior) {
  EXPECT_EQ(grid_center_index(7, 8), 3u * 8u + 4u);
  EXPECT_EQ(grid_center_index(1, 1), 0u);
}

TEST(Topology, RandomConnectedIsConnected) {
  // Connectivity at the 550 m sensing range (see Network for why 250 m
  // would be hopeless at the paper's density).
  util::Xoshiro256ss rng(5);
  const auto nodes = random_connected_topology(112, 3000, 3000, 550, rng);
  ASSERT_EQ(nodes.size(), 112u);
  EXPECT_TRUE(is_connected(nodes, 550));
  for (const auto& p : nodes) {
    EXPECT_GE(p.x, 0);
    EXPECT_LT(p.x, 3000);
    EXPECT_GE(p.y, 0);
    EXPECT_LT(p.y, 3000);
  }
}

TEST(Topology, IsConnectedDetectsPartition) {
  std::vector<geom::Vec2> nodes{{0, 0}, {100, 0}, {1000, 0}};
  EXPECT_FALSE(is_connected(nodes, 250));
  EXPECT_TRUE(is_connected(nodes, 950));
  EXPECT_TRUE(is_connected({}, 1));
}

TEST(Topology, NeighborsWithin) {
  const auto nodes = grid_topology(3, 3, 240.0);
  const auto nbrs = neighbors_within(nodes, 4, 250.0);  // center of 3x3
  EXPECT_EQ(nbrs.size(), 4u);  // the four lattice neighbors
  const auto corner = neighbors_within(nodes, 0, 250.0);
  EXPECT_EQ(corner.size(), 2u);
}

TEST(Mobility, StaticReturnsFixedPositions) {
  StaticMobility m({{1, 2}, {3, 4}});
  EXPECT_EQ(m.position(0, 0), (geom::Vec2{1, 2}));
  EXPECT_EQ(m.position(1, 99 * kSecond), (geom::Vec2{3, 4}));
}

TEST(Mobility, RandomWaypointStaysInFieldAndRespectsSpeed) {
  RandomWaypointParams params;
  params.width = 1000;
  params.height = 800;
  params.min_speed = 1.0;
  params.max_speed = 20.0;
  RandomWaypoint rwp({{500, 400}, {100, 100}}, params, 77);

  geom::Vec2 prev0 = rwp.position(0, 0);
  for (int t = 1; t <= 600; ++t) {
    const geom::Vec2 p = rwp.position(0, t * kSecond);
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 1000);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 800);
    // One second apart: displacement bounded by max speed.
    EXPECT_LE(geom::distance(prev0, p), params.max_speed + 1e-6);
    prev0 = p;
  }
}

TEST(Mobility, RandomWaypointIsDeterministicPerSeed) {
  RandomWaypointParams params;
  RandomWaypoint a({{0, 0}}, params, 5);
  RandomWaypoint b({{0, 0}}, params, 5);
  RandomWaypoint c({{0, 0}}, params, 6);
  bool any_diff = false;
  for (int t = 0; t < 100; ++t) {
    const auto pa = a.position(0, t * kSecond);
    EXPECT_EQ(pa, b.position(0, t * kSecond));
    if (!(pa == c.position(0, t * kSecond))) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Mobility, PauseHoldsNodeAtWaypoint) {
  RandomWaypointParams params;
  params.width = params.height = 100;  // short legs
  params.min_speed = params.max_speed = 10.0;
  params.pause = 50 * kSecond;
  RandomWaypoint rwp({{50, 50}}, params, 3);
  // With 100 m field and 10 m/s, a leg takes <= ~14 s, then 50 s pause:
  // sample densely and require at least one long stationary stretch.
  int stationary = 0;
  geom::Vec2 prev = rwp.position(0, 0);
  for (int t = 1; t < 300; ++t) {
    const geom::Vec2 p = rwp.position(0, t * kSecond);
    if (geom::distance(prev, p) < 1e-9) ++stationary;
    prev = p;
  }
  EXPECT_GT(stationary, 100);
}

// ---------------------------------------------------------------------------

ScenarioConfig small_grid() {
  ScenarioConfig cfg;
  cfg.topology = TopologyKind::kGrid;
  cfg.grid_rows = 3;
  cfg.grid_cols = 3;
  cfg.num_flows = 4;
  cfg.sim_seconds = 10;
  cfg.seed = 11;
  return cfg;
}

TEST(Scenario, DeclaredDefaultsMatchTable1) {
  util::Config c;
  ScenarioConfig::declare(c);
  const ScenarioConfig s = ScenarioConfig::from_config(c);
  EXPECT_EQ(s.topology, TopologyKind::kGrid);
  EXPECT_EQ(s.grid_rows * s.grid_cols, 56u);       // 56 nodes (grid)
  EXPECT_EQ(s.random_nodes, 112u);                 // 112 nodes (random)
  EXPECT_DOUBLE_EQ(s.area_width_m, 3000.0);        // 3000 m x 3000 m
  EXPECT_DOUBLE_EQ(s.grid_spacing_m, 240.0);       // one-hop spacing
  EXPECT_DOUBLE_EQ(s.prop.tx_range_m, 250.0);      // transmission range
  EXPECT_DOUBLE_EQ(s.prop.cs_range_m, 550.0);      // sensing range
  EXPECT_DOUBLE_EQ(s.max_speed_mps, 20.0);         // 0-20 m/s
  EXPECT_EQ(s.payload_bytes, 512u);                // packet size
  EXPECT_EQ(s.mac.queue_capacity, 50u);            // queue length
  EXPECT_DOUBLE_EQ(s.sim_seconds, 300.0);          // simulation time
}

TEST(Scenario, ParsersRejectUnknownNames) {
  EXPECT_THROW(parse_topology("ring"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("tcp"), std::invalid_argument);
  EXPECT_THROW(parse_mobility("brownian"), std::invalid_argument);
  EXPECT_EQ(parse_topology("random"), TopologyKind::kRandom);
  EXPECT_EQ(parse_traffic("cbr"), TrafficKind::kCbr);
  EXPECT_EQ(parse_mobility("rwp"), MobilityKind::kRandomWaypoint);
}

TEST(Network, BuildsGridWithCenterNode) {
  ScenarioConfig cfg;
  cfg.sim_seconds = 1;
  Network net(cfg);
  EXPECT_EQ(net.size(), 56u);
  EXPECT_EQ(net.center_node(), 28u);
  // The grid is centered in the 3000x3000 field.
  const geom::Vec2 p0 = net.position_of(0, 0);
  EXPECT_GT(p0.x, 0);
  EXPECT_GT(p0.y, 0);
  const auto nbrs = net.neighbors(net.center_node(), 250, 0);
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Network, AddFlowValidatesEndpoints) {
  Network net(small_grid());
  EXPECT_THROW(net.add_flow(0, 0, 10), std::invalid_argument);
  EXPECT_THROW(net.add_flow(0, 99, 10), std::invalid_argument);
  auto& flow = net.add_flow(0, 1, 10);
  EXPECT_EQ(flow.source(), 0u);
  EXPECT_EQ(flow.destination(), 1u);
}

TEST(Network, RandomFlowsHaveDistinctSourcesAndOneHopDests) {
  Network net(small_grid());
  net.build_random_flows();
  EXPECT_GT(net.flow_count(), 0u);
  EXPECT_LE(net.flow_count(), 4u);
  std::set<NodeId> sources;
  for (std::size_t i = 0; i < net.flow_count(); ++i) {
    auto& f = net.flow(i);
    EXPECT_TRUE(sources.insert(f.source()).second) << "duplicate source";
    const double d = geom::distance(net.position_of(f.source(), 0),
                                    net.position_of(f.destination(), 0));
    EXPECT_LE(d, 250.0);
  }
}

TEST(Network, TrafficFlowsEndToEnd) {
  ScenarioConfig cfg = small_grid();
  Network net(cfg);
  net.add_flow(4, 1, 50);  // center -> top, 50 pkt/s
  const SimTime stop = seconds_to_time(5);
  net.start_traffic(0, stop);
  const phy::CsTimeline& receiver = net.timeline(1);  // records from t=0
  net.run_until(stop);
  EXPECT_GT(net.mac(1).stats().packets_delivered, 100u);
  EXPECT_EQ(net.mac(4).stats().retry_drops, 0u);
  // Busy fraction at the receiver is sane and nonzero.
  const double busy = receiver.busy_fraction(0, stop);
  EXPECT_GT(busy, 0.05);
  EXPECT_LT(busy, 0.9);
}

// Nodes nobody asks pay nothing per carrier edge: a run with traffic
// leaves every node without a timeline, and asking creates one, once.
TEST(Network, NoNodeRecordsUntilAsked) {
  Network net(small_grid());
  net.build_random_flows();
  const SimTime stop = seconds_to_time(2);
  net.start_traffic(0, stop);
  net.run_until(stop);
  ASSERT_GT(net.channel().transmissions(), 0u);
  const auto recording = [&net] {
    std::vector<NodeId> nodes;
    for (NodeId i = 0; i < net.size(); ++i) {
      if (net.node(i).timeline) nodes.push_back(i);
    }
    return nodes;
  };
  EXPECT_TRUE(recording().empty());
  const phy::CsTimeline& asked = net.timeline(4);
  EXPECT_EQ(&net.timeline(4), &asked);
  EXPECT_EQ(recording(), std::vector<NodeId>{4});
}

// A timeline first asked for mid-run starts in the radio's state at that
// instant, and over [request, stop] answers every query like a timeline
// that listened from t=0. Node 1 is asked while its carrier is busy, node 7
// during a scheduled outage.
TEST(Network, TimelineRequestedMidRunStartsInTheRadiosState) {
  ScenarioConfig cfg = small_grid();
  cfg.faults.outages.push_back({7, 2 * kSecond, 3 * kSecond});
  Network net(cfg);
  net.add_flow(4, 1, 200);
  net.build_random_flows();
  const SimDuration retention = seconds_to_time(cfg.timeline_retention_s);
  phy::CsTimeline busy_ref(retention);
  phy::CsTimeline deaf_ref(retention);
  net.radio(1).add_listener(&busy_ref);
  net.radio(7).add_listener(&deaf_ref);
  const SimTime stop = seconds_to_time(4);
  net.start_traffic(0, stop);

  SimTime busy_at = kSecond;
  net.run_until(busy_at);
  while (!net.radio(1).carrier_busy() && busy_at < 2 * kSecond) {
    net.run_until(busy_at += kMicrosecond);
  }
  ASSERT_TRUE(net.radio(1).carrier_busy());
  const phy::CsTimeline& busy = net.timeline(1);
  ASSERT_TRUE(busy.busy_at_end());
  EXPECT_EQ(busy.busy_time(0, busy_at), 0);  // no history before the request

  const SimTime deaf_at = 2500 * kMillisecond;
  net.run_until(deaf_at);
  ASSERT_TRUE(net.radio(7).in_outage());
  const phy::CsTimeline& deaf = net.timeline(7);
  EXPECT_EQ(deaf.outage_time(0, deaf_at), 0);
  net.run_until(stop);

  const auto expect_same = [&](const phy::CsTimeline& lazy,
                               const phy::CsTimeline& ref, SimTime from) {
    EXPECT_EQ(lazy.busy_at_end(), ref.busy_at_end());
    EXPECT_GT(lazy.recorded_transitions(), 1u);
    for (SimTime a = from; a < stop; a += 100 * kMillisecond) {
      for (const SimTime b : {std::min(a + 100 * kMillisecond, stop), stop}) {
        EXPECT_EQ(lazy.busy_time(a, b), ref.busy_time(a, b)) << a << ".." << b;
        EXPECT_EQ(lazy.outage_time(a, b), ref.outage_time(a, b)) << a << ".." << b;
        const phy::SlotCounts got = lazy.count_slots(a, b, cfg.mac.slot_time);
        const phy::SlotCounts want = ref.count_slots(a, b, cfg.mac.slot_time);
        EXPECT_EQ(got.idle, want.idle) << a << ".." << b;
        EXPECT_EQ(got.busy, want.busy) << a << ".." << b;
        EXPECT_EQ(got.idle_periods, want.idle_periods) << a << ".." << b;
      }
    }
  };
  expect_same(busy, busy_ref, busy_at);
  expect_same(deaf, deaf_ref, deaf_at);
  EXPECT_EQ(deaf.outage_time(deaf_at, stop), 3 * kSecond - deaf_at);
}

TEST(Network, SameSeedReproducesExactly) {
  auto run = [] {
    ScenarioConfig cfg = small_grid();
    Network net(cfg);
    net.build_random_flows();
    const SimTime stop = seconds_to_time(5);
    net.start_traffic(0, stop);
    net.run_until(stop);
    std::uint64_t sig = 0;
    for (NodeId i = 0; i < net.size(); ++i) {
      sig = sig * 1315423911u + net.mac(i).stats().packets_delivered;
      sig = sig * 1315423911u + net.mac(i).stats().rts_sent;
    }
    return sig;
  };
  EXPECT_EQ(run(), run());
}

TEST(Traffic, CbrGeneratesAtConfiguredRate) {
  ScenarioConfig cfg = small_grid();
  cfg.traffic = TrafficKind::kCbr;
  Network net(cfg);
  auto& flow = net.add_flow(0, 1, 40);
  const SimTime stop = seconds_to_time(10);
  net.start_traffic(0, stop);
  net.run_until(stop);
  EXPECT_NEAR(static_cast<double>(flow.generated()), 400.0, 5.0);
}

TEST(Traffic, PoissonGeneratesAtConfiguredMeanRate) {
  ScenarioConfig cfg = small_grid();
  cfg.traffic = TrafficKind::kPoisson;
  Network net(cfg);
  auto& flow = net.add_flow(0, 1, 40);
  const SimTime stop = seconds_to_time(20);
  net.start_traffic(0, stop);
  net.run_until(stop);
  // 800 expected, sd ~ 28.
  EXPECT_NEAR(static_cast<double>(flow.generated()), 800.0, 110.0);
}

TEST(Load, MeasuredBusyFractionIncreasesWithRate) {
  ScenarioConfig cfg = small_grid();
  const auto setup = [](Network& net) { net.build_random_flows(); };
  const double lo = measure_busy_fraction(cfg, 5, 4, setup, 1.0, 4.0);
  const double hi = measure_busy_fraction(cfg, 80, 4, setup, 1.0, 4.0);
  EXPECT_LT(lo, hi);
  EXPECT_GT(hi, 0.2);
}

TEST(Load, CalibratorHitsTarget) {
  ScenarioConfig cfg = small_grid();
  const auto result = calibrate_load(cfg, 0.35, {}, 0.04, 10);
  EXPECT_NEAR(result.measured_busy_fraction, 0.35, 0.08);
  EXPECT_GT(result.packets_per_second, 0.0);
}

TEST(Load, CalibratorStopsAtTheSmallGridsSaturationPlateau) {
  // No per-flow rate keeps the 3x3 grid's center busy 99% of the time.
  const auto result = calibrate_load(small_grid(), 0.99);
  EXPECT_TRUE(result.saturated);
  EXPECT_LT(result.probe_runs, 12);
  EXPECT_LT(result.measured_busy_fraction, 0.99 - 0.03);
  EXPECT_GT(result.measured_busy_fraction, 0.3);
}

// --- search_rate on synthetic busy(rate) curves -------------------------------

/// busy(rate) read off a table of doubling rates, linear in between.
BusyAt table_curve(std::vector<std::pair<double, double>> points) {
  return [points = std::move(points)](double rate) {
    if (rate <= points.front().first) return points.front().second;
    for (std::size_t i = 1; i < points.size(); ++i) {
      const auto [r1, b1] = points[i];
      if (rate <= r1) {
        const auto [r0, b0] = points[i - 1];
        return b0 + (b1 - b0) * (rate - r0) / (r1 - r0);
      }
    }
    return points.back().second;
  };
}

/// Wraps a curve, recording every probed rate.
struct Probed {
  explicit Probed(BusyAt c) : curve(std::move(c)) {}
  BusyAt curve;
  std::vector<double> rates;
  BusyAt fn() {
    return [this](double rate) {
      rates.push_back(rate);
      return curve(rate);
    };
  }
};

/// The calibration search before false position, kept as the probe-count
/// baseline: the same doubling bracket (no plateau stop), then bisection.
int bisection_probes(const BusyAt& busy_at, double target, double tol, int max_probes) {
  int probes = 0;
  const auto probe = [&](double rate) {
    ++probes;
    return busy_at(rate);
  };
  double lo = 0.0, hi = kFirstProbeRate;
  double hi_busy = probe(hi);
  while (hi_busy < target && hi < kMaxProbeRate && probes < max_probes) {
    lo = hi;
    hi *= 2.0;
    hi_busy = probe(hi);
  }
  double best = hi_busy;
  while (probes < max_probes && std::abs(best - target) > tol) {
    const double mid = 0.5 * (lo + hi);
    const double busy = probe(mid);
    if (std::abs(busy - target) < std::abs(best - target)) best = busy;
    (busy < target ? lo : hi) = mid;
  }
  return probes;
}

TEST(Load, SearchStopsAtTheSaturationPlateau) {
  // The Table-1 grid's center (seed 101, the rate cache's flows): above
  // 32 pkt/s the busy fraction creeps along 0.82-0.85 and never nears 0.9.
  Probed p(table_curve({{4, 0.162}, {8, 0.362}, {16, 0.753}, {32, 0.815}, {64, 0.822},
                        {128, 0.837}, {256, 0.831}, {512, 0.832}, {1024, 0.847},
                        {2048, 0.847}, {4096, 0.832}}));
  const CalibrationResult r = search_rate(p.fn(), 0.9);
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.probe_runs, 5);
  EXPECT_EQ(p.rates, (std::vector<double>{4, 8, 16, 32, 64}));
  EXPECT_EQ(r.packets_per_second, 64.0);  // the probe closest to the target
  EXPECT_DOUBLE_EQ(r.measured_busy_fraction, 0.822);
}

TEST(Load, SearchStopsOnANoisyNonMonotonePlateau) {
  // Noise lifts one doubling by more than tol (0.74 -> 0.78); the next one
  // falls back. The search stops there and keeps the best probe, 32.
  Probed p(table_curve({{4, 0.20}, {8, 0.45}, {16, 0.74}, {32, 0.78}, {64, 0.76},
                        {128, 0.79}, {256, 0.77}, {4096, 0.78}}));
  const CalibrationResult r = search_rate(p.fn(), 0.9);
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.probe_runs, 5);
  EXPECT_EQ(r.packets_per_second, 32.0);
  EXPECT_DOUBLE_EQ(r.measured_busy_fraction, 0.78);
}

TEST(Load, SearchDoesNotTakeAQuietStartForAPlateau) {
  // 4 -> 8 pkt/s raises the busy fraction by only 0.008 < tol, but both
  // probes sit far below half the target: keep doubling.
  Probed p([](double rate) { return std::min(0.95, rate / 512.0); });
  const CalibrationResult r = search_rate(p.fn(), 0.4);
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.measured_busy_fraction, 0.4, 1e-9);
  // A straight line: one false-position step from the [128, 256] bracket.
  ASSERT_EQ(p.rates.size(), 8u);
  EXPECT_EQ(std::vector<double>(p.rates.begin(), p.rates.end() - 1),
            (std::vector<double>{4, 8, 16, 32, 64, 128, 256}));
  EXPECT_NEAR(p.rates.back(), 204.8, 1e-9);
}

TEST(Load, SearchCallsTheCapSaturated) {
  // Every doubling adds 0.05 (> tol), yet 4096 pkt/s only reaches 0.6.
  Probed p([](double rate) { return 0.05 * std::log2(rate); });
  const CalibrationResult r = search_rate(p.fn(), 0.9);
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.probe_runs, 11);
  EXPECT_EQ(r.packets_per_second, kMaxProbeRate);
}

TEST(Load, IllinoisConvergesInFewerProbesThanBisection) {
  // Saturating curves of the shape the grids show, over reachable targets.
  // Bisection's midpoint sometimes lands within tol by luck, so compare the
  // totals and the worst cases, not every pair.
  int illinois_total = 0, bisection_total = 0;
  int illinois_worst = 0, bisection_worst = 0;
  for (const double knee : {3.0, 7.0, 12.0, 25.0, 60.0, 150.0}) {
    const BusyAt curve = [knee](double rate) { return 0.95 * (1.0 - std::exp(-rate / knee)); };
    for (const double target : {0.15, 0.3, 0.45, 0.6, 0.75, 0.85}) {
      SCOPED_TRACE(testing::Message() << "knee " << knee << " target " << target);
      const CalibrationResult r = search_rate(curve, target);
      EXPECT_FALSE(r.saturated);
      EXPECT_NEAR(r.measured_busy_fraction, target, 0.03);
      EXPECT_DOUBLE_EQ(curve(r.packets_per_second), r.measured_busy_fraction);
      const int bisection = bisection_probes(curve, target, 0.03, 12);
      illinois_total += r.probe_runs;
      bisection_total += bisection;
      illinois_worst = std::max(illinois_worst, r.probe_runs);
      bisection_worst = std::max(bisection_worst, bisection);
    }
  }
  EXPECT_LT(illinois_total, bisection_total);
  EXPECT_LT(illinois_worst, bisection_worst);
}

TEST(Load, SearchNeverExceedsMaxProbes) {
  // A step at 100 pkt/s defeats false position at a tight tolerance; a
  // slow ramp defeats the bracket. Every budget is honored exactly.
  const BusyAt step = [](double rate) { return rate < 100.0 ? 0.2 : 0.8; };
  const BusyAt ramp = [](double rate) { return 0.05 * std::log2(rate); };
  for (const BusyAt& curve : {step, ramp}) {
    for (int max_probes = 1; max_probes <= 15; ++max_probes) {
      SCOPED_TRACE(max_probes);
      Probed p(curve);
      const CalibrationResult r = search_rate(p.fn(), 0.5, 0.001, max_probes);
      EXPECT_LE(r.probe_runs, max_probes);
      EXPECT_EQ(static_cast<std::size_t>(r.probe_runs), p.rates.size());
    }
  }
  Probed p(step);
  EXPECT_EQ(search_rate(p.fn(), 0.5, 0.001, 12).probe_runs, 12);
}


TEST(Traffic, RejectsNonFiniteOrNonPositiveRates) {
  ScenarioConfig cfg = small_grid();
  Network net(cfg);
  const double bad[] = {0.0, -5.0, std::nan(""), std::numeric_limits<double>::infinity()};
  for (const double rate : bad) {
    SCOPED_TRACE(rate);
    EXPECT_THROW(PoissonSource(net.simulator(), 0, net.sink(0), 1, rate, 512, 1),
                 std::invalid_argument);
    EXPECT_THROW(CbrSource(net.simulator(), 0, net.sink(0), 1, rate, 512, 1),
                 std::invalid_argument);
    EXPECT_THROW(net.add_flow(0, 1, rate), std::invalid_argument);
  }
  PoissonSource poisson(net.simulator(), 0, net.sink(0), 1, 10.0, 512, 1);
  CbrSource cbr(net.simulator(), 0, net.sink(0), 1, 10.0, 512, 1);
  for (const double rate : bad) {
    SCOPED_TRACE(rate);
    EXPECT_THROW(poisson.set_rate(rate), std::invalid_argument);
    EXPECT_THROW(cbr.set_rate(rate), std::invalid_argument);
  }
  EXPECT_EQ(poisson.rate(), 10.0);  // a rejected rate leaves the old one
  EXPECT_EQ(cbr.rate(), 10.0);
}

TEST(Scenario, ValidateRejectsNonFiniteOrNonPositiveRates) {
  for (const double rate : {0.0, -1.0, std::nan(""), -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(rate);
    ScenarioConfig cfg;
    cfg.packets_per_second = rate;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_THROW(Network{cfg}, std::invalid_argument);
  }
  util::Config c;
  ScenarioConfig::declare(c);
  c.set("rate", "0");
  EXPECT_THROW(ScenarioConfig::from_config(c), std::invalid_argument);
}

TEST(Traffic, SetDestinationRedirectsFuturePackets) {
  ScenarioConfig cfg = small_grid();
  Network net(cfg);
  auto& flow = net.add_flow(4, 1, 50);
  const SimTime stop = seconds_to_time(6);
  net.start_traffic(0, stop);
  net.run_until(seconds_to_time(3));
  const auto delivered_1_before = net.mac(1).stats().packets_delivered;
  flow.set_destination(3);
  net.run_until(stop);

  // Node 1 stops receiving; node 3 starts.
  EXPECT_GT(delivered_1_before, 50u);
  EXPECT_LE(net.mac(1).stats().packets_delivered, delivered_1_before + 2);
  EXPECT_GT(net.mac(3).stats().packets_delivered, 50u);
}

TEST(Network, SinkRoutesThroughRouterWhenAodvEnabled) {
  ScenarioConfig cfg = small_grid();
  cfg.routing = RoutingKind::kAodv;
  Network net(cfg);
  EXPECT_NE(net.router(0), nullptr);
  // Submitting via the sink reaches the router's counters.
  net.sink(0).submit(1, 128, 5);
  net.run_until(seconds_to_time(1));
  EXPECT_EQ(net.router(0)->stats().originated, 1u);
  EXPECT_EQ(net.router(1)->stats().delivered, 1u);
}

TEST(Network, NoRouterWithoutAodv) {
  Network net(small_grid());
  EXPECT_EQ(net.router(0), nullptr);
}

}  // namespace
}  // namespace manet::net
