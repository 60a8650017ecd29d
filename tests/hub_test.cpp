// Equivalence and sharing tests for the per-node ObservationHub
// (src/detect/observation_hub.*) and the batched SoA pipeline
// (src/detect/monitor_batch.*), the only detection pipeline. The oracle is
// the scalar per-view monitor kept in the test tree
// (tests/reference_monitor.*): every scenario runs live through the batch
// with trace recording on, the recorded traces are replayed into
// reference monitors that each own a private hub, and the WindowResult
// sequences and MonitorStats must match bit for bit — across static,
// mobile-handoff, lossy, all-pairs, and sybil multi-identity scenarios
// and across seeds.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/monitor.hpp"
#include "detect/monitor_batch.hpp"
#include "detect/observation_hub.hpp"
#include "detect/replay.hpp"
#include "detect/trace.hpp"
#include "mac/dcf.hpp"
#include "phy/channel.hpp"
#include "reference_monitor.hpp"
#include "sim/simulator.hpp"

namespace manet::detect {
namespace {

net::ScenarioConfig tiny_grid(double seconds, std::uint64_t seed) {
  net::ScenarioConfig cfg;
  cfg.grid_rows = 3;
  cfg.grid_cols = 4;
  cfg.num_flows = 5;
  cfg.sim_seconds = seconds;
  cfg.seed = seed;
  return cfg;
}

MonitorConfig small_monitor(std::size_t ss = 10) {
  MonitorConfig m;
  m.sample_size = ss;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 3.0;
  m.fixed_contenders = 8.0;
  return m;
}

MultiDetectionConfig base_config(double seconds, std::uint64_t seed) {
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(seconds, seed);
  cfg.rate_pps = 25;
  cfg.pm = 60;
  cfg.monitors = {small_monitor(10), small_monitor(25), small_monitor(10)};
  cfg.collect_windows = true;
  return cfg;
}

/// Compares everything but measured_rho, which only the live run has.
void expect_identical_results(const MultiDetectionResult& got,
                              const MultiDetectionResult& ref) {
  EXPECT_EQ(got.handoffs, ref.handoffs);
  EXPECT_EQ(got.monitor_nodes, ref.monitor_nodes);
  ASSERT_EQ(got.per_config.size(), ref.per_config.size());
  for (std::size_t i = 0; i < got.per_config.size(); ++i) {
    const auto& g = got.per_config[i];
    const auto& r = ref.per_config[i];
    EXPECT_EQ(g.windows, r.windows) << "config " << i;
    EXPECT_EQ(g.flagged, r.flagged) << "config " << i;
    EXPECT_EQ(g.flagged_statistical, r.flagged_statistical) << "config " << i;
    EXPECT_EQ(g.stats, r.stats) << "config " << i;
    ASSERT_EQ(g.window_log.size(), r.window_log.size()) << "config " << i;
    for (std::size_t w = 0; w < g.window_log.size(); ++w) {
      EXPECT_EQ(g.window_log[w], r.window_log[w])
          << "config " << i << " window " << w;
    }
  }
}

/// Runs `cfg` live (batch lanes, traces recorded), replays the traces
/// into reference monitors with private hubs, and asserts every
/// deterministic output matches exactly.
void expect_hub_matches_reference(MultiDetectionConfig cfg) {
  TraceRecorder recorder;
  cfg.collect_windows = true;
  cfg.trace = &recorder;
  const auto live = run_multi_detection_experiment(cfg);
  expect_identical_results(
      live, reference_replay(recorder, cfg.monitors, cfg.warmup_s));
}

TEST(HubEquivalence, StaticGridBitIdenticalAcrossSeeds) {
  for (std::uint64_t seed : {7u, 41u, 1234u}) {
    SCOPED_TRACE(seed);
    expect_hub_matches_reference(base_config(30, seed));
  }
}

TEST(HubEquivalence, MobileHandoffBitIdenticalAcrossSeeds) {
  for (std::uint64_t seed : {11u, 97u}) {
    SCOPED_TRACE(seed);
    MultiDetectionConfig cfg = base_config(40, seed);
    cfg.scenario.mobility = net::MobilityKind::kRandomWaypoint;
    cfg.scenario.max_speed_mps = 20.0;
    cfg.scenario.pause_s = 0.0;
    cfg.mobile_handoff = true;
    expect_hub_matches_reference(cfg);
  }
}

TEST(HubEquivalence, LossyScenarioBitIdentical) {
  // Decode failures + corruption + an outage: the hub's ring and the
  // monitors' resync logic must see the impaired stream identically.
  MultiDetectionConfig cfg = base_config(30, 77);
  cfg.scenario.faults.loss_probability = 0.10;
  cfg.scenario.faults.corrupt_probability = 0.03;
  cfg.scenario.faults.outages.push_back(
      {.node = 1, .start = 5 * kSecond, .stop = 7 * kSecond});
  expect_hub_matches_reference(cfg);
}

TEST(HubEquivalence, AllPairsBitIdenticalAndCountsNodes) {
  MultiDetectionConfig cfg = base_config(30, 19);
  cfg.all_pairs = true;
  expect_hub_matches_reference(cfg);

  const auto result = run_multi_detection_experiment(cfg);
  // The 3x4 grid center has in-range orthogonal neighbors on all sides.
  EXPECT_GE(result.monitor_nodes, 3u);
  EXPECT_GT(result.per_config[0].windows, 0u);
}

TEST(HubEquivalence, SybilMultiIdentityBitIdentical) {
  // Sybil attackers spread violations across fake identities, so the
  // harness monitors several targets per node — each target is its own
  // config-group; the fan-out bookkeeping must not leak
  // between identities.
  MultiDetectionConfig cfg = base_config(30, 29);
  cfg.pm = 0;
  cfg.attacker.kind = AttackerKind::kSybil;
  cfg.attacker.pm = 60.0;
  expect_hub_matches_reference(cfg);
}

TEST(HubEquivalence, SequentialDetectorsBitIdentical) {
  // CUSUM/SPRT lanes run through the batched SequentialBank; their Step
  // streams must match the reference's CusumTest/SprtTest bit for bit
  // (tests/reference_sequential.*).
  MultiDetectionConfig cfg = base_config(30, 53);
  MonitorConfig cusum = small_monitor(10);
  cusum.detector = DetectorKind::kCusum;
  MonitorConfig sprt = small_monitor(10);
  sprt.detector = DetectorKind::kSprt;
  cfg.monitors = {small_monitor(10), cusum, sprt};
  expect_hub_matches_reference(cfg);
}

/// The all-pairs workload's lane set: 40 margins x 4 sample sizes, all in
/// one config-group (so each size's 40 margin lanes share one window),
/// then a CUSUM lane and a lane that keeps its sample log.
std::vector<MonitorConfig> shared_window_lanes() {
  std::vector<MonitorConfig> lanes;
  for (int i = 0; i < 40; ++i) {
    for (const std::size_t ss : {10, 25, 50, 100}) {
      MonitorConfig m = small_monitor(ss);
      m.alpha = 0.01;
      m.margin_fraction = 0.02 + 0.0025 * i;
      lanes.push_back(m);
    }
  }
  MonitorConfig cusum = small_monitor(10);
  cusum.detector = DetectorKind::kCusum;
  lanes.push_back(cusum);
  MonitorConfig recorded = small_monitor(25);
  recorded.margin_fraction = 0.1;
  recorded.record_samples = true;
  lanes.push_back(recorded);
  return lanes;
}

TEST(HubEquivalence, LanesSharingAWindowBitIdenticalAcrossReactivation) {
  // Seed 44 hands the monitoring role away and later back to the same
  // node (asserted below), and runs long enough to close 100-sample
  // windows.
  MultiDetectionConfig cfg = base_config(60, 44);
  cfg.scenario.mobility = net::MobilityKind::kRandomWaypoint;
  cfg.scenario.max_speed_mps = 20.0;
  cfg.scenario.pause_s = 0.0;
  cfg.mobile_handoff = true;
  cfg.monitors = shared_window_lanes();
  TraceRecorder recorder;
  cfg.collect_windows = true;
  cfg.trace = &recorder;
  const auto live = run_multi_detection_experiment(cfg);
  expect_identical_results(live,
                           reference_replay(recorder, cfg.monitors, cfg.warmup_s));

  // Lane by lane, sample logs included: each node's trace through the
  // batch (a ReplaySession, byte-identical to the live run) against one
  // reference monitor per lane. Handoffs suspend a node's whole group and
  // some node takes the role back later, so shared windows are reset by
  // a reactivation mid-run.
  bool reactivated = false;
  std::size_t samples_logged = 0;
  for (const auto& writer : recorder.writers()) {
    const MemoryTraceReader trace(writer->serialize());
    bool suspended = false;
    for (const ObservationEvent& ev : trace.events()) {
      if (ev.kind != ObservationKind::kMarker ||
          ev.marker_code != static_cast<std::uint32_t>(MarkerCode::kActivity)) {
        continue;
      }
      if (ev.marker_value == 0) suspended = true;
      if (ev.marker_value != 0 && suspended) reactivated = true;
    }

    ReplaySession session(trace.header(), cfg.monitors);
    session.run(trace);
    const std::vector<NodeId>& targets = trace.header().targets;
    ASSERT_EQ(session.views().size(), cfg.monitors.size() * targets.size());
    for (std::size_t v = 0; v < session.views().size(); ++v) {
      SCOPED_TRACE(::testing::Message()
                   << "node " << trace.header().node << " lane " << v);
      const Monitor& lane = *session.views()[v];
      const ReferenceLane ref = reference_lane(trace, targets[v % targets.size()],
                                               cfg.monitors[v / targets.size()]);
      EXPECT_EQ(lane.stats(), ref.stats);
      EXPECT_EQ(lane.windows(), ref.windows);
      ASSERT_EQ(lane.sample_log().size(), ref.samples.size());
      for (std::size_t k = 0; k < ref.samples.size(); ++k) {
        const Monitor::SampleRecord& a = lane.sample_log()[k];
        const Monitor::SampleRecord& b = ref.samples[k];
        EXPECT_EQ(a.expected, b.expected);
        EXPECT_EQ(a.observed, b.observed);
        EXPECT_EQ(a.idle_slots, b.idle_slots);
        EXPECT_EQ(a.busy_unc_slots, b.busy_unc_slots);
        EXPECT_EQ(a.blocked_slots, b.blocked_slots);
        EXPECT_EQ(a.attempt, b.attempt);
        EXPECT_EQ(a.accepted, b.accepted);
      }
      samples_logged += ref.samples.size();
    }
  }
  EXPECT_TRUE(reactivated) << "no node was suspended and resumed";
  EXPECT_GT(samples_logged, 0u);
  EXPECT_GT(live.per_config[3].windows, 0u);  // a 100-sample window closed
}

TEST(Hub, AllPairsRejectsMobileHandoff) {
  MultiDetectionConfig cfg = base_config(10, 3);
  cfg.all_pairs = true;
  cfg.mobile_handoff = true;
  EXPECT_THROW(run_multi_detection_experiment(cfg), std::invalid_argument);
}

// --- Component sharing on a bare hub ----------------------------------------
//
// Reference monitors are one HubView each, so they exercise the hub's
// per-view component keying directly.

struct FixedPositions : phy::PositionProvider {
  explicit FixedPositions(std::vector<geom::Vec2> p) : pos(std::move(p)) {}
  std::vector<geom::Vec2> pos;
  geom::Vec2 position(NodeId node, SimTime) const override { return pos.at(node); }
};

struct HubFixture {
  HubFixture()
      : prop(phy::PropagationParams{}, 3),
        positions({{0, 0}, {200, 0}}),
        channel(sim, prop, positions),
        radio(1, channel),
        mac(sim, radio, params),
        timeline(),
        hub(sim, mac, timeline) {
    radio.add_listener(&timeline);
  }

  sim::Simulator sim;
  mac::DcfParams params;
  phy::Propagation prop;
  FixedPositions positions;
  phy::Channel channel;
  phy::Radio radio;
  mac::DcfMac mac;
  phy::CsTimeline timeline;
  ObservationHub hub;
};

TEST(Hub, ViewsWithEqualKnobsShareComponents) {
  HubFixture f;
  MonitorConfig cfg = small_monitor();
  ReferenceMonitor a(f.hub, 0, cfg);
  ReferenceMonitor b(f.hub, 0, cfg);
  EXPECT_EQ(f.hub.view_count(), 2u);
  EXPECT_EQ(f.hub.ring_count(), 1u);
  EXPECT_EQ(f.hub.tracker_count(), 1u);
  EXPECT_EQ(f.hub.density_count(), 1u);
}

TEST(Hub, DifferentKnobsGetPrivateComponents) {
  HubFixture f;
  ReferenceMonitor a(f.hub, 0, small_monitor());

  MonitorConfig ring_cfg = small_monitor();
  ring_cfg.decoded_retention = 2 * kSecond;
  ReferenceMonitor b(f.hub, 0, ring_cfg);

  MonitorConfig arma_cfg = small_monitor();
  arma_cfg.arma_alpha = 0.5;
  ReferenceMonitor c(f.hub, 0, arma_cfg);

  MonitorConfig density_cfg = small_monitor();
  density_cfg.density_window = 10 * kSecond;
  ReferenceMonitor d(f.hub, 0, density_cfg);

  EXPECT_EQ(f.hub.view_count(), 4u);
  EXPECT_EQ(f.hub.ring_count(), 2u);     // a+c+d share; b private
  EXPECT_EQ(f.hub.tracker_count(), 2u);  // a+b+d share; c private
  EXPECT_EQ(f.hub.density_count(), 2u);  // a+b+c share; d private
}

TEST(Hub, LaterAttachTimeGetsFreshComponents) {
  // A view attached mid-run must not inherit another view's accumulated
  // ring/ARMA/density history (pre-refactor monitors started empty).
  HubFixture f;
  MonitorConfig cfg = small_monitor();
  auto a = std::make_unique<ReferenceMonitor>(f.hub, 0, cfg);
  f.sim.run_until(1 * kSecond);
  ReferenceMonitor b(f.hub, 0, cfg);
  EXPECT_EQ(f.hub.ring_count(), 2u);
  EXPECT_EQ(f.hub.tracker_count(), 2u);
  EXPECT_EQ(f.hub.density_count(), 2u);
}

TEST(Hub, DetachReleasesViews) {
  HubFixture f;
  {
    ReferenceMonitor a(f.hub, 0, small_monitor());
    EXPECT_EQ(f.hub.view_count(), 1u);
  }
  EXPECT_EQ(f.hub.view_count(), 0u);
}

TEST(Hub, FactoryStandaloneMatchesLegacyLayout) {
  HubFixture f;
  // A private hub whose one view is the monitor's one-lane batch group. It
  // needs a timeline of its own: f.timeline already carries f.hub.
  phy::CsTimeline own_timeline;
  const auto m = MonitorFactory(f.sim, f.mac, own_timeline).watch(0, small_monitor());
  EXPECT_EQ(m->hub().view_count(), 1u);
  EXPECT_NE(&m->hub(), &f.hub);
  EXPECT_EQ(m->self(), 1u);  // the fixture's MAC is node 1
}

TEST(Hub, DestroyedLiveHubStopsObservingMac) {
  // A standalone monitor's private hub observes its node's MAC; once the
  // monitor is gone the MAC must not call into it. (Before the hub
  // unregistered itself, ASan reported heap-use-after-free here.)
  sim::Simulator sim;
  const mac::DcfParams params;
  phy::Propagation prop(phy::PropagationParams{}, 3);
  FixedPositions positions({{0, 0}, {200, 0}});
  phy::Channel channel(sim, prop, positions);
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<phy::CsTimeline>> timelines;
  for (NodeId i = 0; i < 2; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(i, channel));
    macs.push_back(std::make_unique<mac::DcfMac>(sim, *radios.back(), params));
    timelines.push_back(std::make_unique<phy::CsTimeline>());
    radios.back()->add_listener(timelines.back().get());
  }
  struct Counter : mac::MacObserver {
    std::uint64_t frames = 0;
    void on_frame(const mac::Frame&, SimTime, SimTime) override { ++frames; }
  } counter;
  {
    const auto m = MonitorFactory(sim, *macs[1], *timelines[1]).watch(0, small_monitor());
    macs[1]->add_observer(&counter);
  }
  for (std::uint64_t id = 0; id < 20; ++id) macs[0]->enqueue(1, 512, id);
  sim.run_until(2 * kSecond);
  EXPECT_GT(macs[1]->stats().frames_received, 0u);
  EXPECT_GT(counter.frames, 0u);  // observers registered after the hub still run
  macs[1]->remove_observer(&counter);
  const std::uint64_t seen = counter.frames;
  for (std::uint64_t id = 20; id < 30; ++id) macs[0]->enqueue(1, 512, id);
  sim.run_until(4 * kSecond);
  EXPECT_EQ(counter.frames, seen);
  macs[1]->remove_observer(&counter);  // removing twice is a no-op
}

// --- Batch config-grouping --------------------------------------------------

TEST(MonitorBatch, LanesDifferingOnlyInTestKnobsShareAGroup) {
  // sample_size / alpha / margin / detector / record_samples are per-lane
  // SoA fields; lanes agreeing on everything else collapse into one group
  // (= one hub view, one shared evaluation pass per frame).
  HubFixture f;
  MonitorBatch batch(f.hub);
  MonitorFactory factory(batch);
  const auto a = factory.watch(0, small_monitor(10));
  MonitorConfig b_cfg = small_monitor(25);
  b_cfg.alpha = 0.01;
  b_cfg.margin_fraction = 0.2;
  b_cfg.record_samples = true;
  const auto b = factory.watch(0, b_cfg);
  MonitorConfig c_cfg = small_monitor(10);
  c_cfg.detector = DetectorKind::kCusum;
  const auto c = factory.watch(0, c_cfg);

  EXPECT_EQ(batch.lane_count(), 3u);
  EXPECT_EQ(batch.group_count(), 1u);
  EXPECT_EQ(f.hub.view_count(), 1u);  // the group is the only hub view
  EXPECT_EQ(f.hub.ring_count(), 1u);
}

TEST(MonitorBatch, SharedFieldOrTargetDifferencesSplitGroups) {
  HubFixture f;
  MonitorBatch batch(f.hub);
  MonitorFactory factory(batch);
  const auto a = factory.watch(0, small_monitor(10));
  MonitorConfig estimator_cfg = small_monitor(10);
  estimator_cfg.busy_credit_factor = 0.5;
  const auto b = factory.watch(0, estimator_cfg);  // estimator knob: new group
  const auto c = factory.watch(5, small_monitor(10));  // other target: new group

  EXPECT_EQ(batch.lane_count(), 3u);
  EXPECT_EQ(batch.group_count(), 3u);
  EXPECT_EQ(f.hub.view_count(), 3u);
  // The hub still shares components across groups under its own keying:
  // all three agree on ring/ARMA/density knobs and attach time.
  EXPECT_EQ(f.hub.ring_count(), 1u);
}

TEST(MonitorBatch, LaterCreationTimeGetsFreshGroup) {
  // Mirrors Hub.LaterAttachTimeGetsFreshComponents: a lane added mid-run
  // must not inherit another group's exchange state or components.
  HubFixture f;
  MonitorBatch batch(f.hub);
  MonitorFactory factory(batch);
  const auto a = factory.watch(0, small_monitor(10));
  f.sim.run_until(1 * kSecond);
  const auto b = factory.watch(0, small_monitor(10));
  EXPECT_EQ(batch.group_count(), 2u);
  EXPECT_EQ(f.hub.ring_count(), 2u);
}

TEST(MonitorBatch, FacadeAccessorsReadLaneState) {
  HubFixture f;
  MonitorBatch batch(f.hub);
  MonitorFactory factory(batch);
  const auto m = factory.watch(0, small_monitor(10));
  EXPECT_EQ(&m->hub(), &f.hub);
  EXPECT_EQ(m->stats().rts_observed, 0u);
  EXPECT_TRUE(m->windows().empty());
  EXPECT_TRUE(m->sample_log().empty());
  m->set_active(false);
  EXPECT_FALSE(batch.lane_active(0));
  m->set_active(true);
  EXPECT_TRUE(batch.lane_active(0));
}

TEST(MonitorBatch, ZeroSampleSizeIsRejected) {
  // A zero-width window can never close and would own no arena slice.
  HubFixture f;
  MonitorBatch batch(f.hub);
  EXPECT_THROW(batch.add_lane(0, small_monitor(0)), std::invalid_argument);
  MonitorConfig cusum = small_monitor(0);
  cusum.detector = DetectorKind::kCusum;
  EXPECT_THROW(batch.add_lane(0, cusum), std::invalid_argument);
  MonitorConfig no_batch = small_monitor(10);  // an ARMA batch of no time
  no_batch.arma_batch_slots = 0;
  EXPECT_THROW(batch.add_lane(0, no_batch), std::invalid_argument);
  EXPECT_EQ(batch.lane_count(), 0u);
  phy::CsTimeline own_timeline;
  EXPECT_THROW(MonitorFactory(f.sim, f.mac, own_timeline).watch(0, small_monitor(0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace manet::detect
