// Scale subsystem: bounded per-node memory, generator input validation,
// the LayoutIndex equality oracle, and the request/response workload.
//
// The memory-ceiling test is the acceptance check for PR 9's bounded-
// memory satellite: a long lossy mobile run must keep every node's
// retained carrier history under its configured budget, and the channel's
// incremental index under a small per-node constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "net/network.hpp"
#include "net/scale.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "phy/cs_timeline.hpp"
#include "util/rng.hpp"

using namespace manet;

namespace {

/// The original O(N^2) BFS, kept as the equality oracle for
/// net::is_connected.
bool is_connected_reference(const std::vector<geom::Vec2>& nodes, double range) {
  if (nodes.empty()) return true;
  std::vector<bool> seen(nodes.size(), false);
  std::queue<std::size_t> frontier;
  frontier.push(0);
  seen[0] = true;
  std::size_t reached = 1;
  const double r2 = range * range;
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      if (seen[v]) continue;
      if ((nodes[u] - nodes[v]).norm2() <= r2) {
        seen[v] = true;
        ++reached;
        frontier.push(v);
      }
    }
  }
  return reached == nodes.size();
}

// --- CsTimeline hard budgets -------------------------------------------------

// Drives the same long busy/idle edge sequence into an unbudgeted timeline
// and a tightly budgeted one: the budgeted history must stay under its cap
// at every step, while recent-window queries remain exact.
TEST(TimelineBudget, CompactionBoundsRetentionExactly) {
  const std::size_t cap = 64;
  // Retention far beyond the driven span: only the hard budget can prune.
  phy::CsTimeline full(3600 * kSecond);
  phy::CsTimeline tight(3600 * kSecond, cap, /*max_outages=*/4);

  SimTime t = 0;
  bool busy = false;
  util::Xoshiro256ss rng(7);
  for (int i = 0; i < 5000; ++i) {
    t += kMillisecond + static_cast<SimDuration>(rng.uniform_int(900)) *
                            kMicrosecond;
    busy = !busy;
    full.on_carrier(busy, t);
    tight.on_carrier(busy, t);
    ASSERT_LE(tight.recorded_transitions(), cap);
  }

  const auto& stats = tight.budget_stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.dropped_transitions, 0u);
  EXPECT_LE(stats.peak_transitions, cap);
  EXPECT_LE(tight.retained_memory_bytes(),
            cap * 16 + tight.budget_stats().peak_outages * 16 + 64);

  // Queries inside the retained suffix agree with the unbudgeted record.
  const SimTime from = t - 10 * kMillisecond;
  EXPECT_EQ(tight.busy_time(from, t), full.busy_time(from, t));
  EXPECT_EQ(tight.countable_idle_time(from, t, 50 * kMicrosecond),
            full.countable_idle_time(from, t, 50 * kMicrosecond));
  // The cumulative counter survives compaction untouched.
  EXPECT_EQ(tight.cumulative_busy(t), full.cumulative_busy(t));
}

TEST(TimelineBudget, OutageSpansAreBounded) {
  const std::size_t cap = 8;
  phy::CsTimeline tl(3600 * kSecond, /*max_transitions=*/1024, cap);
  SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    t += kMillisecond;
    tl.on_outage(true, t);
    t += kMillisecond;
    tl.on_outage(false, t);
  }
  EXPECT_GT(tl.budget_stats().dropped_outages, 0u);
  EXPECT_LE(tl.budget_stats().peak_outages, cap);
  // Recent outage time is still exact.
  EXPECT_EQ(tl.outage_time(t - kMillisecond, t), kMillisecond);
}

// --- Generator input validation ----------------------------------------------

TEST(ScaleValidation, RejectsDegenerateParameters) {
  net::ScaleScenarioParams ok;
  EXPECT_NO_THROW(ok.validate());

  auto expect_throws = [](auto mutate) {
    net::ScaleScenarioParams p;
    mutate(p);
    EXPECT_THROW(net::make_scale_config(p), std::invalid_argument);
  };
  expect_throws([](auto& p) { p.nodes = 0; });
  expect_throws([](auto& p) { p.nodes = net::ScenarioConfig::kMaxNodes + 1; });
  expect_throws([](auto& p) { p.density_per_km2 = 0.0; });
  expect_throws([](auto& p) { p.density_per_km2 = -4.0; });
  expect_throws([](auto& p) { p.density_per_km2 = 1e-300; });  // absurd area
  expect_throws([](auto& p) { p.sim_seconds = 0.0; });
  expect_throws([](auto& p) { p.num_flows = p.nodes + 1; });
  expect_throws([](auto& p) { p.packets_per_second = -1.0; });
  expect_throws([](auto& p) { p.min_speed_mps = -1.0; });
  expect_throws([](auto& p) { p.max_speed_mps = 0.1; });  // below min speed
  expect_throws([](auto& p) { p.pause_s = -1.0; });
  expect_throws([](auto& p) { p.channel_index = "warp"; });
  // Retired lookup modes: "auto" is the only indexed path.
  expect_throws([](auto& p) { p.channel_index = "rebuild"; });
  expect_throws([](auto& p) { p.channel_index = "incremental"; });
}

TEST(TopologyValidation, RejectsOverflowAndDegenerateInputs) {
  // rows * cols would overflow size_t.
  EXPECT_THROW(net::grid_topology(std::size_t{1} << 33, std::size_t{1} << 33,
                                  200.0),
               std::invalid_argument);
  util::Xoshiro256ss rng(1);
  EXPECT_THROW(net::random_topology(0, 100.0, 100.0, rng),
               std::invalid_argument);
  EXPECT_THROW(net::random_topology(10, -5.0, 100.0, rng),
               std::invalid_argument);
  EXPECT_THROW(net::random_topology(10, 100.0, 0.0, rng),
               std::invalid_argument);
  std::vector<geom::Vec2> nodes{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_THROW(net::LayoutIndex(nodes, 0.0), std::invalid_argument);
  EXPECT_THROW(
      net::random_connected_topology(4, 1000.0, 1000.0, 0.0, rng),
      std::invalid_argument);
}

// --- LayoutIndex equality oracle ---------------------------------------------

TEST(LayoutIndex, MatchesNaiveNeighborScan) {
  for (const std::uint64_t seed : {3ull, 17ull}) {
    util::Xoshiro256ss rng(seed);
    const auto nodes = net::random_topology(300, 2500.0, 1500.0, rng);
    for (const double range : {120.0, 250.0, 600.0}) {
      const net::LayoutIndex index(nodes, range);
      std::vector<std::size_t> got;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        got.clear();
        index.neighbors_into(i, range, got);
        const auto want = net::neighbors_within(nodes, i, range);
        ASSERT_EQ(got, want) << "seed=" << seed << " range=" << range
                             << " node=" << i;
        EXPECT_EQ(index.has_neighbor(i, range), !want.empty());
      }
    }
  }
}

TEST(LayoutIndex, ConnectivityMatchesReferenceAcrossRanges) {
  for (const std::uint64_t seed : {9ull, 31ull}) {
    util::Xoshiro256ss rng(seed);
    const auto nodes = net::random_topology(200, 3000.0, 3000.0, rng);
    // Sweep from surely-disconnected to surely-connected.
    for (const double range : {50.0, 150.0, 250.0, 400.0, 800.0}) {
      EXPECT_EQ(net::is_connected(nodes, range),
                is_connected_reference(nodes, range))
          << "seed=" << seed << " range=" << range;
    }
  }
}

// --- Scale workload ----------------------------------------------------------

net::ScaleWorkload::Stats run_scale(const net::ScaleScenarioParams& params) {
  const auto config = net::make_scale_config(params);
  net::Network net(config);
  // Nodes record only once asked, so every node asks before the run.
  for (NodeId i = 0; i < net.size(); ++i) net.timeline(i);
  net::ScaleWorkload workload(net, config.num_flows, config.packets_per_second,
                              config.seed);
  workload.start(kSecond, seconds_to_time(config.sim_seconds));
  net.run_until(seconds_to_time(config.sim_seconds));
  return workload.stats();
}

TEST(ScaleWorkload, RoundTripsAndIsDeterministic) {
  net::ScaleScenarioParams params;
  params.nodes = 150;
  params.sim_seconds = 5.0;
  params.seed = 11;

  const auto first = run_scale(params);
  EXPECT_GT(first.requests_generated, 0u);
  EXPECT_GT(first.requests_delivered, 0u);
  EXPECT_GT(first.responses_delivered, 0u);

  // Same seed, fresh network: identical counters.
  const auto second = run_scale(params);
  EXPECT_EQ(first.requests_generated, second.requests_generated);
  EXPECT_EQ(first.requests_delivered, second.requests_delivered);
  EXPECT_EQ(first.responses_sent, second.responses_sent);
  EXPECT_EQ(first.responses_delivered, second.responses_delivered);

  // The receiver-lookup path is invisible to the workload: the reference
  // scan produces the same deliveries as the incremental index.
  auto scan = params;
  scan.channel_index = "scan";
  const auto ref = run_scale(scan);
  EXPECT_EQ(first.requests_delivered, ref.requests_delivered);
  EXPECT_EQ(first.responses_sent, ref.responses_sent);
  EXPECT_EQ(first.responses_delivered, ref.responses_delivered);
}

TEST(ScaleWorkload, RequiresRouters) {
  net::ScenarioConfig config;  // defaults: no AODV routing
  config.grid_rows = 2;
  config.grid_cols = 2;
  net::Network net(config);
  EXPECT_THROW(net::ScaleWorkload(net, 1, 1.0, 1), std::invalid_argument);
}

// --- Memory ceiling ----------------------------------------------------------

// The bounded-memory acceptance test: a lossy mobile run long enough for
// timelines to wrap their budgets many times over must keep every node's
// retained history under its configured cap, and the incremental channel
// index under a small per-node constant.
TEST(ScaleMemory, PerNodeRetentionStaysUnderBudget) {
  net::ScaleScenarioParams params;
  params.nodes = 200;
  params.sim_seconds = 20.0;
  params.seed = 3;
  params.timeline_retention_s = 0.5;
  params.timeline_max_transitions = 512;

  auto config = net::make_scale_config(params);
  config.faults.loss_probability = 0.2;  // lossy: retries inflate traffic

  net::Network net(config);
  // Nodes record only once asked, so every node asks before the run.
  for (NodeId i = 0; i < net.size(); ++i) net.timeline(i);
  net::ScaleWorkload workload(net, config.num_flows, config.packets_per_second,
                              config.seed);
  workload.start(kSecond, seconds_to_time(config.sim_seconds));
  net.run_until(seconds_to_time(config.sim_seconds));

  // sizeof(Transition) == sizeof(OutageSpan) == 16: the ceiling below is
  // the budget expressed in bytes, independent of traffic or run length.
  const std::size_t per_node_ceiling =
      (params.timeline_max_transitions + phy::CsTimeline::kDefaultMaxOutages) *
      16;
  bool some_node_compacted = false;
  for (NodeId i = 0; i < net.size(); ++i) {
    const auto& tl = net.timeline(i);
    EXPECT_LE(tl.retained_memory_bytes(), per_node_ceiling) << "node " << i;
    EXPECT_LE(tl.budget_stats().peak_transitions,
              params.timeline_max_transitions)
        << "node " << i;
    if (tl.budget_stats().compactions > 0) some_node_compacted = true;
  }
  EXPECT_TRUE(some_node_compacted);  // the budget, not retention, bound it

  // Channel index: bounded per node, O(N) overall.
  EXPECT_LE(net.channel().index_memory_bytes(), net.size() * std::size_t{32768});
}

}  // namespace
