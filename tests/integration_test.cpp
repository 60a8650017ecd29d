// End-to-end tests of the full stack: Table-1 scenarios, the detection
// experiment harness, and the paper's headline claims at reduced scale
// (short runs, fixed seeds) so the suite stays fast.
#include <gtest/gtest.h>

#include <tuple>

#include "detect/experiment.hpp"
#include "exp/engine.hpp"
#include "net/load.hpp"

namespace manet::detect {
namespace {

net::ScenarioConfig fast_grid(double sim_seconds = 40) {
  net::ScenarioConfig cfg;  // paper defaults: 7x8 grid etc.
  cfg.sim_seconds = sim_seconds;
  cfg.num_flows = 30;
  cfg.seed = 21;
  return cfg;
}

MonitorConfig grid_monitor(std::size_t sample_size = 10) {
  MonitorConfig m;
  m.sample_size = sample_size;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;  // paper Section 5
  m.fixed_contenders = 20.0;
  return m;
}

/// One tagged node watched by one monitor configuration at 15 pkt/s.
MultiDetectionConfig grid_point(double sim_seconds, double pm,
                                const MonitorConfig& monitor) {
  MultiDetectionConfig cfg;
  cfg.scenario = fast_grid(sim_seconds);
  cfg.rate_pps = 15;
  cfg.pm = pm;
  cfg.monitors = {monitor};
  return cfg;
}

DetectionResult run_once(const MultiDetectionConfig& cfg) {
  return run_multi_detection_experiment(cfg).per_config.at(0);
}

DetectionResult run_trials(const MultiDetectionConfig& cfg, int runs) {
  exp::Engine serial(1);
  return run_multi_detection_trials(cfg, runs, serial).per_config.at(0);
}

TEST(Integration, GridScenarioCarriesTraffic) {
  const MultiDetectionResult result =
      run_multi_detection_experiment(grid_point(20, 0, grid_monitor()));
  const DetectionResult& r = result.per_config.at(0);
  EXPECT_GT(r.stats.rts_observed, 50u);
  EXPECT_GT(r.stats.samples, 20u);
  EXPECT_GT(result.measured_rho, 0.02);
  EXPECT_LT(result.measured_rho, 0.98);
}

TEST(Integration, HonestNetworkHasLowFalseAlarmRate) {
  const DetectionResult r = run_trials(grid_point(60, 0, grid_monitor(10)), 3);
  ASSERT_GT(r.windows, 20u);
  // Paper: misdiagnosis < 1%. Allow slack for the small trial count.
  EXPECT_LT(r.detection_rate, 0.05);
}

TEST(Integration, HeavyMisbehaviorIsDetectedReliably) {
  const DetectionResult r = run_once(grid_point(40, 90, grid_monitor(10)));
  ASSERT_GT(r.windows, 10u);
  EXPECT_GT(r.detection_rate, 0.75);
}

TEST(Integration, DetectionProbabilityIncreasesWithMisbehavior) {
  auto rate_for = [](double pm) {
    const DetectionResult r = run_once(grid_point(40, pm, grid_monitor(10)));
    return r.windows ? r.detection_rate : -1.0;
  };
  const double low = rate_for(20);
  const double high = rate_for(85);
  ASSERT_GE(low, 0.0);
  ASSERT_GE(high, 0.0);
  EXPECT_GE(high, low);
  EXPECT_GT(high, 0.7);
}

TEST(Integration, LargerSampleSizeDetectsSubtlerMisbehavior) {
  auto rate_for = [](std::size_t ss) {
    const DetectionResult r = run_trials(grid_point(90, 50, grid_monitor(ss)), 2);
    return r.windows ? r.detection_rate : -1.0;
  };
  const double small = rate_for(10);
  const double large = rate_for(50);
  ASSERT_GE(small, 0.0);
  ASSERT_GE(large, 0.0);
  EXPECT_GE(large + 0.05, small);  // allow small-sample noise
}

TEST(Integration, CondProbExperimentProducesConsistentProbabilities) {
  CondProbConfig cfg;
  cfg.scenario = fast_grid();
  cfg.rate_pps = 15;
  cfg.warmup_s = 2;
  cfg.measure_s = 20;
  cfg.monitor = grid_monitor();
  const CondProbResult r = run_cond_prob_experiment(cfg);
  EXPECT_GT(r.measured_rho, 0.0);
  EXPECT_LT(r.measured_rho, 1.0);
  EXPECT_GE(r.sim_p_busy_given_idle, 0.0);
  EXPECT_LE(r.sim_p_busy_given_idle, 1.0);
  EXPECT_GE(r.sim_p_idle_given_busy, 0.0);
  EXPECT_LE(r.sim_p_idle_given_busy, 1.0);
  EXPECT_GT(r.ana_p_busy_given_idle, 0.0);
  EXPECT_GT(r.ana_p_idle_given_busy, 0.0);
}

TEST(Integration, CondProbBusyGivenIdleGrowsWithLoad) {
  auto at_rate = [](double rate) {
    CondProbConfig cfg;
    cfg.scenario = fast_grid();
    cfg.rate_pps = rate;
    cfg.warmup_s = 2;
    cfg.measure_s = 20;
    cfg.monitor = grid_monitor();
    return run_cond_prob_experiment(cfg);
  };
  const auto lo = at_rate(4);
  const auto hi = at_rate(40);
  EXPECT_GT(hi.measured_rho, lo.measured_rho);
  EXPECT_GT(hi.sim_p_busy_given_idle, lo.sim_p_busy_given_idle);
  EXPECT_GT(hi.ana_p_busy_given_idle, lo.ana_p_busy_given_idle);
}

TEST(Integration, MobileScenarioStillDetects) {
  MultiDetectionConfig cfg = grid_point(60, 90, grid_monitor(10));
  cfg.scenario.mobility = net::MobilityKind::kRandomWaypoint;
  cfg.scenario.max_speed_mps = 20;
  cfg.mobile_handoff = true;
  const DetectionResult r = run_once(cfg);
  ASSERT_GT(r.windows, 3u);
  EXPECT_GT(r.detection_rate, 0.6);
}

TEST(Integration, RandomTopologyScenarioRuns) {
  MonitorConfig m;  // density-estimated counts for random layouts
  m.sample_size = 10;
  MultiDetectionConfig cfg = grid_point(20, 0, m);
  cfg.scenario.topology = net::TopologyKind::kRandom;
  cfg.scenario.traffic = net::TrafficKind::kCbr;
  const DetectionResult r = run_once(cfg);
  EXPECT_GT(r.stats.rts_observed, 10u);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run = [] {
    const DetectionResult r = run_once(grid_point(20, 40, grid_monitor(10)));
    return std::make_tuple(r.windows, r.flagged, r.stats.samples);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace manet::detect
