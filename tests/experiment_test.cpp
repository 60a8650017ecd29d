// Tests for the experiment harnesses (src/detect/experiment.*) — the
// machinery the figure benches are built on.
#include <gtest/gtest.h>

#include <vector>

#include "detect/experiment.hpp"
#include "exp/engine.hpp"
#include "exp/seeding.hpp"

namespace manet::detect {
namespace {

net::ScenarioConfig tiny_grid(double seconds) {
  net::ScenarioConfig cfg;
  cfg.grid_rows = 3;
  cfg.grid_cols = 4;
  cfg.num_flows = 5;
  cfg.sim_seconds = seconds;
  cfg.seed = 41;
  return cfg;
}

MonitorConfig small_monitor(std::size_t ss = 10) {
  MonitorConfig m;
  m.sample_size = ss;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 3.0;
  m.fixed_contenders = 8.0;
  return m;
}

TEST(Experiment, IdenticalMonitorConfigsSeeIdenticalHistory) {
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(30);
  cfg.rate_pps = 25;
  cfg.pm = 60;
  cfg.monitors = {small_monitor(), small_monitor()};  // twins

  const auto result = run_multi_detection_experiment(cfg);
  ASSERT_EQ(result.per_config.size(), 2u);
  EXPECT_EQ(result.per_config[0].windows, result.per_config[1].windows);
  EXPECT_EQ(result.per_config[0].flagged, result.per_config[1].flagged);
  EXPECT_EQ(result.per_config[0].stats.samples,
            result.per_config[1].stats.samples);
}

TEST(Experiment, TrialsAggregateAcrossSeeds) {
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(20);
  cfg.rate_pps = 25;
  cfg.pm = 60;
  cfg.monitors = {small_monitor()};

  exp::Engine serial(1);
  const auto one = run_multi_detection_experiment(cfg);
  const auto three = run_multi_detection_trials(cfg, 3, serial);
  EXPECT_GT(three.per_config[0].windows, one.per_config[0].windows);
  EXPECT_GE(three.per_config[0].windows, 2 * one.per_config[0].windows / 2);
  // First trial is seed-identical to the single run.
  EXPECT_GE(three.per_config[0].windows, one.per_config[0].windows);
  EXPECT_GE(three.per_config[0].flagged, one.per_config[0].flagged);
}

TEST(Experiment, StatisticalFlagsAreSubsetOfAllFlags) {
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(40);
  cfg.rate_pps = 25;
  cfg.pm = 90;
  cfg.monitors = {small_monitor()};
  const auto result = run_multi_detection_experiment(cfg);
  const auto& r = result.per_config[0];
  EXPECT_LE(r.flagged_statistical, r.flagged);
  EXPECT_LE(r.flagged, r.windows);
  EXPECT_GE(r.detection_rate, r.statistical_rate);
}

TEST(Experiment, DifferentSampleSizesPartitionTheSameSamples) {
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(40);
  cfg.rate_pps = 25;
  cfg.pm = 0;
  cfg.monitors = {small_monitor(10), small_monitor(50)};
  const auto result = run_multi_detection_experiment(cfg);
  // Same channel history: both monitors accepted the same sample stream,
  // chunked differently.
  EXPECT_EQ(result.per_config[0].stats.samples,
            result.per_config[1].stats.samples);
  EXPECT_GE(result.per_config[0].stats.windows,
            4 * result.per_config[1].stats.windows);
}

TEST(Experiment, CondProbDeterministicPerSeed) {
  CondProbConfig cfg;
  cfg.scenario = tiny_grid(10);
  cfg.rate_pps = 20;
  cfg.warmup_s = 1;
  cfg.measure_s = 8;
  cfg.monitor = small_monitor();

  const auto a = run_cond_prob_experiment(cfg);
  const auto b = run_cond_prob_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.measured_rho, b.measured_rho);
  EXPECT_DOUBLE_EQ(a.sim_p_busy_given_idle, b.sim_p_busy_given_idle);
  EXPECT_DOUBLE_EQ(a.sim_p_idle_given_busy, b.sim_p_idle_given_busy);
  // Analytical values are pure functions of the measured state.
  EXPECT_DOUBLE_EQ(a.ana_p_busy_given_idle, b.ana_p_busy_given_idle);
}

TEST(Experiment, MeasuredRhoIsLongHorizonExact) {
  // The reported intensity must survive timeline pruning on long runs
  // (regression test for the cumulative-busy counter).
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(40);  // > 10 s retention
  cfg.rate_pps = 25;
  cfg.pm = 0;
  cfg.monitors = {small_monitor()};
  const auto result = run_multi_detection_experiment(cfg);
  EXPECT_GT(result.measured_rho, 0.05);
  EXPECT_LT(result.measured_rho, 0.95);
}

TEST(Experiment, ParallelTrialsBitIdenticalToSerial) {
  // The engine's core guarantee: aggregated output does not depend on the
  // worker count. Exact equality, including the floating-point fields —
  // aggregation happens in trial order on the caller's thread.
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(15);
  cfg.rate_pps = 25;
  cfg.pm = 60;
  cfg.monitors = {small_monitor()};

  exp::Engine serial(1), parallel(4);
  const auto a = run_multi_detection_trials(cfg, 4, serial);
  const auto b = run_multi_detection_trials(cfg, 4, parallel);

  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.measured_rho, b.measured_rho);  // bitwise, not near
  ASSERT_EQ(a.per_config.size(), b.per_config.size());
  EXPECT_EQ(a.per_config[0].windows, b.per_config[0].windows);
  EXPECT_EQ(a.per_config[0].flagged, b.per_config[0].flagged);
  EXPECT_EQ(a.per_config[0].flagged_statistical,
            b.per_config[0].flagged_statistical);
  EXPECT_EQ(a.per_config[0].detection_rate, b.per_config[0].detection_rate);
  EXPECT_EQ(a.per_config[0].stats.samples, b.per_config[0].stats.samples);
  EXPECT_EQ(a.per_config[0].stats.rts_observed,
            b.per_config[0].stats.rts_observed);
}

TEST(Experiment, TrialSeedsMatchHistoricalSerialSeeding) {
  // Trial i of run_multi_detection_trials must equal a lone experiment
  // seeded base + i (the old `++seed` loop).
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(15);
  cfg.rate_pps = 25;
  cfg.pm = 60;
  cfg.monitors = {small_monitor()};

  std::uint64_t windows = 0, flagged = 0, samples = 0;
  for (int i = 0; i < 3; ++i) {
    MultiDetectionConfig one = cfg;
    one.scenario.seed = exp::trial_seed(cfg.scenario.seed,
                                        static_cast<std::uint64_t>(i));
    const auto r = run_multi_detection_experiment(one);
    windows += r.per_config[0].windows;
    flagged += r.per_config[0].flagged;
    samples += r.per_config[0].stats.samples;
  }

  exp::Engine engine(2);
  const auto agg = run_multi_detection_trials(cfg, 3, engine);
  EXPECT_EQ(agg.per_config[0].windows, windows);
  EXPECT_EQ(agg.per_config[0].flagged, flagged);
  EXPECT_EQ(agg.per_config[0].stats.samples, samples);
}

TEST(Experiment, SweepMatchesPerPointTrials) {
  // One flattened sweep over several points must equal running each point
  // on its own, regardless of worker count.
  MultiDetectionConfig base;
  base.scenario = tiny_grid(15);
  base.rate_pps = 25;
  base.monitors = {small_monitor()};

  std::vector<MultiDetectionConfig> points;
  for (double pm : {0.0, 60.0}) {
    MultiDetectionConfig p = base;
    p.pm = pm;
    points.push_back(p);
  }

  exp::Engine engine(3), serial(1);
  const auto swept = run_multi_detection_sweep(points, 2, engine);
  ASSERT_EQ(swept.size(), 2u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto lone = run_multi_detection_trials(points[i], 2, serial);
    EXPECT_EQ(swept[i].per_config[0].windows, lone.per_config[0].windows);
    EXPECT_EQ(swept[i].per_config[0].flagged, lone.per_config[0].flagged);
    EXPECT_EQ(swept[i].measured_rho, lone.measured_rho);
  }
}

TEST(Experiment, EngineFailuresAreDeterministic) {
  // An invalid point (no monitors) throws the same error through the
  // parallel path as the serial one.
  MultiDetectionConfig bad;
  bad.scenario = tiny_grid(5);
  exp::Engine engine(4);
  EXPECT_THROW(run_multi_detection_trials(bad, 3, engine),
               std::invalid_argument);
}

TEST(Experiment, RequiresAtLeastOneMonitor) {
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(5);
  EXPECT_THROW(run_multi_detection_experiment(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace manet::detect
