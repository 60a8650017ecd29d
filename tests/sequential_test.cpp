// The sequential detector family (src/detect/sequential.*, with the
// one-object-per-detector oracle in reference_sequential.*): CUSUM and
// SPRT score dynamics, the factory/name mapping, and the Monitor
// integration — sequential detectors must flag a blatant cheat faster
// than the Wilcoxon batch (windows of evidence, not a fixed batch) while
// keeping honest runs quiet.
#include <gtest/gtest.h>

#include <cmath>

#include "detect/experiment.hpp"
#include "detect/monitor.hpp"
#include "detect/sequential.hpp"
#include "reference_sequential.hpp"
#include "util/config.hpp"

namespace manet::detect {
namespace {

TEST(SequentialNames, RoundTripAndErrors) {
  EXPECT_EQ(detector_from_name("wilcoxon"), DetectorKind::kWilcoxon);
  EXPECT_EQ(detector_from_name("cusum"), DetectorKind::kCusum);
  EXPECT_EQ(detector_from_name("sprt"), DetectorKind::kSprt);
  for (DetectorKind k :
       {DetectorKind::kWilcoxon, DetectorKind::kCusum, DetectorKind::kSprt}) {
    EXPECT_EQ(detector_from_name(detector_name(k)), k);
  }
  EXPECT_THROW(detector_from_name("page"), util::ConfigError);
}

TEST(SequentialFactory, WilcoxonNeedsNoState) {
  EXPECT_EQ(make_sequential_test(DetectorKind::kWilcoxon, {}, {}), nullptr);
  EXPECT_NE(make_sequential_test(DetectorKind::kCusum, {}, {}), nullptr);
  EXPECT_NE(make_sequential_test(DetectorKind::kSprt, {}, {}), nullptr);
}

TEST(Cusum, AccumulatesOnlyAboveDrift) {
  CusumParams p;
  p.drift = 0.05;
  p.threshold = 0.49;  // just under 5 * (0.15 - 0.05), float-safe
  CusumTest test(p);

  // Honest-looking samples (deficit at/below the drift) never accumulate.
  for (int i = 0; i < 100; ++i) {
    const auto step = test.update(0.05);
    EXPECT_FALSE(step.flag);
    EXPECT_EQ(step.score, 0.0);
  }
  // Negative deficits clamp at zero rather than building credit a cheater
  // could spend later.
  test.update(-5.0);
  EXPECT_EQ(test.score(), 0.0);

  // A sustained 0.15 deficit accumulates 0.10 per sample: threshold 0.5
  // crosses on the 5th sample.
  int flagged_at = -1;
  for (int i = 1; i <= 10; ++i) {
    if (test.update(0.15).flag) {
      flagged_at = i;
      break;
    }
  }
  EXPECT_EQ(flagged_at, 5);
  EXPECT_GE(test.score(), p.threshold);

  test.reset();
  EXPECT_EQ(test.score(), 0.0);
}

TEST(Sprt, FlagsCheatsAndRestartsOnAccept) {
  SprtParams p;  // defaults: mu0=-0.10, mu1=0.15, sigma=0.25
  SprtTest test(p);

  // Samples at the cheat mean walk the LLR up to A = ln((1-beta)/alpha).
  int steps = 0;
  while (!test.update(p.mean_cheat).flag) {
    ASSERT_LT(++steps, 1000);
  }
  const double upper = std::log((1.0 - p.beta) / p.alpha);
  EXPECT_GE(test.score(), upper);

  // Samples at the honest mean drive the walk to the accept boundary,
  // which restarts it (score clamps at 0, never negative).
  test.reset();
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(test.update(p.mean_honest).flag);
    EXPECT_GE(test.score(), 0.0);
  }
  // A restarted walk still catches a late-onset cheat.
  steps = 0;
  while (!test.update(p.mean_cheat).flag) {
    ASSERT_LT(++steps, 1000);
  }
  EXPECT_GE(test.score(), upper);
}

TEST(SequentialBank, SlotsMatchScalarTestsBitForBit) {
  // The batched pipeline runs every CUSUM/SPRT lane through one
  // SequentialBank. Interleave updates across slots with distinct params
  // and assert each slot's Step stream equals the scalar test's, bit for
  // bit — including the SPRT restart-on-accept and the reset-after-flag
  // protocol the monitor drives.
  CusumParams c1;  // defaults
  CusumParams c2;
  c2.drift = 0.02;
  c2.threshold = 0.8;
  SprtParams s1;  // defaults
  SprtParams s2;
  s2.mean_honest = -0.05;
  s2.mean_cheat = 0.25;
  s2.sigma = 0.4;

  CusumTest ct1(c1), ct2(c2);
  SprtTest st1(s1), st2(s2);
  SequentialBank bank;
  const std::size_t b1 = bank.add(DetectorKind::kCusum, c1, {});
  const std::size_t b2 = bank.add(DetectorKind::kCusum, c2, {});
  const std::size_t b3 = bank.add(DetectorKind::kSprt, {}, s1);
  const std::size_t b4 = bank.add(DetectorKind::kSprt, {}, s2);
  SequentialTest* scalar[] = {&ct1, &ct2, &st1, &st2};
  const std::size_t slots[] = {b1, b2, b3, b4};

  // A deterministic deficit stream that meanders through honest and cheat
  // regimes (the exact values are irrelevant; identity of the arithmetic
  // is the point).
  double d = -0.2;
  for (int i = 0; i < 500; ++i) {
    d = 0.31 - d * 0.93;
    for (std::size_t k = 0; k < 4; ++k) {
      const auto want = scalar[k]->update(d);
      const auto got = bank.update(slots[k], d);
      ASSERT_EQ(got.flag, want.flag) << "slot " << k << " step " << i;
      ASSERT_EQ(got.score, want.score) << "slot " << k << " step " << i;
      EXPECT_EQ(bank.score(slots[k]), scalar[k]->score())
          << "slot " << k << " step " << i;
      if (want.flag) {
        scalar[k]->reset();
        bank.reset(slots[k]);
      }
    }
  }
}

TEST(SequentialBank, RejectsWilcoxonSlots) {
  SequentialBank bank;
  EXPECT_THROW(bank.add(DetectorKind::kWilcoxon, {}, {}), util::ConfigError);
  EXPECT_EQ(bank.size(), 0u);
}

// --- Monitor integration -----------------------------------------------------

MonitorConfig seq_monitor(DetectorKind kind) {
  MonitorConfig m;
  m.sample_size = 25;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 3.0;
  m.fixed_contenders = 8.0;
  m.detector = kind;
  return m;
}

MultiDetectionConfig seq_config(double pm, std::uint64_t seed) {
  MultiDetectionConfig cfg;
  cfg.scenario.grid_rows = 3;
  cfg.scenario.grid_cols = 4;
  cfg.scenario.num_flows = 5;
  cfg.scenario.sim_seconds = 40;
  cfg.scenario.seed = seed;
  cfg.rate_pps = 25;
  cfg.pm = pm;
  cfg.monitors = {seq_monitor(DetectorKind::kWilcoxon),
                  seq_monitor(DetectorKind::kCusum),
                  seq_monitor(DetectorKind::kSprt)};
  cfg.collect_windows = true;
  return cfg;
}

TEST(SequentialMonitor, CheaterFlaggedNoLaterThanWilcoxon) {
  const MultiDetectionResult r = run_multi_detection_experiment(seq_config(80, 7));
  const MonitorStats& wilcoxon = r.per_config[0].stats;
  const MonitorStats& cusum = r.per_config[1].stats;
  const MonitorStats& sprt = r.per_config[2].stats;

  ASSERT_NE(wilcoxon.first_flag_time, kTimeNever);
  ASSERT_NE(cusum.first_flag_time, kTimeNever);
  ASSERT_NE(sprt.first_flag_time, kTimeNever);
  // A sequential detector emits its verdict the moment the score crosses;
  // the batch test must wait for its window to fill. (Deterministic
  // checks fire identically in all three configs, so a det-flag tie is
  // possible but the sequential side can never be slower.)
  EXPECT_LE(cusum.first_flag_time, wilcoxon.first_flag_time);
  EXPECT_LE(sprt.first_flag_time, wilcoxon.first_flag_time);
}

TEST(SequentialMonitor, HonestRunStaysQuietStatistically) {
  const MultiDetectionResult r = run_multi_detection_experiment(seq_config(0, 11));
  for (std::size_t i = 0; i < r.per_config.size(); ++i) {
    const DetectionResult& d = r.per_config[i];
    EXPECT_GT(d.windows, 0u) << "config " << i;
    // Checkpoint windows keep the denominator alive for honest runs; the
    // statistical flag rate must stay near zero for every detector.
    EXPECT_LE(d.statistical_rate, 0.1) << "config " << i;
  }
}

TEST(SequentialMonitor, CheckpointWindowsCarryScores) {
  // Sequential configs emit an unflagged checkpoint window at least every
  // sample_size samples; its p_less = exp(-score) is a valid probability.
  MultiDetectionConfig cfg = seq_config(0, 3);
  cfg.monitors = {seq_monitor(DetectorKind::kCusum)};
  const MultiDetectionResult r = run_multi_detection_experiment(cfg);
  const DetectionResult& d = r.per_config[0];
  ASSERT_GT(d.window_log.size(), 0u);
  for (const WindowResult& w : d.window_log) {
    EXPECT_GE(w.p_less, 0.0);
    EXPECT_LE(w.p_less, 1.0);
  }
}

}  // namespace
}  // namespace manet::detect
