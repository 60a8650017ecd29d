// Golden digests of the detection results.
//
// Each detection case runs one short run_multi_detection_experiment with trace
// recording on, replays the recorded traces through replay_detection, and
// hashes (MD5) a canonical text rendering of both results: every
// per-config counter, the aggregated MonitorStats, and every post-warmup
// WindowResult (p-values as hex floats, so the digest is bit-exact).
// CondProbFig3 pins the fig3 conditional-probability measurement the same
// way.
//
// The digests pin the detection pipeline's output, not its structure: a
// refactor of the monitor, the hub, the batch lanes, the statistics, or
// the replay path must leave every digest unchanged. A change that is
// meant to move results re-records them in the same commit and says why.
// On a mismatch the failure message prints the digest the code produced.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "crypto/md5.hpp"
#include "detect/experiment.hpp"
#include "detect/replay.hpp"
#include "detect/trace.hpp"

namespace manet::detect {
namespace {

void append(std::string& out, const char* key, unsigned long long value) {
  out += key;
  out += '=';
  out += std::to_string(value);
  out += ' ';
}

void append_double(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%a ", key, value);
  out += buf;
}

void append_stats(std::string& out, const MonitorStats& s) {
  append(out, "rts", s.rts_observed);
  append(out, "samples", s.samples);
  append(out, "windows", s.windows);
  append(out, "flagged", s.flagged_windows);
  append(out, "seq_off", s.seq_off_violations);
  append(out, "attempt", s.attempt_violations);
  append(out, "impossible", s.impossible_backoff);
  append(out, "no_anchor", s.skipped_no_anchor);
  append(out, "long_window", s.skipped_long_window);
  append(out, "queue_gap", s.skipped_queue_gap);
  append(out, "resyncs", s.seq_off_resyncs);
  append(out, "lost", s.frames_lost);
  append(out, "impaired", s.windows_discarded_impaired);
  append(out, "first_flag", static_cast<unsigned long long>(s.first_flag_time));
  append(out, "to_first_flag", s.windows_to_first_flag);
}

/// Canonical rendering of a result: one line per config plus one line per
/// window. Wall-clock fields are excluded (not deterministic).
std::string canonical(const MultiDetectionResult& r) {
  std::string out;
  append_double(out, "rho", r.measured_rho);
  append(out, "handoffs", r.handoffs);
  append(out, "monitor_nodes", r.monitor_nodes);
  out += '\n';
  for (const DetectionResult& d : r.per_config) {
    append(out, "windows", d.windows);
    append(out, "flagged", d.flagged);
    append(out, "flagged_stat", d.flagged_statistical);
    append_double(out, "rate", d.detection_rate);
    append_double(out, "stat_rate", d.statistical_rate);
    append_stats(out, d.stats);
    out += '\n';
    for (const WindowResult& w : d.window_log) {
      append(out, "at", static_cast<unsigned long long>(w.at));
      append_double(out, "p", w.p_less);
      append(out, "s", w.statistical_flag ? 1 : 0);
      append(out, "d", w.deterministic_flag ? 1 : 0);
      out += '\n';
    }
  }
  return out;
}

/// MD5 over the live result followed by the replayed result.
std::string golden_digest(MultiDetectionConfig cfg) {
  TraceRecorder recorder;
  cfg.collect_windows = true;
  cfg.trace = &recorder;
  const MultiDetectionResult live = run_multi_detection_experiment(cfg);
  const MultiDetectionResult replayed =
      replay_detection(recorder, cfg.monitors, cfg.warmup_s,
                       /*collect_windows=*/true);
  crypto::Md5 md5;
  md5.update(canonical(live));
  md5.update("--replay--\n");
  md5.update(canonical(replayed));
  return crypto::to_hex(md5.finalize());
}

/// The fig5 bench's monitor set: four sample sizes, fixed grid counts.
std::vector<MonitorConfig> fig5_monitors() {
  std::vector<MonitorConfig> out;
  for (std::size_t ss : {10u, 25u, 50u, 100u}) {
    MonitorConfig m;
    m.sample_size = ss;
    m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
    m.fixed_contenders = 20.0;
    out.push_back(m);
  }
  return out;
}

/// Table-1 grid, fig5 monitors, a fixed (uncalibrated) rate.
MultiDetectionConfig fig5_config(double pm) {
  MultiDetectionConfig cfg;
  cfg.scenario.sim_seconds = 30;
  cfg.scenario.seed = 101;
  cfg.rate_pps = 30.0;
  cfg.pm = pm;
  cfg.monitors = fig5_monitors();
  return cfg;
}

MonitorConfig small_monitor(std::size_t ss) {
  MonitorConfig m;
  m.sample_size = ss;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 3.0;
  m.fixed_contenders = 8.0;
  return m;
}

/// A 3x4 grid with three monitor configs (two sharing a sample size).
MultiDetectionConfig tiny_config(double seconds, std::uint64_t seed) {
  MultiDetectionConfig cfg;
  cfg.scenario.grid_rows = 3;
  cfg.scenario.grid_cols = 4;
  cfg.scenario.num_flows = 5;
  cfg.scenario.sim_seconds = seconds;
  cfg.scenario.seed = seed;
  cfg.rate_pps = 25;
  cfg.pm = 60;
  cfg.monitors = {small_monitor(10), small_monitor(25), small_monitor(10)};
  return cfg;
}

TEST(Golden, Fig5HonestPm0) {
  EXPECT_EQ(golden_digest(fig5_config(0.0)),
            "2203e0fded8acda091b5da162a940fc2");
}

TEST(Golden, Fig5CheaterPm50) {
  EXPECT_EQ(golden_digest(fig5_config(50.0)),
            "65b1ae646e7eb471e784b3bfb3dc79f6");
}

TEST(Golden, AllPairs) {
  MultiDetectionConfig cfg = tiny_config(30, 19);
  cfg.all_pairs = true;
  EXPECT_EQ(golden_digest(cfg),
            "de724e3bf6f61c6fe9efdd55013c2dc0");
}

TEST(Golden, MobileHandoff) {
  MultiDetectionConfig cfg = tiny_config(40, 11);
  cfg.scenario.mobility = net::MobilityKind::kRandomWaypoint;
  cfg.scenario.max_speed_mps = 20.0;
  cfg.scenario.pause_s = 0.0;
  cfg.mobile_handoff = true;
  EXPECT_EQ(golden_digest(cfg),
            "62eeee782f7f607ebdcfa9cef6460ac0");
}

TEST(Golden, LossyWithOutage) {
  MultiDetectionConfig cfg = tiny_config(30, 77);
  cfg.scenario.faults.loss_probability = 0.10;
  cfg.scenario.faults.corrupt_probability = 0.03;
  cfg.scenario.faults.outages.push_back(
      {.node = 1, .start = 5 * kSecond, .stop = 7 * kSecond});
  EXPECT_EQ(golden_digest(cfg),
            "464fa4c9f08e2680b841e0d22f3e3a24");
}

TEST(Golden, Sybil) {
  MultiDetectionConfig cfg = tiny_config(30, 29);
  cfg.pm = 0;
  cfg.attacker.kind = AttackerKind::kSybil;
  cfg.attacker.pm = 60.0;
  EXPECT_EQ(golden_digest(cfg),
            "b961949f8de59e5da1dafb188b3d51c4");
}

TEST(Golden, SequentialDetectors) {
  MultiDetectionConfig cfg = tiny_config(30, 53);
  MonitorConfig cusum = small_monitor(10);
  cusum.detector = DetectorKind::kCusum;
  MonitorConfig sprt = small_monitor(10);
  sprt.detector = DetectorKind::kSprt;
  cfg.monitors = {small_monitor(10), cusum, sprt};
  EXPECT_EQ(golden_digest(cfg),
            "cb5a735b7b829e85ee26b4040880a884");
}

TEST(Golden, CondProbFig3) {
  // The fig3 measurement (no monitors): the channel, MAC, and joint
  // busy/idle tracking under Poisson grid traffic at two rates.
  std::string out;
  for (double rate : {10.0, 40.0}) {
    CondProbConfig cfg;
    cfg.scenario.seed = 1;
    cfg.rate_pps = rate;
    cfg.warmup_s = 3.0;
    cfg.measure_s = 10.0;
    cfg.monitor.fixed_n = cfg.monitor.fixed_k = 5.0;
    cfg.monitor.fixed_m = cfg.monitor.fixed_j = 5.0;
    cfg.monitor.fixed_contenders = 20.0;
    const CondProbResult r = run_cond_prob_experiment(cfg);
    append_double(out, "rho", r.measured_rho);
    append_double(out, "sim_bi", r.sim_p_busy_given_idle);
    append_double(out, "sim_ib", r.sim_p_idle_given_busy);
    append_double(out, "ana_bi", r.ana_p_busy_given_idle);
    append_double(out, "ana_ib", r.ana_p_idle_given_busy);
    out += '\n';
  }
  EXPECT_EQ(crypto::to_hex(crypto::Md5::hash(out)),
            "6fe8630c1e4f2294498383a173676898");
}

}  // namespace
}  // namespace manet::detect
