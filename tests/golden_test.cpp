// Golden digests of the detection results.
//
// Each detection case runs one short run_multi_detection_experiment with trace
// recording on, replays the recorded traces through replay_detection, and
// hashes (MD5) a canonical text rendering of both results: every
// per-config counter, the aggregated MonitorStats, and every post-warmup
// WindowResult (p-values as hex floats, so the digest is bit-exact).
// Fig6 pins the Table-1 honest misdiagnosis trials and Roc the per-trial
// decision streams and scored ROC/TTD points of a small adversary sweep
// over every detector. CondProbFig3 pins the fig3 conditional-probability
// measurement the same way, and ScaleRwp the counters of a 200-node
// random-waypoint AODV request/response run (the mobile channel index at
// scale).
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
#include "detect/roc.hpp"
#include "detect/sequential.hpp"
#include "detect/trace.hpp"
#include "net/network.hpp"
#include "net/scale.hpp"
#include "util/stats.hpp"

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

void append_window(std::string& out, const WindowResult& w) {
  append(out, "at", static_cast<unsigned long long>(w.at));
  append_double(out, "p", w.p_less);
  append(out, "s", w.statistical_flag ? 1 : 0);
  append(out, "d", w.deterministic_flag ? 1 : 0);
  out += '\n';
}

/// Every trial's decision stream, one "trial" header line per trial.
void append_trial_logs(std::string& out, const DetectionResult& d) {
  for (std::size_t t = 0; t < d.trial_logs.size(); ++t) {
    append(out, "trial", t);
    out += '\n';
    for (const WindowResult& w : d.trial_logs[t]) append_window(out, w);
  }
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
    for (const WindowResult& w : d.window_log) append_window(out, w);
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
            "f4225b6462e49da18dc81edd259600ba");
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

TEST(Golden, Table1LossyWithOutage) {
  // The 56-radio Table-1 grid (above the channel's small-network cutoff,
  // so the cell probe serves every transmission) with saturated drop-tail
  // queues, i.i.d. loss and corruption, and one radio deaf mid-run.
  MultiDetectionConfig cfg = fig5_config(0.0);
  cfg.scenario.sim_seconds = 20;
  cfg.rate_pps = 1024.0;
  cfg.scenario.faults.loss_probability = 0.10;
  cfg.scenario.faults.corrupt_probability = 0.03;
  cfg.scenario.faults.outages.push_back(
      {.node = 20, .start = 8 * kSecond, .stop = 10 * kSecond});
  EXPECT_EQ(golden_digest(cfg),
            "1f2a131fa8e5da62e30807a2fbc25187");
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

TEST(Golden, Fig6) {
  // The fig6 bench's Table-1 honest misdiagnosis point: everyone honest,
  // sample sizes 10 and 25, two consecutive-seed trials at a fixed rate.
  // Every flagged window is a false alarm.
  MultiDetectionConfig cfg;
  cfg.scenario.sim_seconds = 60;
  cfg.scenario.seed = 301;
  cfg.rate_pps = 20.0;
  cfg.collect_windows = true;
  for (std::size_t ss : {10u, 25u}) {
    MonitorConfig m;
    m.sample_size = ss;
    m.alpha = 0.01;
    m.margin_fraction = 0.10;
    m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
    m.fixed_contenders = 20.0;
    cfg.monitors.push_back(m);
  }
  exp::Engine serial(1);
  const MultiDetectionResult r = run_multi_detection_trials(cfg, 2, serial);
  std::string out;
  append_double(out, "rho", r.measured_rho);
  append(out, "monitor_nodes", r.monitor_nodes);
  out += '\n';
  for (const DetectionResult& d : r.per_config) {
    util::ProportionEstimator misdiag;
    for (std::uint64_t w = 0; w < d.windows; ++w) misdiag.add(w < d.flagged);
    append(out, "windows", d.windows);
    append(out, "flagged", d.flagged);
    append(out, "flagged_stat", d.flagged_statistical);
    append_double(out, "misdiag", d.detection_rate);
    append_double(out, "wilson_upper", misdiag.wilson_upper());
    append_stats(out, d.stats);
    out += '\n';
    append_trial_logs(out, d);
  }
  EXPECT_EQ(crypto::to_hex(crypto::Md5::hash(out)),
            "88853ef6b78c91c0968c7694e3fe137c");
}

TEST(Golden, Roc) {
  // A small fig_roc_adversaries sweep: two attackers and the honest
  // baseline, each closed by the wilcoxon, cusum and sprt detectors at
  // sample size 10, scored over a threshold sweep. Pins the per-trial
  // decision streams and every scored ROC/TTD point.
  const std::vector<DetectorKind> detectors = {
      DetectorKind::kWilcoxon, DetectorKind::kCusum, DetectorKind::kSprt};
  const std::vector<double> thresholds = {0.0005, 0.005, 0.05, 0.2};
  const auto make_point = [&](const std::string& attacker) {
    MultiDetectionConfig cfg;
    cfg.scenario.sim_seconds = 30;
    cfg.scenario.seed = 601;
    cfg.rate_pps = 40.0;
    cfg.attacker = attacker_spec_from_name(attacker, AttackerTuning{});
    cfg.collect_windows = true;
    for (DetectorKind kind : detectors) {
      MonitorConfig m;
      m.sample_size = 10;
      m.margin_fraction = 0.10;
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
      m.fixed_contenders = 20.0;
      m.detector = kind;
      cfg.monitors.push_back(m);
    }
    return cfg;
  };
  const MultiDetectionConfig honest_cfg = make_point("honest");
  exp::Engine serial(1);
  const MultiDetectionResult honest = run_multi_detection_trials(honest_cfg, 2, serial);
  std::string out;
  for (const char* attacker : {"pm50", "colluding"}) {
    const MultiDetectionResult attack =
        run_multi_detection_trials(make_point(attacker), 2, serial);
    for (std::size_t ci = 0; ci < detectors.size(); ++ci) {
      out += attacker;
      out += ' ';
      out += detector_name(detectors[ci]);
      out += '\n';
      append_trial_logs(out, attack.per_config[ci]);
      const RocCurve curve =
          score_roc_curve(attack.per_config[ci], honest.per_config[ci],
                          thresholds, honest_cfg.warmup_s);
      append_double(out, "auc", curve.auc);
      out += '\n';
      for (const RocThresholdPoint& p : curve.points) {
        append_double(out, "threshold", p.threshold);
        append(out, "attack_windows", p.attack_windows);
        append(out, "attack_flagged", p.attack_flagged);
        append(out, "honest_windows", p.honest_windows);
        append(out, "honest_flagged", p.honest_flagged);
        append_double(out, "det", p.detection_rate);
        append_double(out, "fa", p.false_alarm_rate);
        append(out, "trials", p.trials);
        append(out, "detected", p.detected_trials);
        for (double ttd : p.ttd_s) append_double(out, "ttd", ttd);
        append_double(out, "median_ttd", p.median_ttd_s);
        append_double(out, "mean_ttd", p.mean_ttd_s);
        append_double(out, "min_ttd", p.min_ttd_s);
        append_double(out, "max_ttd", p.max_ttd_s);
        out += '\n';
      }
    }
  }
  for (std::size_t ci = 0; ci < detectors.size(); ++ci) {
    out += "honest ";
    out += detector_name(detectors[ci]);
    out += '\n';
    append_trial_logs(out, honest.per_config[ci]);
  }
  EXPECT_EQ(crypto::to_hex(crypto::Md5::hash(out)),
            "b6edf392bba2ff73b41a210520734626");
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

TEST(Golden, ScaleRwp) {
  // Above the channel's small-network cutoff, with mobility: every
  // delivery decision of the incremental index feeds these counters.
  net::ScaleScenarioParams params;
  params.nodes = 200;
  params.sim_seconds = 6.0;
  params.seed = 5;
  const net::ScenarioConfig config = net::make_scale_config(params);
  net::Network net(config);
  net::ScaleWorkload workload(net, config.num_flows, config.packets_per_second,
                              config.seed);
  workload.start(kSecond, seconds_to_time(config.sim_seconds));
  net.run_until(seconds_to_time(config.sim_seconds));

  std::string out;
  const net::ScaleWorkload::Stats w = workload.stats();
  append(out, "generated", w.requests_generated);
  append(out, "delivered", w.requests_delivered);
  append(out, "responses_sent", w.responses_sent);
  append(out, "responses_delivered", w.responses_delivered);
  out += '\n';
  net::AodvStats aodv;
  mac::MacStats mac;
  for (NodeId i = 0; i < net.size(); ++i) {
    const net::AodvStats& a = net.router(i)->stats();
    aodv.originated += a.originated;
    aodv.delivered += a.delivered;
    aodv.forwarded += a.forwarded;
    aodv.rreq_sent += a.rreq_sent;
    aodv.rrep_sent += a.rrep_sent;
    aodv.rerr_sent += a.rerr_sent;
    aodv.discovery_failures += a.discovery_failures;
    aodv.drops_no_route += a.drops_no_route;
    aodv.drops_link_failure += a.drops_link_failure;
    aodv.drops_buffer_full += a.drops_buffer_full;
    const mac::MacStats& m = net.mac(i).stats();
    mac.enqueued += m.enqueued;
    mac.queue_drops += m.queue_drops;
    mac.rts_sent += m.rts_sent;
    mac.cts_sent += m.cts_sent;
    mac.data_sent += m.data_sent;
    mac.ack_sent += m.ack_sent;
    mac.retries += m.retries;
    mac.retry_drops += m.retry_drops;
    mac.packets_acked += m.packets_acked;
    mac.packets_delivered += m.packets_delivered;
    mac.broadcasts_sent += m.broadcasts_sent;
    mac.broadcasts_received += m.broadcasts_received;
    mac.duplicate_data += m.duplicate_data;
    mac.rx_errors += m.rx_errors;
    mac.frames_received += m.frames_received;
    mac.backoffs_started += m.backoffs_started;
    mac.backoff_slots_total += m.backoff_slots_total;
  }
  append(out, "originated", aodv.originated);
  append(out, "l3_delivered", aodv.delivered);
  append(out, "forwarded", aodv.forwarded);
  append(out, "rreq", aodv.rreq_sent);
  append(out, "rrep", aodv.rrep_sent);
  append(out, "rerr", aodv.rerr_sent);
  append(out, "discovery_failures", aodv.discovery_failures);
  append(out, "no_route", aodv.drops_no_route);
  append(out, "link_failure", aodv.drops_link_failure);
  append(out, "buffer_full", aodv.drops_buffer_full);
  out += '\n';
  append(out, "enqueued", mac.enqueued);
  append(out, "queue_drops", mac.queue_drops);
  append(out, "rts", mac.rts_sent);
  append(out, "cts", mac.cts_sent);
  append(out, "data", mac.data_sent);
  append(out, "ack", mac.ack_sent);
  append(out, "retries", mac.retries);
  append(out, "retry_drops", mac.retry_drops);
  append(out, "acked", mac.packets_acked);
  append(out, "mac_delivered", mac.packets_delivered);
  append(out, "bcast_sent", mac.broadcasts_sent);
  append(out, "bcast_received", mac.broadcasts_received);
  append(out, "duplicates", mac.duplicate_data);
  append(out, "rx_errors", mac.rx_errors);
  append(out, "frames_received", mac.frames_received);
  append(out, "backoffs", mac.backoffs_started);
  append(out, "backoff_slots", mac.backoff_slots_total);
  out += '\n';
  EXPECT_GT(w.requests_delivered, 0u) << out;
  EXPECT_EQ(crypto::to_hex(crypto::Md5::hash(out)),
            "e80ba2550be3e7eac480ca29a2542d2a")
      << out;
}

}  // namespace
}  // namespace manet::detect
