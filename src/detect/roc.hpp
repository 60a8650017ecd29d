// ROC / time-to-detection scoring over the per-window decision stream.
//
// The Wilcoxon verdict of a window is a threshold comparison of its
// p-value, and the p-value itself does not depend on the threshold: one
// simulation per (attacker, trial) yields the full decision stream, and
// every operating point of the detector is a post-hoc reduction
//
//   flagged(w, theta) = w.deterministic_flag || w.p_less < theta.
//
// score_roc_curve() applies that reduction to the per-trial streams of an
// attack run and a paired honest run:
//   * detection rate   = flagged attack windows / attack windows,
//   * false-alarm rate = flagged honest windows / honest windows,
//   * time-to-detection per trial = first flagged window's close time
//     minus the warm-up boundary (trials that never flag are reported
//     separately; the TTD distribution covers detected trials).
// The AUC integrates detection rate over false-alarm rate (trapezoid,
// anchored at (0,0) and (1,1)) — the scalar every later detector change
// is scored against (ROADMAP items 4-5).
//
// attacker_spec_from_name() maps the bench/CLI attacker vocabulary
// ("pm50", "colluding", ...) onto experiment::AttackerSpec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/experiment.hpp"

namespace manet::detect {

/// One operating point of the detector (one threshold).
struct RocThresholdPoint {
  double threshold = 0.0;
  std::uint64_t attack_windows = 0;
  std::uint64_t attack_flagged = 0;
  std::uint64_t honest_windows = 0;
  std::uint64_t honest_flagged = 0;
  double detection_rate = 0.0;   // attack_flagged / attack_windows
  double false_alarm_rate = 0.0; // honest_flagged / honest_windows
  std::uint64_t trials = 0;          // attack trials scored
  std::uint64_t detected_trials = 0; // attack trials with >= 1 flagged window
  /// Time-to-detection of each detected trial, seconds past warm-up, in
  /// trial order (empty when nothing was detected).
  std::vector<double> ttd_s;
  double median_ttd_s = 0.0;  // over detected trials; 0 when none
  double mean_ttd_s = 0.0;
  double min_ttd_s = 0.0;
  double max_ttd_s = 0.0;
};

struct RocCurve {
  std::vector<RocThresholdPoint> points;  // in threshold order, as given
  /// Trapezoid area under (false_alarm, detection), with (0,0) and (1,1)
  /// anchors, integrated over points sorted by false-alarm rate.
  double auc = 0.0;
};

/// Scores the detector over `thresholds` from the per-trial decision
/// streams (DetectionResult::trial_logs — run the experiments with
/// collect_windows). Windows before `warmup_s` are assumed already
/// excluded by the experiment readout; TTD is measured from `warmup_s`.
RocCurve score_roc_curve(const DetectionResult& attack,
                         const DetectionResult& honest,
                         const std::vector<double>& thresholds,
                         double warmup_s);

/// Knobs shared by the name -> spec mapping below (the bench CLI surface).
struct AttackerTuning {
  double pm = 80.0;
  std::uint32_t group = 3;
  double collude_phase_s = 2.0;
  double probation_s = 30.0;
  double vigilance_s = 0.0;
  bool suspect_monitor = false;
  double flood_pps = 1000.0;
};

/// Maps an attacker name onto a spec: "honest", "pm<percent>" (e.g.
/// "pm50"), "colluding", "adaptive", "sybil", "rts_flood". Throws
/// util::ConfigError on anything else (strict: no std::stod leniency).
AttackerSpec attacker_spec_from_name(const std::string& name,
                                     const AttackerTuning& tuning);

/// The full v2 roster in canonical bench order.
std::vector<std::string> default_attacker_names();

}  // namespace manet::detect
