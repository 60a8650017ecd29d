#include "detect/roc.hpp"

#include <algorithm>
#include <cmath>

#include "util/config.hpp"

namespace manet::detect {

namespace {

bool window_flagged(const WindowResult& w, double threshold) {
  return w.deterministic_flag || w.p_less < threshold;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

RocCurve score_roc_curve(const DetectionResult& attack,
                         const DetectionResult& honest,
                         const std::vector<double>& thresholds,
                         double warmup_s) {
  RocCurve curve;
  curve.points.reserve(thresholds.size());
  for (const double theta : thresholds) {
    RocThresholdPoint point;
    point.threshold = theta;

    for (const auto& trial : honest.trial_logs) {
      for (const WindowResult& w : trial) {
        ++point.honest_windows;
        if (window_flagged(w, theta)) ++point.honest_flagged;
      }
    }
    std::vector<double> ttd;
    for (const auto& trial : attack.trial_logs) {
      ++point.trials;
      bool detected = false;
      for (const WindowResult& w : trial) {
        ++point.attack_windows;
        if (window_flagged(w, theta)) {
          ++point.attack_flagged;
          if (!detected) {
            detected = true;
            ++point.detected_trials;
            ttd.push_back(time_to_seconds(w.at) - warmup_s);
          }
        }
      }
    }
    point.ttd_s = ttd;
    if (!ttd.empty()) {
      std::sort(ttd.begin(), ttd.end());
      point.min_ttd_s = ttd.front();
      point.max_ttd_s = ttd.back();
      point.median_ttd_s = quantile_sorted(ttd, 0.5);
      double sum = 0.0;
      for (const double t : ttd) sum += t;
      point.mean_ttd_s = sum / static_cast<double>(ttd.size());
    }
    point.detection_rate =
        point.attack_windows
            ? static_cast<double>(point.attack_flagged) /
                  static_cast<double>(point.attack_windows)
            : 0.0;
    point.false_alarm_rate =
        point.honest_windows
            ? static_cast<double>(point.honest_flagged) /
                  static_cast<double>(point.honest_windows)
            : 0.0;
    curve.points.push_back(std::move(point));
  }

  // AUC: trapezoid over the operating points by increasing false-alarm
  // rate (ties broken by detection rate), anchored at chance-line ends.
  std::vector<std::pair<double, double>> ops;
  ops.reserve(curve.points.size() + 2);
  ops.emplace_back(0.0, 0.0);
  for (const RocThresholdPoint& p : curve.points) {
    ops.emplace_back(p.false_alarm_rate, p.detection_rate);
  }
  ops.emplace_back(1.0, 1.0);
  std::sort(ops.begin(), ops.end());
  double auc = 0.0;
  for (std::size_t i = 1; i < ops.size(); ++i) {
    auc += (ops[i].first - ops[i - 1].first) *
           (ops[i].second + ops[i - 1].second) * 0.5;
  }
  curve.auc = auc;
  return curve;
}

AttackerSpec attacker_spec_from_name(const std::string& name,
                                     const AttackerTuning& tuning) {
  AttackerSpec spec;
  spec.pm = tuning.pm;
  spec.group = tuning.group;
  spec.collude_phase_s = tuning.collude_phase_s;
  spec.probation_s = tuning.probation_s;
  spec.vigilance_s = tuning.vigilance_s;
  spec.suspect_monitor = tuning.suspect_monitor;
  spec.flood_pps = tuning.flood_pps;

  if (name == "honest") {
    spec.kind = AttackerKind::kNone;
    spec.pm = 0.0;
    return spec;
  }
  if (name == "colluding") {
    spec.kind = AttackerKind::kColluding;
    return spec;
  }
  if (name == "adaptive") {
    spec.kind = AttackerKind::kAdaptive;
    return spec;
  }
  if (name == "sybil") {
    spec.kind = AttackerKind::kSybil;
    return spec;
  }
  if (name == "rts_flood") {
    spec.kind = AttackerKind::kRtsFlood;
    return spec;
  }
  if (name.size() > 2 && name.compare(0, 2, "pm") == 0) {
    // Strict digits-only percent: "pm50" -> PM 50. No std::stod leniency.
    double percent = 0.0;
    for (std::size_t i = 2; i < name.size(); ++i) {
      const char c = name[i];
      if (c < '0' || c > '9') {
        throw util::ConfigError("bad attacker name '" + name +
                                "': pm<percent> takes digits only");
      }
      percent = percent * 10.0 + static_cast<double>(c - '0');
    }
    if (percent > 100.0) {
      throw util::ConfigError("bad attacker name '" + name +
                              "': percent must be <= 100");
    }
    spec.kind = AttackerKind::kPm;
    spec.pm = percent;
    return spec;
  }
  throw util::ConfigError(
      "unknown attacker '" + name +
      "' (expected honest, pm<percent>, colluding, adaptive, sybil, rts_flood)");
}

std::vector<std::string> default_attacker_names() {
  return {"pm50", "pm90", "colluding", "adaptive", "sybil", "rts_flood"};
}

}  // namespace manet::detect
