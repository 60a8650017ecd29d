// Adversary zoo v2 scored as ROC curves and time-to-detection — the
// detection-quality harness (no counterpart figure in the paper, which
// reports scalar detection/false-alarm endpoints for solo stationary
// cheats; cf. Cao et al.'s argument in PAPERS.md that online detectors
// must be judged by detection delay).
//
// One simulation per (attacker, trial) — plus a shared honest baseline —
// collects the per-window decision stream; every detection threshold is a
// post-hoc reduction of that stream (detect/roc.hpp), so the threshold
// sweep costs nothing extra. All (point, trial) pairs share the engine's
// work queue and the scoring is serial in a fixed order: output is
// bit-identical for any --threads.
//
// One pass simulates every attacker; the two honest baselines (gap bound
// off/on) are simulated the first time an attacker needs one and kept in
// memory for the rest.
//
// The rts_flood points (and their matched honest baseline) enable the
// anchorless RTS-gap bound (MonitorConfig::rts_gap_bound) — without it a
// pure flood completes no exchange and would never produce a single
// window to judge. Timing attackers are scored with the bound off so the
// ROC reflects the Wilcoxon threshold trade-off, not the deterministic
// bound (which also catches ordinary cheats on anchorless retries and
// would flatten every curve).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "detect/roc.hpp"
#include "detect/sequential.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Adversary zoo v2: per-attacker ROC curves and time-to-detection.");
  flags.add_name_list("attackers", "pm50,pm90,colluding,adaptive,sybil,rts_flood", "attacker classes scored (honest, pm<percent>, colluding, "
                 "adaptive, sybil, rts_flood)");
  flags.add_double_list("thresholds", "0.0005,0.001,0.005,0.01,0.05,0.1,0.2", "detection thresholds (p-value cutoffs) swept for the ROC; "
                 "0.0005 sits below the ss=10 Wilcoxon floor of 1/2^10");
  flags.add_double("load", 0.6, "target traffic intensity");
  flags.add_count_list("sample_sizes", "10", "Wilcoxon window sizes");
  flags.add_name_list("detectors", "wilcoxon",
                      "statistical tests closing the windows (wilcoxon, "
                      "cusum, sprt); one ROC per detector x sample size — "
                      "sequential scores sweep as p_less = exp(-score)");
  flags.add_double("pm", 80, "cheat strength for colluding/adaptive/sybil");
  flags.add_int("group", 3, "colluding group size / sybil identity count");
  flags.add_double("collude_phase", 2.0, "seconds of one colluder's aggressive turn");
  flags.add_double("probation", 30, "adaptive: honest until this many simulated seconds");
  flags.add_double("vigilance", 0, "adaptive: lie low this long after overhearing the monitor");
  flags.add_double("flood_pps", 1000, "mean bogus-RTS rate of the flooder");
  flags.add_double("sim_time", 120, "simulated seconds per trial");
  flags.add_int("runs", 4, "independent trials per attacker");
  flags.add_int("seed", 601, "base random seed");
  flags.add_double("margin", 0.10, "permissible back-off deficit (fraction of expected mean)");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  const auto attacker_names = flags.get_name_list("attackers");
  const auto thresholds = flags.get_double_list("thresholds");
  const auto sample_sizes = flags.get_double_list("sample_sizes");
  const auto detector_names = flags.get_name_list("detectors");
  const int runs = static_cast<int>(flags.get_int("runs"));
  const double sim_time = flags.get_double("sim_time");
  const double load = flags.get_double("load");
  if (attacker_names.empty() || thresholds.empty() || sample_sizes.empty() ||
      detector_names.empty() || runs <= 0) {
    std::fprintf(stderr,
                 "flag error: need >= 1 attacker, threshold, detector, "
                 "sample size and run\n");
    return 1;
  }
  std::vector<detect::DetectorKind> detectors;
  for (const std::string& name : detector_names) {
    try {
      detectors.push_back(detect::detector_from_name(name));
    } catch (const util::ConfigError& e) {
      std::fprintf(stderr, "flag error: --detectors: %s\n", e.what());
      return 1;
    }
  }

  detect::AttackerTuning tuning;
  tuning.pm = flags.get_double("pm");
  tuning.group =
      static_cast<std::uint32_t>(flags.get_int("group"));
  tuning.collude_phase_s = flags.get_double("collude_phase");
  tuning.probation_s = flags.get_double("probation");
  tuning.vigilance_s = flags.get_double("vigilance");
  tuning.flood_pps = flags.get_double("flood_pps");

  // Resolve every attacker name up front: a typo dies before any sim runs.
  std::vector<detect::AttackerSpec> specs;
  for (const std::string& name : attacker_names) {
    try {
      specs.push_back(detect::attacker_spec_from_name(name, tuning));
    } catch (const util::ConfigError& e) {
      std::fprintf(stderr, "flag error: --attackers: %s\n", e.what());
      return 1;
    }
  }

  bench::print_header(
      "Adversary zoo v2: ROC + time-to-detection per attacker class",
      "colluding/adaptive/sybil attackers trade detectability for delay; an "
      "RTS flood is caught deterministically via the anchorless gap bound");

  net::ScenarioConfig scenario;  // Table-1 grid defaults
  scenario.sim_seconds = sim_time;
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();
  bench::RateCache rates(scenario);
  const double rate_pps = rates.rate_for(load);

  auto make_point = [&](const detect::AttackerSpec& spec, bool gap_bound) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    cfg.rate_pps = rate_pps;
    cfg.attacker = spec;
    cfg.collect_windows = true;
    // Config index (di * |sample_sizes| + si): detector-major, matching
    // the scoring loops below.
    for (detect::DetectorKind kind : detectors) {
      for (double ss : sample_sizes) {
        detect::MonitorConfig m;
        m.sample_size = static_cast<std::size_t>(ss);
        m.margin_fraction = flags.get_double("margin");
        m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;  // grid, Section 5
        m.fixed_contenders = 20.0;
        m.rts_gap_bound = gap_bound;
        m.detector = kind;
        cfg.monitors.push_back(m);
      }
    }
    return cfg;
  };
  auto uses_gap_bound = [](const detect::AttackerSpec& spec) {
    return spec.kind == detect::AttackerKind::kRtsFlood;
  };

  const auto honest_spec = detect::attacker_spec_from_name("honest", tuning);
  const double warmup_s = make_point(honest_spec, false).warmup_s;

  // Honest baselines, one per gap-bound variant, simulated on first use.
  std::optional<detect::MultiDetectionResult> baselines[2];
  const auto honest_baseline =
      [&](bool gap) -> const std::vector<detect::DetectionResult>& {
    auto& slot = baselines[gap ? 1 : 0];
    if (!slot) {
      slot = detect::run_multi_detection_trials(make_point(honest_spec, gap),
                                                runs, engine);
    }
    return slot->per_config;
  };

  const auto emit_attacker = [&](std::size_t ai,
                                 const detect::MultiDetectionResult& attack) {
    const auto& honest = honest_baseline(uses_gap_bound(specs[ai]));
    for (std::size_t di = 0; di < detectors.size(); ++di) {
    const char* detector = detect::detector_name(detectors[di]);
    for (std::size_t si = 0; si < sample_sizes.size(); ++si) {
      const std::size_t ci = di * sample_sizes.size() + si;
      const detect::RocCurve curve = detect::score_roc_curve(
          attack.per_config[ci], honest[ci], thresholds, warmup_s);

      std::printf("\n## %s (ss=%.0f, %s): AUC = %.4f\n",
                  attacker_names[ai].c_str(), sample_sizes[si], detector,
                  curve.auc);
      std::printf("  %-10s  %-9s  %-9s  %-14s  %s\n", "threshold", "det-rate",
                  "fa-rate", "detected", "median-ttd-s");
      for (const auto& p : curve.points) {
        std::printf("  %-10g  %-9.4f  %-9.4f  %3llu/%-3llu trials  ",
                    p.threshold, p.detection_rate, p.false_alarm_rate,
                    static_cast<unsigned long long>(p.detected_trials),
                    static_cast<unsigned long long>(p.trials));
        if (p.detected_trials > 0) {
          std::printf("%.2f\n", p.median_ttd_s);
        } else {
          std::printf("-\n");
        }
        exp::Record rec;
        rec.add("bench", "fig_roc_adversaries")
            .add("attacker", attacker_names[ai])
            .add("detector", detector)
            .add("sample_size", sample_sizes[si])
            .add("threshold", p.threshold)
            .add("load", load)
            .add("rate_pps", rate_pps)
            .add("runs", runs)
            .add("sim_time_s", sim_time)
            .add("attack_windows", p.attack_windows)
            .add("attack_flagged", p.attack_flagged)
            .add("honest_windows", p.honest_windows)
            .add("honest_flagged", p.honest_flagged)
            .add("detection_rate", p.detection_rate)
            .add("false_alarm_rate", p.false_alarm_rate)
            .add("trials", p.trials)
            .add("detected_trials", p.detected_trials)
            .add("median_ttd_s", p.median_ttd_s)
            .add("mean_ttd_s", p.mean_ttd_s)
            .add("min_ttd_s", p.min_ttd_s)
            .add("max_ttd_s", p.max_ttd_s)
            .add("wall_seconds", attack.wall_seconds)
            .add("threads", engine.threads());
        sink->record(rec);
      }

      // Summary record per (attacker, sample size): the AUC plus TTD at
      // the reference threshold (the one closest to the paper's 0.01).
      std::size_t ref = 0;
      for (std::size_t ti = 1; ti < curve.points.size(); ++ti) {
        const double cur = curve.points[ti].threshold;
        const double best = curve.points[ref].threshold;
        if (std::abs(cur - 0.01) < std::abs(best - 0.01)) ref = ti;
      }
      const auto& rp = curve.points[ref];
      exp::Record summary;
      summary.add("bench", "fig_roc_adversaries_summary")
          .add("attacker", attacker_names[ai])
          .add("detector", detector)
          .add("sample_size", sample_sizes[si])
          .add("load", load)
          .add("runs", runs)
          .add("sim_time_s", sim_time)
          .add("auc", curve.auc)
          .add("ref_threshold", rp.threshold)
          .add("ref_detection_rate", rp.detection_rate)
          .add("ref_false_alarm_rate", rp.false_alarm_rate)
          .add("ref_detected_trials", rp.detected_trials)
          .add("ref_median_ttd_s", rp.median_ttd_s)
          .add("first_flag_windows", attack.per_config[ci].stats.windows_to_first_flag)
          .add("threads", engine.threads());
      sink->record(summary);
    }
    }
  };

  std::vector<detect::MultiDetectionConfig> points;
  points.reserve(specs.size());
  for (const auto& spec : specs) points.push_back(make_point(spec, uses_gap_bound(spec)));

  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = detect::run_multi_detection_sweep(points, runs, engine);
  const double sweep_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();

  for (std::size_t ai = 0; ai < specs.size(); ++ai) emit_attacker(ai, results[ai]);
  sink->flush();
  std::printf("\n# sweep wall-clock: %.2f s (%u threads, %zu points x %d runs)\n",
              sweep_wall, engine.threads(), points.size(), runs);
  return 0;
}
