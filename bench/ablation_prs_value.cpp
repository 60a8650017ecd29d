// Ablation: what does the verifiable PRS buy?
//
// The paper's central modification is making back-off values *verifiable*
// (PRS seeded by the MAC address, SeqOff#/Attempt#/MD announced per RTS).
// This bench runs the identical channel history past two monitors:
//   * full      — the paper's framework (deterministic checks + rank-sum
//                 against the dictated values), and
//   * baseline  — a PRS-unaware watcher that only knows the protocol's
//                 back-off *distribution* (rank-sum against uniform
//                 quantiles; no deterministic checks possible),
// and reports detection (PM sweep) and false alarms (PM=0) for both.
// PM points x runs fan out across the experiment engine (--threads).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/experiment.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Ablation: verifiable-PRS monitor vs PRS-unaware "
                       "baseline watcher.");
  flags.add_double("load", 0.6, "target traffic intensity");
  flags.add_double_list("pms", "0,10,25,50,90", "PM values swept");
  flags.add_double("sim_time", 240, "simulated seconds per PM point");
  flags.add_count("sample_size", 10, "Wilcoxon window size");
  flags.add_int("runs", 2, "independent runs per point");
  flags.add_int("seed", 801, "base random seed");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  bench::print_header(
      "Ablation: value of the verifiable PRS",
      "without dictated values a watcher loses the deterministic checks and "
      "most statistical power");

  net::ScenarioConfig scenario;
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();
  bench::RateCache rates(scenario);
  const double rate = rates.rate_for(flags.get_double("load"));
  const auto pms = flags.get_double_list("pms");
  const int runs = static_cast<int>(flags.get_int("runs"));

  std::vector<detect::MultiDetectionConfig> points;
  for (double pm : pms) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    cfg.rate_pps = rate;
    cfg.pm = pm;
    for (bool prs_aware : {true, false}) {
      detect::MonitorConfig m;
      m.sample_size = static_cast<std::size_t>(flags.get_int("sample_size"));
      m.prs_aware = prs_aware;
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
      m.fixed_contenders = 20.0;
      cfg.monitors.push_back(m);
    }
    points.push_back(cfg);
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = detect::run_multi_detection_sweep(points, runs, engine);
  const double sweep_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();

  std::printf("  %-5s %-26s %-26s\n", "PM", "full (rate, windows)",
              "baseline (rate, windows)");
  for (std::size_t i = 0; i < pms.size(); ++i) {
    const auto& result = results[i];
    const auto& full = result.per_config[0];
    const auto& base = result.per_config[1];
    std::printf("  %-5.0f %6.3f (%5llu windows)     %6.3f (%5llu windows)\n",
                pms[i], full.detection_rate,
                static_cast<unsigned long long>(full.windows),
                base.detection_rate,
                static_cast<unsigned long long>(base.windows));
    std::fflush(stdout);

    exp::Record rec;
    rec.add("bench", "ablation_prs_value")
        .add("pm", pms[i])
        .add("load", flags.get_double("load"))
        .add("rate_pps", rate)
        .add("runs", runs)
        .add("sim_time_s", flags.get_double("sim_time"))
        .add("full_windows", full.windows)
        .add("full_rate", full.detection_rate)
        .add("baseline_windows", base.windows)
        .add("baseline_rate", base.detection_rate)
        .add("wall_seconds", result.wall_seconds)
        .add("threads", engine.threads());
    sink->record(rec);
  }
  sink->flush();
  std::printf("\n# sweep wall-clock: %.2f s (%u threads, %zu points x %d runs)\n",
              sweep_wall, engine.threads(), points.size(), runs);
  return 0;
}
