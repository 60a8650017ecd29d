// Ablation: sensitivity to the ARMA smoothing constant alpha (Eq. 6).
//
// The paper: "we find that our results are not very sensitive to the value
// of alpha, as long as alpha is close to 1." Monitors with different alpha
// watch the same run; detection (PM=50) and false-alarm (PM=0) rates are
// reported per alpha. The two halves run concurrently across the
// experiment engine (--threads).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/experiment.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Ablation: ARMA alpha sensitivity (Eq. 6).");
  flags.add_double("load", 0.6, "target traffic intensity");
  flags.add_double_list("alphas", "0.9,0.99,0.995,0.999", "ARMA alphas probed");
  flags.add_double("pm", 50, "PM for the detection half of the study");
  flags.add_double("sim_time", 180, "simulated seconds per run");
  flags.add_count("sample_size", 10, "Wilcoxon window size");
  flags.add_int("runs", 1, "independent runs per point (consecutive seeds)");
  flags.add_int("seed", 701, "base random seed");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  bench::print_header(
      "Ablation: ARMA smoothing constant",
      "results insensitive to alpha near 1 (paper uses 0.995)");

  net::ScenarioConfig scenario;
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();
  bench::RateCache rates(scenario);
  const double rate = rates.rate_for(flags.get_double("load"));
  const auto alphas = flags.get_double_list("alphas");
  const int runs = static_cast<int>(flags.get_int("runs"));

  const std::vector<double> pms = {flags.get_double("pm"), 0.0};
  std::vector<detect::MultiDetectionConfig> points;
  for (double pm : pms) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    cfg.rate_pps = rate;
    cfg.pm = pm;
    for (double a : alphas) {
      detect::MonitorConfig m;
      m.sample_size = static_cast<std::size_t>(flags.get_int("sample_size"));
      m.arma_alpha = a;
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
      m.fixed_contenders = 20.0;
      cfg.monitors.push_back(m);
    }
    points.push_back(cfg);
  }

  const auto results = detect::run_multi_detection_sweep(points, runs, engine);

  for (std::size_t pi = 0; pi < pms.size(); ++pi) {
    const double pm = pms[pi];
    const auto& result = results[pi];
    std::printf("\n## PM = %.0f (%s)\n", pm,
                pm > 0 ? "detection rate" : "false-alarm rate");
    std::printf("  %-8s %-9s %-9s\n", "alpha", "windows", "rate");
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      const auto& r = result.per_config[i];
      std::printf("  %-8.3f %-9llu %-9.3f\n", alphas[i],
                  static_cast<unsigned long long>(r.windows), r.detection_rate);

      exp::Record rec;
      rec.add("bench", "ablation_arma_alpha")
          .add("pm", pm)
          .add("arma_alpha", alphas[i])
          .add("load", flags.get_double("load"))
          .add("rate_pps", rate)
          .add("runs", runs)
          .add("sim_time_s", flags.get_double("sim_time"))
          .add("windows", r.windows)
          .add("flagged", r.flagged)
          .add("rate", r.detection_rate)
          .add("wall_seconds", result.wall_seconds)
          .add("threads", engine.threads());
      sink->record(rec);
    }
    std::fflush(stdout);
  }
  sink->flush();
  return 0;
}
