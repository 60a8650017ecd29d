// Ablation: sensitivity to the assumed region node counts (n, k, m, j).
//
// The paper (footnote 8) reports that higher values of n and k "do not play
// a significant role in the computation of the necessary probabilities".
// This bench re-runs the detection experiment with monitors that assume
// different fixed counts, all watching the same channel history, and
// reports how detection and false-alarm rates move. The two halves run
// concurrently across the experiment engine (--threads).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/experiment.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Ablation: sensitivity to assumed region node counts "
                       "(paper footnote 8).");
  flags.add_double("load", 0.6, "target traffic intensity");
  flags.add_double_list("counts", "2,5,10,20", "assumed n=k=m=j values");
  flags.add_double("pm", 50, "PM for the detection half of the study");
  flags.add_double("sim_time", 180, "simulated seconds per run");
  flags.add_count("sample_size", 10, "Wilcoxon window size");
  flags.add_int("runs", 1, "independent runs per point (consecutive seeds)");
  flags.add_int("seed", 601, "base random seed");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  bench::print_header(
      "Ablation: region node-count sensitivity",
      "n, k do not play a significant role (footnote 8): rates move little "
      "across assumed counts");

  net::ScenarioConfig scenario;
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();
  bench::RateCache rates(scenario);
  const double rate = rates.rate_for(flags.get_double("load"));
  const auto counts = flags.get_double_list("counts");
  const int runs = static_cast<int>(flags.get_int("runs"));

  const std::vector<double> pms = {flags.get_double("pm"), 0.0};
  std::vector<detect::MultiDetectionConfig> points;
  for (double pm : pms) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    cfg.rate_pps = rate;
    cfg.pm = pm;
    for (double c : counts) {
      detect::MonitorConfig m;
      m.sample_size = static_cast<std::size_t>(flags.get_int("sample_size"));
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = c;
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
    std::printf("  %-12s %-9s %-9s\n", "assumed n=k", "windows", "rate");
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const auto& r = result.per_config[i];
      std::printf("  %-12.0f %-9llu %-9.3f\n", counts[i],
                  static_cast<unsigned long long>(r.windows), r.detection_rate);

      exp::Record rec;
      rec.add("bench", "ablation_region_model")
          .add("pm", pm)
          .add("assumed_count", counts[i])
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
