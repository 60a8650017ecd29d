// Figure 5(d): probability of correct diagnosis vs PM under mobility
// (random waypoint, 0-20 m/s), load 0.6. The monitoring role is handed to
// a fresh one-hop neighbor whenever the current monitor drifts out of the
// tagged node's transmission range, as in the paper. PM points x runs
// fan out across the experiment engine (--threads); aggregation is in
// trial order, bit-identical to a serial run.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/experiment.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Figure 5(d): probability of correct diagnosis with "
                       "mobility (random waypoint), load 0.6.");
  flags.add_double("load", 0.6, "target traffic intensity");
  flags.add_double_list("pms", "10,25,40,50,65,80,90,100", "PM values swept");
  flags.add_count_list("sample_sizes", "10,25,50,100", "Wilcoxon window sizes");
  flags.add_double("sim_time", 300, "simulated seconds per PM point");
  flags.add_int("runs", 1, "independent runs per point");
  flags.add_int("seed", 211, "base random seed");
  flags.add_double("alpha", 0.01, "significance level");
  flags.add_double("margin", 0.10, "permissible deficit fraction");
  flags.add_double("max_speed", 20, "random waypoint max speed (m/s)");
  flags.add_double("pause", 0, "random waypoint pause time (s)");
  flags.add_string("channel_index", "auto",
                   "channel receiver lookup: auto | incremental | rebuild | scan");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  const auto pms = flags.get_double_list("pms");
  const auto sample_sizes = flags.get_double_list("sample_sizes");
  const int runs = static_cast<int>(flags.get_int("runs"));

  bench::print_header(
      "Figure 5(d): probability of correct diagnosis with mobility (load 0.6)",
      "timer violations are still discovered; roughly twice the samples are "
      "needed for convergence compared to the static grid");

  net::ScenarioConfig scenario;
  scenario.mobility = net::MobilityKind::kRandomWaypoint;
  scenario.max_speed_mps = flags.get_double("max_speed");
  scenario.pause_s = flags.get_double("pause");
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  scenario.channel_index = flags.get("channel_index");

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();

  // Calibrate on the mobile scenario itself: random-waypoint motion spreads
  // the initially dense grid over the whole field, so a static calibration
  // would undershoot the intensity badly.
  bench::RateCache rates(scenario);
  const double rate = rates.rate_for(flags.get_double("load"));

  std::vector<detect::MultiDetectionConfig> points;
  for (double pm : pms) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    cfg.rate_pps = rate;
    cfg.pm = pm;
    cfg.mobile_handoff = true;
    for (double ss : sample_sizes) {
      detect::MonitorConfig m;
      m.sample_size = static_cast<std::size_t>(ss);
      m.alpha = flags.get_double("alpha");
      m.margin_fraction = flags.get_double("margin");
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

  std::printf("  (columns: all-paths rate / statistical-only rate (windows))\n");
  std::printf("  %-5s", "PM");
  for (double ss : sample_sizes) std::printf("  ss=%-17.0f", ss);
  std::printf("  intensity  handoffs\n");

  for (std::size_t pi = 0; pi < pms.size(); ++pi) {
    const auto& result = results[pi];
    std::printf("  %-5.0f", pms[pi]);
    for (const auto& r : result.per_config) {
      std::printf("  %5.3f/%5.3f (%4llu)", r.detection_rate, r.statistical_rate,
                  static_cast<unsigned long long>(r.windows));
    }
    std::printf("  %.3f      %llu\n", result.measured_rho,
                static_cast<unsigned long long>(result.handoffs));
    std::fflush(stdout);

    for (std::size_t si = 0; si < sample_sizes.size(); ++si) {
      const auto& r = result.per_config[si];
      exp::Record rec;
      rec.add("bench", "fig5d_detection_mobile")
          .add("load", flags.get_double("load"))
          .add("pm", pms[pi])
          .add("sample_size", sample_sizes[si])
          .add("rate_pps", rate)
          .add("runs", runs)
          .add("sim_time_s", flags.get_double("sim_time"))
          .add("windows", r.windows)
          .add("flagged", r.flagged)
          .add("flagged_statistical", r.flagged_statistical)
          .add("detection_rate", r.detection_rate)
          .add("statistical_rate", r.statistical_rate)
          .add("intensity", result.measured_rho)
          .add("handoffs", result.handoffs)
          .add("wall_seconds", result.wall_seconds)
          .add("threads", engine.threads());
      sink->record(rec);
    }
  }
  sink->flush();
  std::printf("\n# sweep wall-clock: %.2f s (%u threads, %zu points x %d runs)\n",
              sweep_wall, engine.threads(), points.size(), runs);
  return 0;
}
