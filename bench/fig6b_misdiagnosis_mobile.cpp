// Figure 6(b): probability of misdiagnosis vs sample size with mobility
// (random waypoint, load 0.6). All nodes well behaved; monitor handoff on
// range loss as in Figure 5(d). The independent runs fan out across the
// experiment engine (--threads).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/experiment.hpp"
#include "util/stats.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Figure 6(b): probability of misdiagnosis with "
                       "mobility, load 0.6.");
  flags.add_double("load", 0.6, "target traffic intensity");
  flags.add_count_list("sample_sizes", "10,25,50,100", "Wilcoxon window sizes");
  flags.add_double("sim_time", 300, "simulated seconds per run");
  flags.add_int("runs", 3, "independent runs (consecutive seeds)");
  flags.add_int("seed", 401, "base random seed");
  flags.add_double("alpha", 0.01, "significance level");
  flags.add_double("margin", 0.10, "permissible deficit fraction");
  flags.add_double("max_speed", 20, "random waypoint max speed (m/s)");
  flags.add_double("pause", 0, "random waypoint pause time (s)");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  const auto sample_sizes = flags.get_double_list("sample_sizes");
  const int runs = static_cast<int>(flags.get_int("runs"));

  bench::print_header(
      "Figure 6(b): probability of misdiagnosis with mobility (load 0.6)",
      "a sample size of 50 keeps the false-alarm probability below 0.2%");

  net::ScenarioConfig scenario;
  scenario.mobility = net::MobilityKind::kRandomWaypoint;
  scenario.max_speed_mps = flags.get_double("max_speed");
  scenario.pause_s = flags.get_double("pause");
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();
  bench::RateCache rates(scenario);
  const double rate = rates.rate_for(flags.get_double("load"));

  detect::MultiDetectionConfig cfg;
  cfg.scenario = scenario;
  cfg.rate_pps = rate;
  cfg.pm = 0.0;
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

  const auto result = detect::run_multi_detection_trials(cfg, runs, engine);

  std::printf("  %-6s %-9s %-9s %-12s %-10s\n", "ss", "windows", "flagged",
              "P(misdiag)", "95%% upper");
  for (std::size_t i = 0; i < sample_sizes.size(); ++i) {
    const auto& r = result.per_config[i];
    util::ProportionEstimator p;
    for (std::uint64_t w = 0; w < r.windows; ++w) p.add(w < r.flagged);
    std::printf("  %-6.0f %-9llu %-9llu %-12.4f %-10.4f\n", sample_sizes[i],
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.flagged), r.detection_rate,
                p.wilson_upper());

    exp::Record rec;
    rec.add("bench", "fig6b_misdiagnosis_mobile")
        .add("load", flags.get_double("load"))
        .add("sample_size", sample_sizes[i])
        .add("rate_pps", rate)
        .add("runs", runs)
        .add("sim_time_s", flags.get_double("sim_time"))
        .add("windows", r.windows)
        .add("flagged", r.flagged)
        .add("misdiagnosis_rate", r.detection_rate)
        .add("wilson_upper_95", p.wilson_upper())
        .add("intensity", result.measured_rho)
        .add("handoffs", result.handoffs)
        .add("wall_seconds", result.wall_seconds)
        .add("threads", engine.threads());
    sink->record(rec);
  }
  std::printf("  handoffs: %llu, measured intensity: %.3f\n",
              static_cast<unsigned long long>(result.handoffs),
              result.measured_rho);
  sink->flush();
  return 0;
}
