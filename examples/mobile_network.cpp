// Mobile scenario: 112 nodes under random waypoint motion (0-20 m/s,
// Table 1). The monitoring role follows the misbehaving node: whenever the
// current monitor drifts out of transmission range, the nearest one-hop
// neighbor takes over, exactly as in the paper's Figure 5(d)/6(b) setup.
//
//   ./mobile_network --pm=65 --pause=100
#include <cstdio>

#include "detect/experiment.hpp"
#include "util/config.hpp"
#include "util/flags.hpp"

using namespace manet;

int main(int argc, char** argv) {
  util::Config config;
  config.declare("pm", "65", "percentage of misbehavior of the tagged node");
  config.declare("rate", "14", "per-flow packet rate (pkt/s)");
  config.declare("sim_time", "180", "simulated seconds");
  config.declare("max_speed", "20", "random waypoint max speed (m/s)");
  config.declare("pause", "0", "random waypoint pause time (s)");
  config.declare("sample_size", "10", "Wilcoxon window size");
  config.declare("seed", "17", "random seed");
  detect::MultiDetectionConfig cfg;
  detect::MonitorConfig monitor;
  try {
    const auto parsed = util::parse_flags(argc, argv, config);
    if (parsed.help) {
      std::printf("Mobile network demo.\n\nFlags:\n%s", config.render().c_str());
      return 0;
    }
    cfg.scenario.max_speed_mps = config.get_double("max_speed");
    cfg.scenario.pause_s = config.get_double("pause");
    cfg.scenario.sim_seconds = config.get_double("sim_time");
    cfg.scenario.seed = static_cast<std::uint64_t>(config.get_int("seed"));
    cfg.rate_pps = config.get_double("rate");
    cfg.pm = config.get_double("pm");
    const long long sample_size = config.get_int("sample_size");
    // Cast to size_t below: refuse what would wrap.
    if (sample_size < 1) throw util::ConfigError("sample_size must be >= 1");
    monitor.sample_size = static_cast<std::size_t>(sample_size);
  } catch (const util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  cfg.scenario.mobility = net::MobilityKind::kRandomWaypoint;
  cfg.mobile_handoff = true;
  monitor.fixed_n = monitor.fixed_k = 5.0;
  monitor.fixed_m = monitor.fixed_j = 5.0;
  monitor.fixed_contenders = 20.0;
  cfg.monitors = {monitor};

  std::printf("Random waypoint, 0-%.0f m/s, pause %.0f s, tagged node PM=%.0f%%\n\n",
              cfg.scenario.max_speed_mps, cfg.scenario.pause_s, cfg.pm);
  const detect::MultiDetectionResult result = detect::run_multi_detection_experiment(cfg);
  const detect::DetectionResult& r = result.per_config.front();

  std::printf("monitor handoffs (range losses)  : %llu\n",
              static_cast<unsigned long long>(result.handoffs));
  std::printf("back-off samples collected       : %llu\n",
              static_cast<unsigned long long>(r.stats.samples));
  std::printf("windows tested / flagged         : %llu / %llu  (%.1f%%)\n",
              static_cast<unsigned long long>(r.windows),
              static_cast<unsigned long long>(r.flagged),
              100 * r.detection_rate);
  std::printf("measured traffic intensity       : %.3f\n", result.measured_rho);
  std::printf("\nMobility costs samples (the paper reports roughly twice as "
              "many are\nneeded), but violations are still discovered.\n");
  return 0;
}
