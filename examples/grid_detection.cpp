// The paper's flagship scenario end to end: a 7x8 grid (56 nodes, Table 1),
// 30 one-hop Poisson flows, a misbehaving node at the grid center and its
// receiver monitoring it with the full deterministic + statistical
// framework.
//
//   ./grid_detection                      # PM=50 at ~load 0.6
//   ./grid_detection --pm=25 --rate=8     # subtler attacker, lighter load
//   ./grid_detection --runs=8 --threads=4 # aggregate parallel trials
#include <cstdio>

#include "detect/experiment.hpp"
#include "exp/engine.hpp"
#include "util/config.hpp"
#include "util/flags.hpp"

using namespace manet;

int main(int argc, char** argv) {
  util::Config config;
  config.declare("pm", "50", "percentage of misbehavior of the tagged node");
  config.declare("rate", "14", "per-flow packet rate (pkt/s); 14 ~ load 0.6");
  config.declare("sim_time", "120", "simulated seconds");
  config.declare("sample_size", "10", "Wilcoxon window size");
  config.declare("seed", "42", "base random seed");
  config.declare("runs", "1", "independent trials aggregated (seeds seed..seed+runs-1)");
  config.declare("threads", "0",
                 "worker threads for the trials (0 = all hardware threads)");
  detect::MultiDetectionConfig cfg;
  detect::MonitorConfig monitor;
  long long runs = 0;
  long long threads = 0;
  try {
    const auto parsed = util::parse_flags(argc, argv, config);
    if (parsed.help) {
      std::printf("Grid detection demo.\n\nFlags:\n%s", config.render().c_str());
      return 0;
    }
    cfg.scenario.sim_seconds = config.get_double("sim_time");
    cfg.scenario.seed = static_cast<std::uint64_t>(config.get_int("seed"));
    cfg.rate_pps = config.get_double("rate");
    cfg.pm = config.get_double("pm");
    const long long sample_size = config.get_int("sample_size");
    runs = config.get_int("runs");
    threads = config.get_int("threads");
    // The counts are cast to unsigned types below: refuse what would wrap.
    if (sample_size < 1) throw util::ConfigError("sample_size must be >= 1");
    if (runs < 1) throw util::ConfigError("runs must be >= 1");
    if (threads < 0) throw util::ConfigError("threads must be >= 0");
    monitor.sample_size = static_cast<std::size_t>(sample_size);
  } catch (const util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  monitor.fixed_n = monitor.fixed_k = 5.0;  // the paper's grid setting
  monitor.fixed_m = monitor.fixed_j = 5.0;
  monitor.fixed_contenders = 20.0;
  cfg.monitors = {monitor};

  exp::Engine engine(static_cast<unsigned>(threads));

  std::printf("7x8 grid, 30 one-hop flows, tagged node at the grid center "
              "(PM=%.0f%%, %lld run%s)\n\n", cfg.pm, runs, runs == 1 ? "" : "s");
  const detect::MultiDetectionResult result =
      detect::run_multi_detection_trials(cfg, static_cast<int>(runs), engine);
  const detect::DetectionResult& r = result.per_config.front();

  std::printf("measured traffic intensity at the monitor : %.3f\n",
              result.measured_rho);
  std::printf("RTS frames observed from the tagged node  : %llu\n",
              static_cast<unsigned long long>(r.stats.rts_observed));
  std::printf("back-off samples accepted                 : %llu\n",
              static_cast<unsigned long long>(r.stats.samples));
  std::printf("windows tested                            : %llu\n",
              static_cast<unsigned long long>(r.windows));
  std::printf("windows flagged (any path)                : %llu  (%.1f%%)\n",
              static_cast<unsigned long long>(r.flagged),
              100 * r.detection_rate);
  std::printf("  via Wilcoxon rank-sum                   : %llu\n",
              static_cast<unsigned long long>(r.flagged_statistical));
  std::printf("  impossible back-off events              : %llu\n",
              static_cast<unsigned long long>(r.stats.impossible_backoff));
  std::printf("  SeqOff / Attempt violations             : %llu / %llu\n",
              static_cast<unsigned long long>(r.stats.seq_off_violations),
              static_cast<unsigned long long>(r.stats.attempt_violations));
  std::printf("\nVerdict: the tagged node %s\n",
              r.detection_rate > 0.5
                  ? "was detected misbehaving"
                  : (cfg.pm > 0 ? "evaded detection in this run"
                                : "is (correctly) considered well behaved"));
  return 0;
}
