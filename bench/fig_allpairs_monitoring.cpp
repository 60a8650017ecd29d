// All-pairs monitoring workload: every node within transmission range of
// the tagged node runs the full monitor set (instead of only the nearest
// neighbor). The default scenario is a dense 3x3 grid — one contention
// domain, the Table-1 spacing/ranges — so the 4 orthogonal neighbors of
// the center each run the (sample size x margin) configuration grid:
// 4 nodes x 12 configs = 48 monitors per simulation. That is the scaling
// workload the shared ObservationHub exists for: per monitoring node the
// decoded-frame ring, density estimator, ARMA tracker, and window
// interval sets are built once instead of once per monitor.
//
// Not a figure from the paper; it extends the Figure-5 setup to the
// paper's remark that every neighbor of a sender can monitor it
// independently. Detection rates are per-monitor-config aggregates over
// all monitoring nodes. --grid_spacing=170 gives the center 8 in-range
// neighbors, the shape of the benchmark's allpairs_deg8 workload.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/experiment.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "All-pairs monitoring: every in-range neighbor of the "
                       "tagged node runs the full monitor set, static grid.");
  flags.add_double_list("loads", "0.6", "target traffic intensities");
  flags.add_double_list("pms", "0,50", "percentages of misbehavior swept");
  flags.add_count_list("sample_sizes", "10,25,50,100", "Wilcoxon window sizes");
  flags.add_double_list("margins", "0.05,0.10,0.15", "permissible deficit fractions (configs = sizes x margins)");
  flags.add_int("grid_rows", 3, "grid rows (3x3 = one contention domain)");
  flags.add_int("grid_cols", 3, "grid columns");
  flags.add_double("grid_spacing", 240,
                   "one-hop neighbor spacing (m); below ~176 the 3x3 grid's "
                   "diagonals come in tx range and all-pairs monitoring "
                   "reaches degree 8 at the center");
  flags.add_int("num_flows", 8, "one-hop flows");
  flags.add_double("sim_time", 120, "simulated seconds per (load, PM) point");
  flags.add_int("runs", 2, "independent runs per point (consecutive seeds)");
  flags.add_int("seed", 501, "base random seed");
  flags.add_double("alpha", 0.01, "significance level for rejecting H0");
  flags.add_string("channel_index", "auto",
                   "channel receiver lookup: auto | scan");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  const auto loads = flags.get_double_list("loads");
  const auto pms = flags.get_double_list("pms");
  const auto sample_sizes = flags.get_double_list("sample_sizes");
  const auto margins = flags.get_double_list("margins");
  const int runs = static_cast<int>(flags.get_int("runs"));

  bench::print_header(
      "All-pairs monitoring workload (dense static grid)",
      "every neighbor of a sender can verify its back-off independently; "
      "the shared observation hub makes the per-node cost monitor-count "
      "insensitive");

  net::ScenarioConfig scenario;  // Table-1 spacing/ranges, smaller grid
  scenario.grid_rows = static_cast<std::size_t>(flags.get_int("grid_rows"));
  scenario.grid_cols = static_cast<std::size_t>(flags.get_int("grid_cols"));
  scenario.num_flows = static_cast<std::size_t>(flags.get_int("num_flows"));
  scenario.grid_spacing_m = flags.get_double("grid_spacing");
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  scenario.channel_index = flags.get("channel_index");

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();
  bench::RateCache rates(scenario);

  const std::vector<net::CalibrationResult> load_cal = engine.map(
      loads.size(), [&](std::size_t i) { return rates.calibration_for(loads[i]); });

  std::vector<detect::MultiDetectionConfig> points;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    for (double pm : pms) {
      detect::MultiDetectionConfig cfg;
      cfg.scenario = scenario;
      cfg.rate_pps = load_cal[li].packets_per_second;
      cfg.pm = pm;
      cfg.all_pairs = true;
      for (double margin : margins) {
        for (double ss : sample_sizes) {
          detect::MonitorConfig m;
          m.sample_size = static_cast<std::size_t>(ss);
          m.alpha = flags.get_double("alpha");
          m.margin_fraction = margin;
          m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;  // grid, Section 5
          m.fixed_contenders = 20.0;
          cfg.monitors.push_back(m);
        }
      }
      points.push_back(cfg);
    }
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = detect::run_multi_detection_sweep(points, runs, engine);
  const double sweep_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();

  std::size_t point = 0;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    std::printf("\n## Load = %.1f (", loads[li]);
    bench::print_achieved_load(load_cal[li]);
    std::printf(")  (columns: all-paths rate / statistical-only rate (windows), "
                "summed over monitoring nodes)\n");
    std::printf("  %-5s %-7s", "PM", "margin");
    for (double ss : sample_sizes) std::printf("  ss=%-17.0f", ss);
    std::printf("  nodes  intensity\n");

    for (double pm : pms) {
      const auto& result = results[point++];
      for (std::size_t mi = 0; mi < margins.size(); ++mi) {
        std::printf("  %-5.0f %-7.2f", pm, margins[mi]);
        for (std::size_t si = 0; si < sample_sizes.size(); ++si) {
          const auto& r = result.per_config[mi * sample_sizes.size() + si];
          std::printf("  %5.3f/%5.3f (%4llu)", r.detection_rate,
                      r.statistical_rate,
                      static_cast<unsigned long long>(r.windows));
        }
        std::printf("  %-5llu  %.3f\n",
                    static_cast<unsigned long long>(result.monitor_nodes),
                    result.measured_rho);
        std::fflush(stdout);

        for (std::size_t si = 0; si < sample_sizes.size(); ++si) {
          const auto& r = result.per_config[mi * sample_sizes.size() + si];
          exp::Record rec;
          rec.add("bench", "fig_allpairs_monitoring")
              .add("load", loads[li])
              .add("pm", pm)
              .add("sample_size", sample_sizes[si])
              .add("margin", margins[mi])
              .add("rate_pps", load_cal[li].packets_per_second)
              .add("achieved_busy", load_cal[li].measured_busy_fraction)
              .add("saturated", load_cal[li].saturated)
              .add("runs", runs)
              .add("sim_time_s", flags.get_double("sim_time"))
              .add("monitor_nodes", result.monitor_nodes)
              .add("monitors", result.monitor_nodes * margins.size() *
                                   sample_sizes.size())
              .add("windows", r.windows)
              .add("flagged", r.flagged)
              .add("flagged_statistical", r.flagged_statistical)
              .add("detection_rate", r.detection_rate)
              .add("statistical_rate", r.statistical_rate)
              .add("intensity", result.measured_rho)
              .add("wall_seconds", result.wall_seconds)
              .add("threads", engine.threads());
          sink->record(rec);
        }
      }
    }
  }
  sink->flush();
  std::printf("\n# sweep wall-clock: %.2f s (%u threads, %zu points x %d runs)\n",
              sweep_wall, engine.threads(), points.size(), runs);
  return 0;
}
