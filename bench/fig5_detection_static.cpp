// Figure 5(a)-(c): probability of correct diagnosis vs percentage of
// misbehavior (PM), for sample sizes {10, 25, 50, 100} at loads
// {0.3, 0.6, 0.9} on the static grid.
//
// One simulation per (load, PM, trial) feeds all four sample sizes
// concurrently. All trials of the whole load x PM grid share the
// experiment engine's work queue (--threads), and per-point aggregation
// happens in trial order, so the numbers are bit-identical to a serial
// run. The per-flow rate for each load is calibrated once (busy fraction
// at the monitored pair), mirroring how the paper dials in ns-2 loads.
//
// The sweep runs on the experiment fabric: cells are the (load, PM) grid
// points followed by the optional adversary-zoo rows, in that fixed
// order, so --shard i/N computes a contiguous slice whose artifact
// concatenates with the other shards into the serial artifact
// byte-for-byte (see exp/shard.hpp), and --columnar/--checkpoint add the
// binary artifact and crash-safe resume.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/roc.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Figure 5(a)-(c): probability of correct diagnosis vs PM, static grid.");
  flags.add_double_list("loads", "0.3,0.6,0.9", "target traffic intensities (Fig. 5 a-c)");
  flags.add_double_list("pms", "10,25,40,50,65,80,90,100", "percentages of misbehavior swept");
  flags.add_count_list("sample_sizes", "10,25,50,100", "Wilcoxon window sizes");
  flags.add_double("sim_time", 300, "simulated seconds per (load, PM) point");
  flags.add_int("runs", 2, "independent runs per point (consecutive seeds)");
  flags.add_int("seed", 101, "base random seed");
  flags.add_double("alpha", 0.01, "significance level for rejecting H0");
  flags.add_double("margin", 0.10, "permissible back-off deficit (fraction of expected mean)");
  flags.add_name_list("attackers", "", "extra adversary-zoo rows per load (colluding, adaptive, "
                 "sybil, rts_flood, pm<percent>); empty keeps the paper grid "
                 "byte-identical");
  flags.add_string("channel_index", "auto",
                   "channel receiver lookup: auto | incremental | rebuild | scan");
  flags.add_engine_flags();
  flags.add_fabric_flags();
  flags.parse_or_exit(argc, argv);

  const auto loads = flags.get_double_list("loads");
  const auto pms = flags.get_double_list("pms");
  const auto sample_sizes = flags.get_double_list("sample_sizes");
  const int runs = static_cast<int>(flags.get_int("runs"));
  const auto attacker_names = flags.get_name_list("attackers");

  // Resolve attacker specs up-front so a bad --attackers fails before any
  // simulation runs.
  const detect::AttackerTuning tuning;  // zoo defaults (pm 80, group 3)
  std::vector<detect::AttackerSpec> attacker_specs;
  for (const std::string& name : attacker_names) {
    try {
      attacker_specs.push_back(detect::attacker_spec_from_name(name, tuning));
    } catch (const util::ConfigError& e) {
      std::fprintf(stderr, "flag error: --attackers: %s\n", e.what());
      return 1;
    }
  }

  bench::print_header(
      "Figure 5(a)-(c): probability of correct diagnosis, static grid",
      "PM=65 detected w.p. >0.8 even at sample size 10; larger samples detect "
      "subtler misbehavior (PM=25 w.p. ~1 at sample size 100)");

  net::ScenarioConfig scenario;  // Table-1 grid defaults
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  scenario.channel_index = flags.get("channel_index");

  exp::Engine engine = flags.make_engine();
  bench::RateCache rates(scenario);

  // Cell layout: the (load, PM) paper grid in row-major order, then one
  // cell per (load, attacker) zoo row. Order is load-major in both parts
  // so the serial artifact (and the table) group by load.
  const std::uint64_t grid_cells =
      static_cast<std::uint64_t>(loads.size()) * pms.size();
  const std::uint64_t total_cells =
      grid_cells + static_cast<std::uint64_t>(loads.size()) * attacker_specs.size();
  const auto fabric = flags.make_fabric(total_cells, "fig5_detection_static");

  // Calibrate every load up-front, across the workers (shared across
  // shards through $MANET_RATE_CACHE / $MANET_ARTIFACTS).
  const std::vector<double> load_rates =
      engine.map(loads.size(), [&](std::size_t i) { return rates.rate_for(loads[i]); });

  const auto build_point = [&](std::uint64_t cell) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    bool gap_bound = false;
    if (cell < grid_cells) {
      const std::size_t li = static_cast<std::size_t>(cell / pms.size());
      cfg.rate_pps = load_rates[li];
      cfg.pm = pms[cell % pms.size()];
    } else {
      const std::uint64_t e = cell - grid_cells;
      const std::size_t li = static_cast<std::size_t>(e / attacker_specs.size());
      const auto& spec = attacker_specs[e % attacker_specs.size()];
      cfg.rate_pps = load_rates[li];
      cfg.attacker = spec;
      // Monitors watching the flood enable the anchorless RTS-gap bound —
      // that row would otherwise never produce a window to score; timing
      // attackers keep the paper's statistical detector so the columns
      // stay comparable to the PM grid.
      gap_bound = (spec.kind == detect::AttackerKind::kRtsFlood);
    }
    for (double ss : sample_sizes) {
      detect::MonitorConfig m;
      m.sample_size = static_cast<std::size_t>(ss);
      m.alpha = flags.get_double("alpha");
      m.margin_fraction = flags.get_double("margin");
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;  // grid, Section 5
      m.fixed_contenders = 20.0;
      m.rts_gap_bound = gap_bound;
      cfg.monitors.push_back(m);
    }
    return cfg;
  };

  // Table headers are emitted lazily so a shard's partial table still
  // labels its rows.
  std::ptrdiff_t grid_header_load = -1;
  std::ptrdiff_t extra_header_load = -1;
  const auto emit_cell = [&](std::uint64_t cell,
                             const detect::MultiDetectionResult& result) {
    fabric->begin_cell(cell);
    if (cell < grid_cells) {
      const auto li = static_cast<std::ptrdiff_t>(cell / pms.size());
      const double pm = pms[cell % pms.size()];
      if (li != grid_header_load) {
        grid_header_load = li;
        std::printf("\n## Load = %.1f  (columns: all-paths rate / statistical-only rate (windows))\n",
                    loads[li]);
        std::printf("  %-5s", "PM");
        for (double ss : sample_sizes) std::printf("  ss=%-17.0f", ss);
        std::printf("  intensity\n");
      }
      std::printf("  %-5.0f", pm);
      for (const auto& r : result.per_config) {
        std::printf("  %5.3f/%5.3f (%4llu)", r.detection_rate,
                    r.statistical_rate, static_cast<unsigned long long>(r.windows));
      }
      std::printf("  %.3f\n", result.measured_rho);
      std::fflush(stdout);

      for (std::size_t si = 0; si < sample_sizes.size(); ++si) {
        const auto& r = result.per_config[si];
        exp::Record rec;
        rec.add("bench", "fig5_detection_static")
            .add("load", loads[li])
            .add("pm", pm)
            .add("sample_size", sample_sizes[si])
            .add("rate_pps", load_rates[li])
            .add("runs", runs)
            .add("sim_time_s", flags.get_double("sim_time"))
            .add("windows", r.windows)
            .add("flagged", r.flagged)
            .add("flagged_statistical", r.flagged_statistical)
            .add("detection_rate", r.detection_rate)
            .add("statistical_rate", r.statistical_rate)
            .add("intensity", result.measured_rho)
            .add("wall_seconds", result.wall_seconds)
            .add("threads", engine.threads());
        fabric->record(rec);
      }
    } else {
      const std::uint64_t e = cell - grid_cells;
      const auto li = static_cast<std::ptrdiff_t>(e / attacker_specs.size());
      const std::string& name = attacker_names[e % attacker_specs.size()];
      if (li != extra_header_load) {
        extra_header_load = li;
        std::printf("\n## Load = %.1f, adversary zoo v2 (gap bound on for rts_flood)\n",
                    loads[li]);
        std::printf("  %-10s", "attacker");
        for (double ss : sample_sizes) std::printf("  ss=%-17.0f", ss);
        std::printf("\n");
      }
      std::printf("  %-10s", name.c_str());
      for (const auto& r : result.per_config) {
        std::printf("  %5.3f/%5.3f (%4llu)", r.detection_rate,
                    r.statistical_rate,
                    static_cast<unsigned long long>(r.windows));
      }
      std::printf("\n");
      std::fflush(stdout);

      for (std::size_t si = 0; si < sample_sizes.size(); ++si) {
        const auto& r = result.per_config[si];
        exp::Record rec;
        rec.add("bench", "fig5_detection_static")
            .add("attacker", name)
            .add("load", loads[li])
            .add("sample_size", sample_sizes[si])
            .add("rate_pps", load_rates[li])
            .add("runs", runs)
            .add("sim_time_s", flags.get_double("sim_time"))
            .add("windows", r.windows)
            .add("flagged", r.flagged)
            .add("flagged_statistical", r.flagged_statistical)
            .add("detection_rate", r.detection_rate)
            .add("statistical_rate", r.statistical_rate)
            .add("first_flag_windows", r.stats.windows_to_first_flag)
            .add("intensity", result.measured_rho)
            .add("wall_seconds", result.wall_seconds)
            .add("threads", engine.threads());
        fabric->record(rec);
      }
    }
  };

  double sweep_wall = 0.0;
  fabric->run([&](std::uint64_t first, std::uint64_t last) {
    std::vector<detect::MultiDetectionConfig> chunk;
    chunk.reserve(static_cast<std::size_t>(last - first));
    for (std::uint64_t c = first; c < last; ++c) chunk.push_back(build_point(c));

    const auto chunk_start = std::chrono::steady_clock::now();
    const auto results = detect::run_multi_detection_sweep(chunk, runs, engine);
    sweep_wall += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                chunk_start)
                      .count();

    for (std::uint64_t c = first; c < last; ++c) {
      emit_cell(c, results[static_cast<std::size_t>(c - first)]);
    }
  });

  std::printf("\n# sweep wall-clock: %.2f s (%u threads, %llu of %llu cells x %d runs)\n",
              sweep_wall, engine.threads(),
              static_cast<unsigned long long>(fabric->cell_end() - fabric->cell_begin()),
              static_cast<unsigned long long>(total_cells), runs);
  return 0;
}
