// Figure 6(a): probability of misdiagnosis (false alarm) vs sample size on
// the static grid, loads {0.3, 0.6, 0.9}. All nodes — including the tagged
// one — are well behaved; every flagged window is a false alarm.
//
// Rare-event measurement: the paper averages 10,000 runs. We aggregate
// windows across long runs and several seeds and report Wilson 95% upper
// bounds alongside the point estimates. Loads x runs fan out across the
// experiment engine (--threads).
//
// Runs on the experiment fabric (exp/fabric.hpp): cells are the honest
// loads followed by the (load, attacker) honest-phase rows, so --shard
// slices the sweep and --columnar/--checkpoint provide the binary
// artifact and crash-safe resume.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/roc.hpp"
#include "util/stats.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Figure 6(a): probability of misdiagnosis vs sample "
                       "size, static grid.");
  flags.add_double_list("loads", "0.3,0.6,0.9", "target traffic intensities");
  flags.add_count_list("sample_sizes", "10,25,50,100", "Wilcoxon window sizes");
  flags.add_double("sim_time", 300, "simulated seconds per run");
  flags.add_int("runs", 4, "independent runs per load (consecutive seeds)");
  flags.add_int("seed", 301, "base random seed");
  flags.add_double("alpha", 0.01, "significance level");
  flags.add_double("margin", 0.10, "permissible deficit fraction");
  flags.add_name_list("attackers", "", "extra honest-phase rows: run the identity machinery of "
                 "colluding/adaptive/sybil attackers with the timing cheat "
                 "disabled, so every flag is still a false alarm (empty "
                 "keeps the paper rows byte-identical)");
  flags.add_string("channel_index", "auto",
                   "channel receiver lookup: auto | incremental | rebuild | scan");
  flags.add_engine_flags();
  flags.add_fabric_flags();
  flags.parse_or_exit(argc, argv);

  const auto loads = flags.get_double_list("loads");
  const auto sample_sizes = flags.get_double_list("sample_sizes");
  const int runs = static_cast<int>(flags.get_int("runs"));
  const double sim_time = flags.get_double("sim_time");
  const auto attacker_names = flags.get_name_list("attackers");

  // Honest-phase adversary rows: the identity-layer machinery (group
  // membership, alias rotation, probation logic) runs, but the back-off
  // timing stays protocol-compliant — colluding/sybil at PM 0, adaptive
  // with probation past the horizon. Any flagged window is a false alarm
  // charged to the machinery itself (e.g. per-alias window accounting).
  // Timing attackers (pm<percent>, rts_flood) have no honest phase and are
  // rejected.
  detect::AttackerTuning tuning;
  tuning.pm = 0.0;
  tuning.probation_s = sim_time + 1.0;
  std::vector<detect::AttackerSpec> attacker_specs;
  for (const std::string& name : attacker_names) {
    detect::AttackerSpec spec;
    try {
      spec = detect::attacker_spec_from_name(name, tuning);
    } catch (const util::ConfigError& e) {
      std::fprintf(stderr, "flag error: --attackers: %s\n", e.what());
      return 1;
    }
    if (spec.kind != detect::AttackerKind::kColluding &&
        spec.kind != detect::AttackerKind::kAdaptive &&
        spec.kind != detect::AttackerKind::kSybil) {
      std::fprintf(stderr,
                   "flag error: --attackers: '%s' has no honest phase "
                   "(use colluding, adaptive or sybil)\n",
                   name.c_str());
      return 1;
    }
    attacker_specs.push_back(spec);
  }

  bench::print_header(
      "Figure 6(a): probability of misdiagnosis, static grid",
      "below 0.01 at sample size 10 and decreasing with sample size; higher "
      "at lower loads");

  net::ScenarioConfig scenario;
  scenario.sim_seconds = sim_time;
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  scenario.channel_index = flags.get("channel_index");

  exp::Engine engine = flags.make_engine();
  bench::RateCache rates(scenario);

  // Cell layout: one honest cell per load, then one cell per
  // (load, attacker) honest-phase row, load-major.
  const auto honest_cells = static_cast<std::uint64_t>(loads.size());
  const std::uint64_t total_cells =
      honest_cells + static_cast<std::uint64_t>(loads.size()) * attacker_specs.size();
  const auto fabric = flags.make_fabric(total_cells, "fig6_misdiagnosis_static");

  const std::vector<double> load_rates =
      engine.map(loads.size(), [&](std::size_t i) { return rates.rate_for(loads[i]); });

  const auto build_point = [&](std::uint64_t cell) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    cfg.pm = 0.0;  // everyone is honest
    bool attacker_row = cell >= honest_cells;
    std::size_t li;
    if (!attacker_row) {
      li = static_cast<std::size_t>(cell);
    } else {
      const std::uint64_t e = cell - honest_cells;
      li = static_cast<std::size_t>(e / attacker_specs.size());
      cfg.attacker = attacker_specs[e % attacker_specs.size()];
    }
    cfg.rate_pps = load_rates[li];
    for (double ss : sample_sizes) {
      detect::MonitorConfig m;
      m.sample_size = static_cast<std::size_t>(ss);
      m.alpha = flags.get_double("alpha");
      m.margin_fraction = flags.get_double("margin");
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
      m.fixed_contenders = 20.0;
      m.rts_gap_bound = attacker_row;
      cfg.monitors.push_back(m);
    }
    return cfg;
  };

  bool honest_header = false;
  bool extra_header = false;
  const auto emit_cell = [&](std::uint64_t cell,
                             const detect::MultiDetectionResult& result) {
    fabric->begin_cell(cell);
    if (cell < honest_cells) {
      const auto li = static_cast<std::size_t>(cell);
      if (!honest_header) {
        honest_header = true;
        std::printf("  %-6s %-6s %-9s %-9s %-12s %-10s\n", "load", "ss",
                    "windows", "flagged", "P(misdiag)", "95%% upper");
      }
      for (std::size_t i = 0; i < sample_sizes.size(); ++i) {
        const auto& r = result.per_config[i];
        util::ProportionEstimator p;
        for (std::uint64_t w = 0; w < r.windows; ++w) p.add(w < r.flagged);
        std::printf("  %-6.1f %-6.0f %-9llu %-9llu %-12.4f %-10.4f\n", loads[li],
                    sample_sizes[i], static_cast<unsigned long long>(r.windows),
                    static_cast<unsigned long long>(r.flagged), r.detection_rate,
                    p.wilson_upper());
        std::fflush(stdout);

        exp::Record rec;
        rec.add("bench", "fig6_misdiagnosis_static")
            .add("load", loads[li])
            .add("sample_size", sample_sizes[i])
            .add("rate_pps", load_rates[li])
            .add("runs", runs)
            .add("sim_time_s", sim_time)
            .add("windows", r.windows)
            .add("flagged", r.flagged)
            .add("misdiagnosis_rate", r.detection_rate)
            .add("wilson_upper_95", p.wilson_upper())
            .add("intensity", result.measured_rho)
            .add("wall_seconds", result.wall_seconds)
            .add("threads", engine.threads());
        fabric->record(rec);
      }
    } else {
      const std::uint64_t e = cell - honest_cells;
      const auto li = static_cast<std::size_t>(e / attacker_specs.size());
      const std::string& name = attacker_names[e % attacker_specs.size()];
      if (!extra_header) {
        extra_header = true;
        std::printf("\n  %-6s %-10s %-6s %-9s %-9s %-12s %-10s\n", "load",
                    "attacker", "ss", "windows", "flagged", "P(misdiag)",
                    "95%% upper");
      }
      for (std::size_t i = 0; i < sample_sizes.size(); ++i) {
        const auto& r = result.per_config[i];
        util::ProportionEstimator p;
        for (std::uint64_t w = 0; w < r.windows; ++w) p.add(w < r.flagged);
        std::printf("  %-6.1f %-10s %-6.0f %-9llu %-9llu %-12.4f %-10.4f\n",
                    loads[li], name.c_str(), sample_sizes[i],
                    static_cast<unsigned long long>(r.windows),
                    static_cast<unsigned long long>(r.flagged),
                    r.detection_rate, p.wilson_upper());
        std::fflush(stdout);

        exp::Record rec;
        rec.add("bench", "fig6_misdiagnosis_static")
            .add("attacker", name)
            .add("load", loads[li])
            .add("sample_size", sample_sizes[i])
            .add("rate_pps", load_rates[li])
            .add("runs", runs)
            .add("sim_time_s", sim_time)
            .add("windows", r.windows)
            .add("flagged", r.flagged)
            .add("misdiagnosis_rate", r.detection_rate)
            .add("wilson_upper_95", p.wilson_upper())
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
