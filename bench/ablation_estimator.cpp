// Ablation: the system-state estimator (Eqs. 1-5) behind the observed
// back-off samples.
//
// For each (load, PM, activity-mapping) it reports the mean expected
// back-off E[x], the mean observed estimate E[y], their ratio (the
// estimator bias that the permissible margin must absorb), the correlation
// between x and y, and the resulting detection/false-alarm rates. This is
// the design-choice study behind DESIGN.md's "per-slot activity
// calibration" decision, and doubles as the tuning harness for
// margin_fraction / alpha. Each (load, PM, mapping) cell is an independent
// simulation; cells fan out across the experiment engine (--threads).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/monitor.hpp"
#include "net/network.hpp"
#include "util/stats.hpp"

using namespace manet;

namespace {

struct Diag {
  double mean_x = 0, mean_y = 0, ratio = 0, corr = 0;
  double flag_rate = 0;
  std::uint64_t windows = 0, samples = 0;
  double wall_seconds = 0;
};

Diag run_once(const net::ScenarioConfig& scenario, double rate, double pm,
              detect::ActivityMapping mapping, std::size_t sample_size) {
  const auto start = std::chrono::steady_clock::now();
  net::Network net(scenario);
  const NodeId s = net.center_node();
  const NodeId r = net.neighbors(s, net.config().prop.tx_range_m, 0).front();

  net.add_flow(s, r, rate);
  net.build_random_flows();
  net.set_flow_rates(rate);
  if (pm > 0) {
    net.mac(s).set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(pm));
  }

  detect::MonitorConfig mc;
  mc.sample_size = sample_size;
  mc.mapping = mapping;
  mc.record_samples = true;
  mc.fixed_n = mc.fixed_k = mc.fixed_m = mc.fixed_j = 5.0;
  mc.fixed_contenders = 20.0;
  const auto monitor_ptr =
      detect::MonitorFactory(net.simulator(), net.mac(r), net.timeline(r))
          .watch(s, mc);
  detect::Monitor& monitor = *monitor_ptr;

  const SimTime stop = seconds_to_time(scenario.sim_seconds);
  net.start_traffic(0, stop);
  net.run_until(stop);

  Diag d;
  std::vector<double> xs, ys;
  for (const auto& rec : monitor.sample_log()) {
    if (!rec.accepted) continue;
    xs.push_back(rec.expected);
    ys.push_back(rec.observed);
  }
  d.samples = xs.size();
  d.windows = monitor.stats().windows;
  d.mean_x = util::mean_of(xs);
  d.mean_y = util::mean_of(ys);
  d.ratio = d.mean_x > 0 ? d.mean_y / d.mean_x : 0;
  d.corr = util::correlation(xs, ys);
  d.flag_rate = monitor.flag_rate();
  d.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return d;
}

struct Cell {
  double load = 0, rate = 0, pm = 0;
  detect::ActivityMapping mapping = detect::ActivityMapping::kPerSlot;
};

}  // namespace

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Ablation: estimator bias and mapping choice.");
  flags.add_double_list("loads", "0.3,0.6,0.9", "target traffic intensities");
  flags.add_double_list("pms", "0,25,50,90", "PM values probed");
  flags.add_double("sim_time", 120, "simulated seconds per point");
  flags.add_count("sample_size", 10, "Wilcoxon window size");
  flags.add_int("seed", 501, "random seed");
  flags.add_engine_flags();
  flags.parse_or_exit(argc, argv);

  bench::print_header(
      "Ablation: system-state estimator (activity mapping, bias, correlation)",
      "y tracks x (ratio ~1, positive correlation) under H0; ratio drops with PM");

  net::ScenarioConfig scenario;
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  exp::Engine engine = flags.make_engine();
  const auto sink = flags.make_sink();
  bench::RateCache rates(scenario);

  const auto loads = flags.get_double_list("loads");
  const auto pms = flags.get_double_list("pms");
  const std::size_t sample_size =
      static_cast<std::size_t>(flags.get_int("sample_size"));

  const std::vector<double> load_rates = engine.map(
      loads.size(), [&](std::size_t i) { return rates.rate_for(loads[i]); });

  std::vector<Cell> cells;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    for (double pm : pms) {
      for (auto mapping : {detect::ActivityMapping::kPerSlot,
                           detect::ActivityMapping::kIdentity}) {
        cells.push_back({loads[li], load_rates[li], pm, mapping});
      }
    }
  }

  const std::vector<Diag> diags = engine.map(cells.size(), [&](std::size_t i) {
    const Cell& c = cells[i];
    return run_once(scenario, c.rate, c.pm, c.mapping, sample_size);
  });

  std::printf("  %-6s %-5s %-10s %-8s %-8s %-8s %-7s %-9s %-8s\n", "load", "PM",
              "mapping", "E[x]", "E[y]", "y/x", "corr", "flagrate", "samples");

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const Diag& d = diags[i];
    const char* mapping_name =
        c.mapping == detect::ActivityMapping::kPerSlot ? "per-slot" : "identity";
    std::printf("  %-6.1f %-5.0f %-10s %-8.2f %-8.2f %-8.3f %-7.3f %-9.3f %-8llu\n",
                c.load, c.pm, mapping_name, d.mean_x, d.mean_y, d.ratio, d.corr,
                d.flag_rate, static_cast<unsigned long long>(d.samples));
    std::fflush(stdout);

    exp::Record rec;
    rec.add("bench", "ablation_estimator")
        .add("load", c.load)
        .add("pm", c.pm)
        .add("mapping", mapping_name)
        .add("rate_pps", c.rate)
        .add("sim_time_s", flags.get_double("sim_time"))
        .add("mean_expected", d.mean_x)
        .add("mean_observed", d.mean_y)
        .add("bias_ratio", d.ratio)
        .add("correlation", d.corr)
        .add("flag_rate", d.flag_rate)
        .add("windows", d.windows)
        .add("samples", d.samples)
        .add("wall_seconds", d.wall_seconds)
        .add("threads", engine.threads());
    sink->record(rec);
  }
  sink->flush();
  return 0;
}
