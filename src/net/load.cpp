#include "net/load.hpp"

#include <cmath>

namespace manet::net {

namespace {
void default_setup(Network& net) { net.build_random_flows(); }
}  // namespace

CalibrationResult search_rate(const BusyAt& busy_at, double target, double tol,
                              int max_probes) {
  CalibrationResult result;
  const auto probe = [&](double rate) {
    ++result.probe_runs;
    const double busy = busy_at(rate);
    if (result.probe_runs == 1 ||
        std::abs(busy - target) < std::abs(result.measured_busy_fraction - target)) {
      result.packets_per_second = rate;
      result.measured_busy_fraction = busy;
    }
    return busy;
  };
  const auto converged = [&] {
    return std::abs(result.measured_busy_fraction - target) <= tol;
  };
  const auto budget_left = [&] { return result.probe_runs < max_probes; };

  // Bracket: busy(lo) < target <= busy(hi), with busy(0) = 0.
  double lo = 0.0, lo_busy = 0.0;
  double hi = kFirstProbeRate;
  double hi_busy = probe(hi);
  while (hi_busy < target && !converged()) {
    if (hi >= kMaxProbeRate) {
      result.saturated = true;
      return result;
    }
    if (!budget_left()) return result;
    lo = hi;
    lo_busy = hi_busy;
    hi *= 2.0;
    hi_busy = probe(hi);
    if (hi_busy < target && !converged() && lo_busy >= 0.5 * target &&
        hi_busy - lo_busy < tol) {
      result.saturated = true;  // the plateau
      return result;
    }
  }

  // Illinois false position on f(rate) = busy(rate) - target. When the
  // same end survives two steps in a row its f is halved, so a curved
  // busy(rate) cannot pin one end and crawl in from the other.
  double f_lo = lo_busy - target;  // < 0
  double f_hi = hi_busy - target;  // >= 0
  int last_moved = 0;              // -1: lo, +1: hi
  while (!converged() && budget_left()) {
    double rate = (lo * f_hi - hi * f_lo) / (f_hi - f_lo);
    if (!(rate > lo && rate < hi)) rate = 0.5 * (lo + hi);
    const double f = probe(rate) - target;
    if (f < 0.0) {
      lo = rate;
      f_lo = f;
      if (last_moved == -1) f_hi *= 0.5;
      last_moved = -1;
    } else {
      hi = rate;
      f_hi = f;
      if (last_moved == 1) f_lo *= 0.5;
      last_moved = 1;
    }
  }
  return result;
}

double measure_busy_fraction(const ScenarioConfig& config, double packets_per_second,
                             NodeId probe, const FlowSetup& setup,
                             double warmup_s, double measure_s) {
  ScenarioConfig cfg = config;
  cfg.packets_per_second = packets_per_second;
  cfg.sim_seconds = warmup_s + measure_s;

  Network net(cfg);
  if (setup) {
    setup(net);
  } else {
    default_setup(net);
  }
  net.set_flow_rates(packets_per_second);

  const SimTime stop = seconds_to_time(cfg.sim_seconds);
  net.start_traffic(0, stop);
  const SimTime measure_from = seconds_to_time(warmup_s);
  const phy::CsTimeline& timeline = net.timeline(probe);  // records from t=0
  net.run_until(stop);
  return timeline.busy_fraction(measure_from, stop);
}

CalibrationResult calibrate_load(const ScenarioConfig& config, double target,
                                 const FlowSetup& setup, double tol, int max_probes) {
  // Probe at the center node (where the paper's monitored pair sits). The
  // center is layout-determined, so build one throwaway network to find it.
  NodeId probe;
  {
    Network net(config);
    probe = net.center_node();
  }
  return search_rate(
      [&](double rate) { return measure_busy_fraction(config, rate, probe, setup); },
      target, tol, max_probes);
}

}  // namespace manet::net
