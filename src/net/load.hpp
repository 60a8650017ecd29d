// Offered-load calibration.
//
// The paper reports results against "traffic intensity" / "load" — the
// fraction of busy slots a station observes (Section 4's definition,
// rho = B/N). The mapping from per-flow packet rate to observed busy
// fraction depends on topology, flow placement, and MAC overheads, so the
// benches calibrate it empirically with short probe simulations, the way
// the paper's authors dial in ns-2 loads:
//
//  * Bracket. Double the rate from kFirstProbeRate until the probe node's
//    busy fraction reaches the target. A doubling that raises the busy
//    fraction by less than `tol` (from a lower probe already at half the
//    target or more, so a quiet low-rate start never looks flat) is the
//    saturation plateau: the target cannot be reached, and the search
//    stops. Reaching kMaxProbeRate below the target is saturation too.
//  * Converge. Inside the bracket busy(lo) < target <= busy(hi), Illinois
//    false position on busy(rate) - target picks each next rate.
//
// Either way the result is the probed rate whose busy fraction is closest
// to the target, with that busy fraction and a `saturated` flag, so a
// figure point labelled 0.9 says what load actually ran.
#pragma once

#include <functional>

#include "net/network.hpp"
#include "net/scenario.hpp"

namespace manet::net {

struct CalibrationResult {
  double packets_per_second = 0.0;  // per-flow rate, closest probe to the target
  double measured_busy_fraction = 0.0;
  int probe_runs = 0;
  /// The target is out of reach: the busy fraction plateaued (or the rate
  /// hit kMaxProbeRate) below it, and the rate is the plateau's best probe.
  bool saturated = false;
};

/// The bracketing walk's first and largest per-flow rates (pkt/s).
inline constexpr double kFirstProbeRate = 4.0;
inline constexpr double kMaxProbeRate = 4096.0;

/// Busy fraction the probe node observes at a per-flow rate.
using BusyAt = std::function<double(double packets_per_second)>;

/// The calibration search over any busy(rate) curve: brackets with a
/// plateau stop, then converges by Illinois false position until a probe
/// is within `tol` of `target`. Calls `busy_at` at most `max_probes` times
/// (at least once).
CalibrationResult search_rate(const BusyAt& busy_at, double target, double tol = 0.03,
                              int max_probes = 12);

/// Hook that installs the experiment's flows into a freshly built network
/// (the default installs the configured random one-hop flows).
using FlowSetup = std::function<void(Network&)>;

/// Measures the busy fraction seen by `probe` for a given per-flow rate.
double measure_busy_fraction(const ScenarioConfig& config, double packets_per_second,
                             NodeId probe, const FlowSetup& setup,
                             double warmup_s = 2.0, double measure_s = 8.0);

/// search_rate over measure_busy_fraction at the *center* node, where the
/// paper's monitored pair sits.
CalibrationResult calibrate_load(const ScenarioConfig& config, double target,
                                 const FlowSetup& setup = {}, double tol = 0.03,
                                 int max_probes = 12);

}  // namespace manet::net
