// Experiment harnesses reproducing the paper's evaluation setups.
//
// Two shapes:
//  * Conditional-probability measurement (Figures 3-4): all nodes behave,
//    and we compare the analytical p(B|I) / p(I|B) from the system-state
//    model against the ground-truth joint occupancy of the center S-R pair.
//  * Detection / misdiagnosis runs (Figures 5-6): the center node S (the
//    tagged node) optionally misbehaves with a given PM; a neighboring
//    monitor R collects Wilcoxon windows; we report the fraction of
//    windows that flag S. With mobility the monitoring role (and S's flow)
//    is handed to a fresh one-hop neighbor whenever the current monitor
//    drifts out of range, as in the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "detect/monitor.hpp"
#include "exp/engine.hpp"
#include "net/network.hpp"
#include "net/scenario.hpp"

namespace manet::detect {

class TraceRecorder;  // detect/trace.hpp

// --- Conditional probabilities (Figures 3-4) --------------------------------

struct CondProbConfig {
  net::ScenarioConfig scenario;
  double rate_pps = 20.0;   // per-flow packet rate
  double warmup_s = 3.0;
  double measure_s = 30.0;
  MonitorConfig monitor;    // geometry + fixed counts + activity mapping
};

struct CondProbResult {
  double measured_rho = 0.0;          // R's busy fraction (traffic intensity)
  double sim_p_busy_given_idle = 0.0;
  double sim_p_idle_given_busy = 0.0;
  double ana_p_busy_given_idle = 0.0;
  double ana_p_idle_given_busy = 0.0;
  /// Wall-clock spent simulating this point (not part of the deterministic
  /// output; it feeds the benches' JSON records).
  double wall_seconds = 0.0;
};

CondProbResult run_cond_prob_experiment(const CondProbConfig& config);

/// Runs every point (one simulation each) across the engine's workers;
/// results come back in point order, bit-identical for any thread count.
std::vector<CondProbResult> run_cond_prob_sweep(
    const std::vector<CondProbConfig>& points, exp::Engine& engine);

// --- Adversary zoo v2 (mac/attackers.hpp) ------------------------------------

enum class AttackerKind : std::uint8_t {
  kNone,       // honest (or the legacy scalar `pm` knob of the config)
  kPm,         // the paper's solo stationary PM cheat on the tagged node
  kColluding,  // rotating group: one member aggressive at a time
  kAdaptive,   // honest during probation / monitor vigilance, cheats otherwise
  kSybil,      // violations spread across fake MAC identities
  kRtsFlood,   // bogus-RTS DoS, no data traffic from the tagged node
};

/// Declarative attacker selection for the detection experiments. The
/// default kind keeps the legacy behavior (scalar `pm` field) bit-exact.
struct AttackerSpec {
  AttackerKind kind = AttackerKind::kNone;
  double pm = 50.0;              // cheat strength (pm/colluding/adaptive/sybil)
  std::uint32_t group = 3;       // colluders, or sybil identities
  double collude_phase_s = 2.0;  // one member's aggressive turn
  double probation_s = 30.0;     // adaptive: honest until this sim time
  double vigilance_s = 0.0;      // adaptive: lie low this long after hearing a monitor
  bool suspect_monitor = false;  // adaptive: treat the monitor node as suspect
  double flood_pps = 1000.0;     // mean bogus-RTS rate
};

// --- Detection / misdiagnosis (Figures 5-6) ---------------------------------

struct DetectionConfig {
  net::ScenarioConfig scenario;
  double rate_pps = 20.0;
  /// Percentage of misbehavior of the tagged node (0 = well behaved; used
  /// for the misdiagnosis experiments).
  double pm = 0.0;
  MonitorConfig monitor;
  double warmup_s = 3.0;
  /// Hand the monitor role to a new neighbor when the current one leaves
  /// the tagged node's transmission range (mobile scenarios).
  bool mobile_handoff = false;
  SimDuration handoff_period = 500 * kMillisecond;
};

struct DetectionResult {
  std::uint64_t windows = 0;
  std::uint64_t flagged = 0;                // statistical OR deterministic
  std::uint64_t flagged_statistical = 0;    // Wilcoxon rejections only
  /// Every post-warmup WindowResult, in monitor-creation then trial order
  /// (only when MultiDetectionConfig::collect_windows; equivalence tests
  /// compare these sequences element-wise with the reference oracle).
  std::vector<WindowResult> window_log;
  /// The same decision stream split per trial, in trial order (filled by
  /// the trials/sweep entry points under collect_windows). The ROC/TTD
  /// scorer (detect/roc.hpp) needs per-trial first-crossing times, which
  /// the flattened window_log loses.
  std::vector<std::vector<WindowResult>> trial_logs;
  double detection_rate = 0.0;              // flagged / windows
  double statistical_rate = 0.0;            // flagged_statistical / windows
  double measured_rho = 0.0;    // intensity at the (initial) monitor
  std::uint64_t handoffs = 0;
  MonitorStats stats;           // aggregated over all monitors
  /// Summed wall-clock of the aggregated trials (excluded from
  /// determinism guarantees; everything above is bit-identical for any
  /// worker count).
  double wall_seconds = 0.0;
};

DetectionResult run_detection_experiment(const DetectionConfig& config);

/// Convenience: detection rate aggregated over `runs` independent trials
/// (trial i uses seed = base_seed + i, the engine's seeding contract).
/// Trials run across the engine's workers; aggregation happens in trial
/// order, so the result is bit-identical to a serial run.
DetectionResult run_detection_trials(const DetectionConfig& config, int runs,
                                     exp::Engine& engine);

/// Serial convenience overload (a 1-worker engine).
DetectionResult run_detection_trials(DetectionConfig config, int runs);

// --- Multi-monitor variant ---------------------------------------------------
//
// Runs ONE simulation with several Monitor configurations observing the
// same tagged node side by side (e.g. the four sample sizes of Figure 5).
// Sharing the run keeps the sweeps affordable and guarantees every
// configuration saw the identical channel history.

struct MultiDetectionConfig {
  net::ScenarioConfig scenario;
  double rate_pps = 20.0;
  double pm = 0.0;
  /// Adversary zoo v2 selection. kNone leaves the legacy `pm` path (and
  /// every existing artifact) untouched. Multi-identity kinds (colluding,
  /// sybil) monitor every involved identity and sum the verdicts;
  /// kRtsFlood replaces the tagged node's data flow with the flooder.
  AttackerSpec attacker;
  std::vector<MonitorConfig> monitors;   // one entry per configuration
  double warmup_s = 3.0;
  bool mobile_handoff = false;
  SimDuration handoff_period = 500 * kMillisecond;
  /// Every node within transmission range of the tagged node at t=0 runs
  /// the full monitor set (instead of only the nearest neighbor) — the
  /// scaling workload: one shared ObservationHub per monitoring node.
  /// Incompatible with mobile_handoff (the handoff protocol assumes a
  /// single monitoring role to move around).
  bool all_pairs = false;
  /// Fill DetectionResult::window_log (off by default: sweeps only need
  /// the aggregate counters).
  bool collect_windows = false;
  /// When set, every monitoring node's observation stream is recorded
  /// into this recorder (detect/trace.hpp): one TraceWriter per node in
  /// monitor-creation order, with kActivity markers at each handoff
  /// suspend/resume and a kTraceEnd marker at the stop time. Single-run
  /// use (run_multi_detection_experiment, not the trials/sweep entry
  /// points); the recorder must outlive the call. replay_detection() over
  /// the recorded traces reproduces this run's per-config results
  /// byte-for-byte (detect/replay.hpp).
  TraceRecorder* trace = nullptr;
};

struct MultiDetectionResult {
  std::vector<DetectionResult> per_config;  // parallel to config.monitors
  double measured_rho = 0.0;
  std::uint64_t handoffs = 0;
  /// Distinct nodes that ran monitors (1, or the neighbor count under
  /// all_pairs; max over trials when aggregated).
  std::uint64_t monitor_nodes = 0;
  double wall_seconds = 0.0;  // summed over trials; not deterministic
};

MultiDetectionResult run_multi_detection_experiment(const MultiDetectionConfig& config);

/// Aggregates `runs` independent multi-monitor trials (seed = base + i)
/// executed across the engine's workers; bit-identical to a serial run.
MultiDetectionResult run_multi_detection_trials(const MultiDetectionConfig& config,
                                                int runs, exp::Engine& engine);

/// Serial convenience overload (a 1-worker engine).
MultiDetectionResult run_multi_detection_trials(MultiDetectionConfig config, int runs);

// --- Sweeps ------------------------------------------------------------------
//
// A sweep is a list of points (one MultiDetectionConfig each, e.g. the
// load x PM grid of Figure 5) with `runs` trials per point. All
// (point, trial) pairs share the engine's work queue — the parallelism a
// bench sees is points x runs wide, not runs wide — and every point is
// aggregated in trial order, so sweep output is bit-identical for any
// thread count and scheduling.

/// Returns one aggregated result per point, in point order.
std::vector<MultiDetectionResult> run_multi_detection_sweep(
    const std::vector<MultiDetectionConfig>& points, int runs, exp::Engine& engine);

}  // namespace manet::detect
