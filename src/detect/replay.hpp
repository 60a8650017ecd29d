// Offline detection over recorded observation traces.
//
// A ReplaySession reconstructs the monitor node's world from a trace
// header — a bare simulator advanced to the recording start, a
// carrier-sense timeline restored from the header snapshot — and runs the
// SAME Monitor/ObservationHub code the live experiment runs, fed by
// ObservationHub::consume() walking the decoded trace instead of simulator
// callbacks. Replayed
// MonitorStats and window logs are byte-identical to the live run that
// recorded the trace (tests/trace_test.cpp holds this across static,
// mobile-handoff, lossy, and attacker scenarios).
//
// replay_detection() is the offline counterpart of
// run_multi_detection_experiment(): it replays one trace per monitoring
// node (in recording order, which is monitor-creation order) and
// aggregates per-config results with the same readout loop. Fields that
// only the live network can measure (measured_rho) are zero.
#pragma once

#include <memory>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/monitor.hpp"
#include "detect/monitor_batch.hpp"
#include "detect/trace.hpp"
#include "sim/simulator.hpp"

namespace manet::detect {

/// One monitoring node's offline detection run: hub, timeline, and the
/// monitors as lanes of one MonitorBatch (config-major, then target order
/// — exactly the live harness's creation order).
class ReplaySession {
 public:
  ReplaySession(const TraceHeader& header,
                const std::vector<MonitorConfig>& monitors);

  /// Replays `trace` through the hub. kActivity markers toggle every view
  /// (the recorded handoff suspends/resumes); other markers only advance
  /// the clock. May be called with several traces in sequence.
  void run(const MemoryTraceReader& trace);

  const TraceHeader& header() const { return header_; }
  const std::vector<std::unique_ptr<Monitor>>& views() const { return views_; }
  sim::Simulator& simulator() { return sim_; }
  ObservationHub& hub() { return *hub_; }

 private:
  TraceHeader header_;
  sim::Simulator sim_;
  phy::CsTimeline timeline_;
  // Declaration order is destruction contract: views (facades) first,
  // then the batch (detaching its groups), then the hub.
  std::unique_ptr<ObservationHub> hub_;
  std::unique_ptr<MonitorBatch> batch_;
  std::vector<std::unique_ptr<Monitor>> views_;
};

/// Replays recorded traces (one per monitoring node, in recording order)
/// against `monitors` and aggregates exactly like the live harness:
/// windows before `warmup_s` are dropped, per-config counters and stats
/// accumulate in creation order. `handoffs` is recovered from the
/// suspend markers in the traces; `measured_rho` (live-only) stays 0.
MultiDetectionResult replay_detection(
    const std::vector<const MemoryTraceReader*>& traces,
    const std::vector<MonitorConfig>& monitors, double warmup_s,
    bool collect_windows = false);

/// Convenience over a whole recorder (e.g. fresh from a live run).
MultiDetectionResult replay_detection(const TraceRecorder& recorder,
                                      const std::vector<MonitorConfig>& monitors,
                                      double warmup_s,
                                      bool collect_windows = false);

}  // namespace manet::detect
