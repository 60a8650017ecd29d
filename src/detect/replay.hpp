// Offline detection over recorded observation traces.
//
// A ReplaySession reconstructs the monitor node's world from a trace
// header — a bare simulator advanced to the recording start, a
// carrier-sense timeline restored from the header snapshot — and builds
// the SAME MonitoringNode (hub, batch, monitors) the live experiment
// builds, fed by ObservationHub::consume() walking the decoded trace
// instead of simulator callbacks. Replayed MonitorStats and window logs
// are byte-identical to the live run that recorded the trace
// (tests/trace_test.cpp holds this across static, mobile-handoff, lossy,
// and attacker scenarios).
//
// replay_detection() is the offline counterpart of
// run_multi_detection_experiment(): it replays one trace per monitoring
// node (in recording order, which is monitor-creation order) and reads
// each session's MonitoringNode out with the same
// MultiDetectionResult::read_out. Fields that only the live network can
// measure (measured_rho) are zero.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/monitor.hpp"
#include "detect/monitor_batch.hpp"
#include "detect/trace.hpp"
#include "sim/simulator.hpp"

namespace manet::detect {

/// One monitoring node's offline detection run: a timeline and a
/// MonitoringNode over it, with the monitors in the live harness's
/// creation order (config-major, then target).
class ReplaySession {
 public:
  ReplaySession(const TraceHeader& header,
                const std::vector<MonitorConfig>& monitors);

  /// Replays `trace` through the hub. kActivity markers toggle every view
  /// (the recorded handoff suspends/resumes); other markers only advance
  /// the clock. May be called with several traces in sequence.
  void run(const MemoryTraceReader& trace);

  const MonitoringNode& node() const { return *node_; }
  const std::vector<std::unique_ptr<Monitor>>& views() const { return node_->views(); }
  /// kActivity suspend markers replayed so far: each is one recorded
  /// handoff away from this node.
  std::uint64_t suspends() const { return suspends_; }

 private:
  sim::Simulator sim_;
  phy::CsTimeline timeline_;
  std::unique_ptr<MonitoringNode> node_;
  std::uint64_t suspends_ = 0;
};

/// Replays recorded traces (one per monitoring node, in recording order)
/// against `monitors` and reads them out with the live harness's readout
/// (MultiDetectionResult::read_out). `handoffs` is recovered from the
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
