#include "detect/replay.hpp"

namespace manet::detect {

ReplaySession::ReplaySession(const TraceHeader& header,
                             const std::vector<MonitorConfig>& monitors) {
  // World reconstruction order matters: the timeline must hold the
  // pre-attach carrier history and the clock must sit at the recording
  // start BEFORE the hub exists, so component attach times (and with them
  // the ARMA batch grid) match the live run that recorded the trace.
  timeline_.restore(header.timeline);
  sim_.run_until(header.start_time);
  node_ = std::make_unique<MonitoringNode>(sim_, header.node, header.params, timeline_);
  node_->watch(monitors, header.targets);
}

void ReplaySession::run(const MemoryTraceReader& trace) {
  node_->hub().consume(trace, [this](const ObservationEvent& ev) {
    if (ev.marker_code == static_cast<std::uint32_t>(MarkerCode::kActivity)) {
      node_->set_active(ev.marker_value != 0);
      if (ev.marker_value == 0) ++suspends_;
    }
    // kTraceEnd needs no action: consume() already moved the clock to the
    // marker's time, so readers fold every ARMA batch that ended by then.
  });
}

MultiDetectionResult replay_detection(
    const std::vector<const MemoryTraceReader*>& traces,
    const std::vector<MonitorConfig>& monitors, double warmup_s,
    bool collect_windows) {
  MultiDetectionResult result;
  result.per_config.resize(monitors.size());
  result.monitor_nodes = traces.size();
  const SimTime warmup = seconds_to_time(warmup_s);
  for (const MemoryTraceReader* trace : traces) {
    ReplaySession session(trace->header(), monitors);
    session.run(*trace);
    result.handoffs += session.suspends();  // every recorded suspend was one handoff
    result.read_out(session.node(), warmup, collect_windows);
  }
  result.compute_rates();
  return result;
}

MultiDetectionResult replay_detection(const TraceRecorder& recorder,
                                      const std::vector<MonitorConfig>& monitors,
                                      double warmup_s, bool collect_windows) {
  // Round-trip through the wire format on purpose: this path is what the
  // equivalence tests drive, and it must exercise serialization.
  std::vector<std::unique_ptr<MemoryTraceReader>> readers;
  std::vector<const MemoryTraceReader*> ptrs;
  readers.reserve(recorder.writers().size());
  for (const auto& writer : recorder.writers()) {
    readers.push_back(std::make_unique<MemoryTraceReader>(writer->serialize()));
    ptrs.push_back(readers.back().get());
  }
  return replay_detection(ptrs, monitors, warmup_s, collect_windows);
}

}  // namespace manet::detect
