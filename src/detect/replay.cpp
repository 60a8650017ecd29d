#include "detect/replay.hpp"

namespace manet::detect {

ReplaySession::ReplaySession(const TraceHeader& header,
                             const std::vector<MonitorConfig>& monitors)
    : header_(header) {
  // World reconstruction order matters: the timeline must hold the
  // pre-attach carrier history and the clock must sit at the recording
  // start BEFORE the hub exists, so component attach times (and the ARMA
  // tick chain's origin) match the live run that recorded the trace.
  timeline_.restore(header_.timeline);
  sim_.run_until(header_.start_time);
  hub_ = std::make_unique<ObservationHub>(sim_, header_.node, header_.params,
                                          timeline_);
  batch_ = std::make_unique<MonitorBatch>(*hub_);
  MonitorFactory factory(*batch_);
  views_.reserve(monitors.size() * header_.targets.size());
  for (const MonitorConfig& mc : monitors) {
    for (const NodeId target : header_.targets) {
      views_.push_back(factory.watch(target, mc));
    }
  }
}

void ReplaySession::run(ObservationSource& source) {
  hub_->consume(source, [this](const ObservationEvent& ev) {
    if (ev.marker_code == static_cast<std::uint32_t>(MarkerCode::kActivity)) {
      for (auto& view : views_) view->set_active(ev.marker_value != 0);
    }
    // kTraceEnd needs no action: consume() already advanced the clock to
    // the marker's time, firing any ARMA ticks due before the end of run.
  });
}

MultiDetectionResult replay_detection(
    const std::vector<MemoryTraceReader*>& traces,
    const std::vector<MonitorConfig>& monitors, double warmup_s,
    bool collect_windows) {
  MultiDetectionResult result;
  result.per_config.resize(monitors.size());
  result.monitor_nodes = traces.size();
  const SimTime warmup = seconds_to_time(warmup_s);

  std::vector<std::unique_ptr<ReplaySession>> sessions;
  sessions.reserve(traces.size());
  for (MemoryTraceReader* trace : traces) {
    auto session = std::make_unique<ReplaySession>(trace->header(), monitors);
    trace->rewind();
    session->run(*trace);
    for (const ObservationEvent& ev : trace->events()) {
      if (ev.kind == ObservationKind::kMarker &&
          ev.marker_code == static_cast<std::uint32_t>(MarkerCode::kActivity) &&
          ev.marker_value == 0) {
        ++result.handoffs;  // every recorded suspend was one handoff
      }
    }
    sessions.push_back(std::move(session));
  }

  // Same readout loop as run_multi_detection_experiment: creation order,
  // config-major then target, warmup filter on window close times.
  for (const auto& session : sessions) {
    const std::size_t target_count = session->header().targets.size();
    for (std::size_t ci = 0; ci < monitors.size(); ++ci) {
      DetectionResult& out = result.per_config[ci];
      for (std::size_t ti = 0; ti < target_count; ++ti) {
        const Monitor& view = *session->views()[ci * target_count + ti];
        for (const WindowResult& w : view.windows()) {
          if (w.at < warmup) continue;
          ++out.windows;
          if (w.flagged()) ++out.flagged;
          if (w.statistical_flag) ++out.flagged_statistical;
          if (collect_windows) out.window_log.push_back(w);
        }
        accumulate_stats(out.stats, view.stats());
      }
    }
  }
  for (DetectionResult& out : result.per_config) {
    out.detection_rate = out.windows ? static_cast<double>(out.flagged) /
                                           static_cast<double>(out.windows)
                                     : 0.0;
    out.statistical_rate =
        out.windows ? static_cast<double>(out.flagged_statistical) /
                          static_cast<double>(out.windows)
                    : 0.0;
    out.handoffs = result.handoffs;
  }
  return result;
}

MultiDetectionResult replay_detection(const TraceRecorder& recorder,
                                      const std::vector<MonitorConfig>& monitors,
                                      double warmup_s, bool collect_windows) {
  // Round-trip through the wire format on purpose: this path is what the
  // equivalence tests drive, and it must exercise serialization.
  std::vector<std::unique_ptr<MemoryTraceReader>> readers;
  std::vector<MemoryTraceReader*> ptrs;
  readers.reserve(recorder.writers().size());
  for (const auto& writer : recorder.writers()) {
    readers.push_back(std::make_unique<MemoryTraceReader>(writer->serialize()));
    ptrs.push_back(readers.back().get());
  }
  return replay_detection(ptrs, monitors, warmup_s, collect_windows);
}

}  // namespace manet::detect
