#include "detect/monitor.hpp"

#include "detect/monitor_batch.hpp"

namespace manet::detect {

Monitor::Monitor(MonitorBatch& batch, NodeId tagged, const MonitorConfig& config)
    : batch_(batch), lane_(batch.add_lane(tagged, config)), tagged_(tagged) {}

Monitor::Monitor(std::unique_ptr<ObservationHub> hub, NodeId tagged,
                 const MonitorConfig& config)
    : owned_hub_(std::move(hub)),
      owned_batch_(std::make_unique<MonitorBatch>(*owned_hub_)),
      batch_(*owned_batch_),
      lane_(batch_.add_lane(tagged, config)),
      tagged_(tagged) {}

Monitor::~Monitor() = default;

void Monitor::set_active(bool active) { batch_.set_lane_active(lane_, active); }

bool Monitor::active() const { return batch_.lane_active(lane_); }

void accumulate_stats(MonitorStats& into, const MonitorStats& from) {
  into.rts_observed += from.rts_observed;
  into.samples += from.samples;
  into.windows += from.windows;
  into.flagged_windows += from.flagged_windows;
  into.seq_off_violations += from.seq_off_violations;
  into.attempt_violations += from.attempt_violations;
  into.impossible_backoff += from.impossible_backoff;
  into.skipped_no_anchor += from.skipped_no_anchor;
  into.skipped_long_window += from.skipped_long_window;
  into.skipped_queue_gap += from.skipped_queue_gap;
  into.seq_off_resyncs += from.seq_off_resyncs;
  into.frames_lost += from.frames_lost;
  into.windows_discarded_impaired += from.windows_discarded_impaired;
  if (from.first_flag_time < into.first_flag_time) {
    into.first_flag_time = from.first_flag_time;
    into.windows_to_first_flag = from.windows_to_first_flag;
  }
}

const MonitorStats& Monitor::stats() const { return batch_.lane_stats(lane_); }

const std::vector<WindowResult>& Monitor::windows() const {
  return batch_.lane_windows(lane_);
}

const std::vector<Monitor::SampleRecord>& Monitor::sample_log() const {
  return batch_.lane_samples(lane_);
}

std::size_t Monitor::decoded_retained() const {
  return batch_.lane_ring(lane_).size();
}

double Monitor::flag_rate() const {
  const MonitorStats& st = stats();
  if (st.windows == 0) return 0.0;
  return static_cast<double>(st.flagged_windows) /
         static_cast<double>(st.windows);
}

double Monitor::traffic_intensity() const {
  return batch_.lane_tracker(lane_).filter().intensity();
}

const ObservationHub& Monitor::hub() const { return batch_.hub(); }

std::unique_ptr<Monitor> MonitorFactory::watch(NodeId tagged) const {
  if (batch_) return std::make_unique<Monitor>(*batch_, tagged, config_);
  auto hub = std::make_unique<ObservationHub>(*sim_, *mac_, *timeline_);
  return std::unique_ptr<Monitor>(new Monitor(std::move(hub), tagged, config_));
}

}  // namespace manet::detect
