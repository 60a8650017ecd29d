// The per-view detection pipeline, kept as the equivalence oracle for
// MonitorBatch.
//
// ReferenceMonitor is the paper's per-neighbor monitor (detect/monitor.hpp
// documents the checks) written as one scalar HubView per (monitor node,
// tagged neighbor, config): it evaluates every decoded frame on its own,
// with its own exchange tracking and its own Wilcoxon / sequential state.
// MonitorBatch evaluates the same logic once per config-group and fans the
// outcome out to SoA lanes; both must produce bit-identical WindowResult
// sequences and MonitorStats.
//
// reference_replay() runs the oracle over recorded traces in the private
// layout: every (trace, config, target) gets its own replay world and
// ObservationHub, so no hub component is shared. Comparing its result with
// the live batched run that recorded the traces checks the batch lanes,
// the hub's component sharing, and the trace path in one go.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/monitor.hpp"
#include "detect/observation_hub.hpp"
#include "detect/system_state.hpp"
#include "detect/trace.hpp"
#include "detect/wilcoxon.hpp"
#include "mac/backoff.hpp"
#include "reference_sequential.hpp"

namespace manet::detect {

class ReferenceMonitor : public HubView {
 public:
  using SampleRecord = Monitor::SampleRecord;

  /// Attaches as a view of `hub` (the hub's node is R). `tagged` is S.
  ReferenceMonitor(ObservationHub& hub, NodeId tagged, const MonitorConfig& config);
  ~ReferenceMonitor() override;

  ReferenceMonitor(const ReferenceMonitor&) = delete;
  ReferenceMonitor& operator=(const ReferenceMonitor&) = delete;

  NodeId tagged() const { return tagged_; }

  /// Suspend/resume observation. Reactivation clears the partially filled
  /// window and the exchange anchor.
  void set_active(bool active);
  bool active() const { return active_; }

  const MonitorStats& stats() const { return stats_; }
  const std::vector<WindowResult>& windows() const { return windows_; }
  const std::vector<SampleRecord>& sample_log() const { return sample_log_; }

  // HubView:
  bool view_active() const override { return active_; }
  void on_hub_frame(const mac::Frame& frame, SimTime start, SimTime end) override;

 private:
  SystemStateParams current_state() const;
  void handle_tagged_rts(const mac::Frame& rts, SimTime start);
  void note_exchange_end(SimTime at);
  void add_sample(double expected, double observed, bool deterministic_violation);
  void close_window();
  /// Emits a sequential-detector window (threshold crossing, or the
  /// checkpoint every sample_size samples).
  void close_sequential(bool crossed, double score);
  /// Appends a completed window verdict with the shared flag/first-flag
  /// bookkeeping. `single_shot` marks the anchorless rts_gap_bound path:
  /// its verdicts carry no window ordinal (windows_to_first_flag stays 0).
  void record_window(const WindowResult& result, bool single_shot = false);
  /// Unwraps the 13-bit announced offset against the last seen offset.
  std::uint64_t unwrap_seq_off(std::uint32_t announced);

  ObservationHub& hub_;
  sim::Simulator& sim_;
  phy::CsTimeline& timeline_;
  NodeId tagged_;
  MonitorConfig config_;

  mac::VerifiableBackoff tagged_prs_;
  SystemStateModel model_;

  // Hub components (shared or private per the hub's keying rules).
  ObservationHub::FrameRing* ring_;
  ObservationHub::IntensityTracker* arma_;
  HeardTransmitterDensity* density_;

  bool active_ = true;

  // Exchange tracking for the tagged node.
  std::optional<SimTime> anchor_;
  bool own_cts_pending_ = false;
  std::optional<std::uint64_t> last_seq_off_;  // unwrapped
  std::optional<SimTime> last_rts_heard_;      // air start of the last RTS
  std::optional<crypto::Md5Digest> last_digest_;
  std::uint32_t last_attempt_ = 0;

  // Current accumulating window.
  std::vector<double> xs_;
  std::vector<double> ys_;
  bool window_deterministic_flag_ = false;

  // Sequential-detector state (null under kWilcoxon). seq_samples_ counts
  // samples since the last emitted window (crossing or checkpoint).
  std::unique_ptr<SequentialTest> seq_test_;
  std::size_t seq_samples_ = 0;

  // Statistics scratch, reused across windows.
  std::vector<double> shifted_;
  WilcoxonScratch wilcoxon_scratch_;

  MonitorStats stats_;
  std::vector<WindowResult> windows_;
  std::vector<SampleRecord> sample_log_;
};

/// Everything one reference monitor produced over one trace.
struct ReferenceLane {
  MonitorStats stats;
  std::vector<WindowResult> windows;
  std::vector<ReferenceMonitor::SampleRecord> samples;
};

/// Replays `trace` into one reference monitor watching `target` with
/// `config`, in a private replay world (its own simulator, restored
/// timeline and ObservationHub); kActivity markers toggle it.
ReferenceLane reference_lane(const MemoryTraceReader& trace, NodeId target,
                             const MonitorConfig& config);

/// Replays every trace of `recorder` into reference monitors, one private
/// replay world (simulator, restored timeline, ObservationHub) per
/// (trace, config, target), and aggregates exactly like replay_detection:
/// windows before `warmup_s` are dropped, per-config counters and stats
/// accumulate in trace, then config, then target order, and every window
/// lands in window_log. `measured_rho` (live-only) stays 0.
MultiDetectionResult reference_replay(const TraceRecorder& recorder,
                                      const std::vector<MonitorConfig>& monitors,
                                      double warmup_s);

}  // namespace manet::detect
