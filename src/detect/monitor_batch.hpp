// Batched struct-of-arrays detection core — one pass per node. This is
// the only detection pipeline: every Monitor (monitor.hpp) is a lane here.
//
// The monitors on one node consume the same observation state (the
// node's ObservationHub), and most of a monitor's per-frame work depends
// only on that state and a handful of config knobs: the RTS deterministic
// checks, the window's CsTimeline/ring accounting, the SystemStateModel
// Eq. 1-5 conditional probabilities, and the density/ARMA inputs. With M
// configurations watching T tagged identities, evaluating that per
// monitor would be M*T near-identical passes per decoded frame.
//
// MonitorBatch evaluates it batch-at-a-time instead:
//
//  * Monitors sharing every *evaluation-relevant* config field (everything
//    except the per-lane test knobs: sample_size, alpha, margin_fraction,
//    wilcoxon options, detector kind + params, record_samples) and the
//    same tagged identity collapse into one config-group (`Group`). The
//    group — not the individual monitors — is the HubView: it owns the PRS
//    verifier, the system-state model, the exchange-tracking state, and
//    borrows the hub's shared ring/ARMA/density components under the
//    hub's usual keying rules. Each decoded frame is evaluated ONCE per
//    group; the resulting RtsOutcome (counter deltas, deterministic flags,
//    and the CW-normalized (expected, observed) sample) is applied once
//    per group: the deltas join one pending sum that is folded into the
//    active lanes when they are read or toggled, and the flag and sample
//    go to the group's windows.
//  * Per-monitor state lives in flat parallel arrays (SoA lanes): test
//    thresholds, margins, stats, window and sample logs.
//  * The lanes of a group that share a sample size also share one sample
//    window: one [offset, offset+capacity) slice of the batch's arenas, one
//    fill count and one latched deterministic flag. A group's lanes see the
//    same RTS outcomes and toggle together, so their windows would fill
//    identically; the shared window stores each sample once. When it
//    closes, x and y are sorted once (wilcoxon_load) and each lane is one
//    wilcoxon_shifted at its margin over one scratch; margins that move no
//    rank reuse the previous exact tail count. A CUSUM/SPRT lane keeps a
//    window of its own (no slice, a SequentialBank slot).
//
// Equivalence contract: every per-lane output stream (WindowResult
// sequence, MonitorStats, sample log) is bit-identical to the same
// monitor evaluated on its own as a scalar HubView over a private hub.
// That per-view pipeline lives in the test tree (tests/reference_monitor.*)
// as the oracle; tests/hub_test.cpp replays recorded traces into it across
// seeds and scenarios and compares with the live batched run. The same
// caveat as hub component sharing applies: lanes of one group must be
// activated/deactivated together (the experiment harness always toggles a
// node's monitor set as a unit); diverging activity within a group is
// unsupported. A shared window follows the activity of its first lane.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "detect/monitor.hpp"
#include "detect/observation_hub.hpp"
#include "detect/sequential.hpp"
#include "detect/system_state.hpp"
#include "detect/wilcoxon.hpp"
#include "mac/backoff.hpp"

namespace manet::detect {

class MonitorBatch {
 public:
  static constexpr std::size_t kNoSeqSlot = static_cast<std::size_t>(-1);

  explicit MonitorBatch(ObservationHub& hub) : hub_(hub) {}

  ObservationHub& hub() { return hub_; }
  const ObservationHub& hub() const { return hub_; }

  /// Registers one monitor lane watching `tagged` with `config`; returns
  /// its lane index. The lane joins an existing config-group when every
  /// shared field matches (and the group was created at the same sim
  /// time); otherwise a new group attaches to the hub. Lanes start active.
  /// Throws std::invalid_argument when config.sample_size is 0 (a window
  /// that can never fill, and a zero-width sample slice) or
  /// config.arma_batch_slots is 0 (an ARMA batch of no time).
  std::size_t add_lane(NodeId tagged, const MonitorConfig& config);

  /// Suspend/resume one lane (Monitor::set_active semantics: reactivation
  /// clears the partial window, the detector state, and the group's
  /// exchange anchor). Lanes of one group must be toggled together.
  void set_lane_active(std::size_t lane, bool active);
  bool lane_active(std::size_t lane) const { return lane_active_[lane] != 0; }

  /// The lane's stats up to now. A group's counter deltas are folded into
  /// its active lanes here (and on every toggle), not per RTS, so the
  /// reference is current only until the next observed frame.
  const MonitorStats& lane_stats(std::size_t lane) {
    fold_pending(*lane_group_[lane]);
    return lane_stats_[lane];
  }
  const std::vector<WindowResult>& lane_windows(std::size_t lane) const {
    return lane_windows_[lane];
  }
  const std::vector<Monitor::SampleRecord>& lane_samples(std::size_t lane) const {
    return lane_samples_[lane];
  }

  /// The hub components backing a lane's group (facade accessors for
  /// Monitor::decoded_retained / traffic_intensity).
  ObservationHub::FrameRing& lane_ring(std::size_t lane) const;
  ObservationHub::IntensityTracker& lane_tracker(std::size_t lane) const;

  // Sharing diagnostics (tests assert the grouping rules).
  std::size_t lane_count() const { return lane_stats_.size(); }
  std::size_t group_count() const { return groups_.size(); }

 private:
  /// The shared config fields + tagged identity + creation sim time. Two
  /// lanes share a group iff their keys compare equal — the batched
  /// counterpart of the hub's component keying (a group created later
  /// would have missed exchange state the earlier one accumulated).
  struct GroupKey {
    NodeId tagged = kInvalidNode;
    SimTime created_at = 0;
    double arma_alpha = 0.0;
    std::size_t arma_batch_slots = 0;
    double separation_m = 0.0;
    double sensing_range_m = 0.0;
    double tx_range_m = 0.0;
    ActivityMapping mapping = ActivityMapping::kPerSlot;
    double busy_credit_factor = 0.0;
    bool apply_idle_correction = false;
    std::optional<double> fixed_n, fixed_k, fixed_m, fixed_j;
    std::optional<double> fixed_contenders;
    SimDuration density_window = 0;
    SimDuration max_window = 0;
    bool clean_window_filter = false;
    double queue_gap_slack_slots = 0.0;
    bool deterministic_checks = false;
    bool rts_gap_bound = false;
    std::uint32_t max_seq_off_gap = 0;
    SimDuration decoded_retention = 0;
    std::size_t max_decoded_frames = 0;
    bool prs_aware = false;

    bool operator==(const GroupKey&) const = default;
  };
  static GroupKey make_key(NodeId tagged, SimTime now, const MonitorConfig& c);

  /// Everything one tagged RTS contributes to a lane, computed once per
  /// group and fanned out: counter deltas (always applied), the latched
  /// deterministic flag, an optional single-shot gap-bound verdict, the
  /// optional diagnostics record, and the optional CW-normalized sample.
  struct RtsOutcome {
    std::uint64_t seq_off_violations = 0;
    std::uint64_t attempt_violations = 0;
    std::uint64_t impossible_backoff = 0;
    std::uint64_t skipped_no_anchor = 0;
    std::uint64_t skipped_long_window = 0;
    std::uint64_t skipped_queue_gap = 0;
    std::uint64_t seq_off_resyncs = 0;
    std::uint64_t frames_lost = 0;
    std::uint64_t windows_discarded_impaired = 0;
    bool deterministic_violation = false;
    bool single_shot = false;  // rts_gap_bound verdict fired
    bool has_record = false;   // `record` is filled (sample stage reached)
    bool has_sample = false;   // (expected_norm, observed_norm) is a sample
    double expected_norm = 0.0;  // unused when !prs_aware (per-lane quantile)
    double observed_norm = 0.0;
    Monitor::SampleRecord record;
  };

  /// The sample window of the Wilcoxon lanes of one group that share a
  /// sample size, or of one sequential lane. A lane joins an existing
  /// window only while it is untouched (no sample, no latched flag, every
  /// member active), so all members always hold the same state.
  struct Window {
    std::size_t size = 0;              // the members' sample_size
    std::size_t off = 0;               // arena offset (Wilcoxon windows)
    std::size_t fill = 0;              // samples in the current window
    std::uint64_t samples = 0;         // samples ever added (= each member's)
    std::size_t seq_slot = kNoSeqSlot;  // SequentialBank slot; kNoSeqSlot = Wilcoxon
    bool flag = false;                 // latched deterministic flag
    std::vector<std::size_t> lanes;    // member lanes, creation order
  };

  class Group : public HubView {
   public:
    Group(MonitorBatch& batch, const GroupKey& key, const MonitorConfig& config);
    ~Group() override;

    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    bool view_active() const override { return active_lanes_ > 0; }
    void on_hub_frame(const mac::Frame& frame, SimTime start, SimTime end) override;

   private:
    friend class MonitorBatch;

    void handle_tagged_rts(const mac::Frame& rts, SimTime start);
    void note_exchange_end(SimTime at) { anchor_ = at; }
    std::uint64_t unwrap_seq_off(std::uint32_t announced);
    SystemStateParams current_state() const;
    /// The reactivation reset of the exchange tracking (idempotent: the
    /// harness toggles a group's lanes back-to-back with no frames in
    /// between).
    void reset_exchange();

    MonitorBatch& batch_;
    GroupKey key_;
    /// Copy of the first lane's config. Only the shared (key) fields are
    /// ever read; per-lane fields live in the batch's SoA arrays.
    MonitorConfig config_;
    mac::VerifiableBackoff prs_;
    SystemStateModel model_;

    // Hub components (shared or private per the hub's keying rules).
    ObservationHub::FrameRing* ring_;
    ObservationHub::IntensityTracker* arma_;
    HeardTransmitterDensity* density_;

    // Exchange tracking for the tagged node.
    /// When S's current back-off could have started.
    std::optional<SimTime> anchor_;
    /// We answered S's RTS with a CTS but have not seen the DATA yet. If
    /// the next thing we hear from S is another RTS, we cannot tell
    /// whether S missed our CTS (back-off began at its CTS timeout) or its
    /// DATA died (back-off began at its ACK timeout): the anchor is
    /// ambiguous and the sample is skipped.
    bool own_cts_pending_ = false;
    std::optional<std::uint64_t> last_seq_off_;  // unwrapped
    std::optional<SimTime> last_rts_heard_;      // air start of the last RTS
    std::optional<crypto::Md5Digest> last_digest_;
    std::uint32_t last_attempt_ = 0;

    std::size_t active_lanes_ = 0;
    std::vector<std::size_t> lanes_;         // lane indices, creation order
    std::vector<std::size_t> record_lanes_;  // lanes with record_samples set
    std::vector<std::size_t> windows_;       // window indices, creation order
    /// Counter deltas (rts_observed, samples, skips, violations) every
    /// active lane has seen since the last fold_pending. The lanes of a
    /// group see the same outcomes, so one sum serves them all.
    MonitorStats pending_;
  };

  Group& group_for(NodeId tagged, const MonitorConfig& config);

  /// Applies one evaluated RTS to a group: its counter deltas join the
  /// group's pending sum, single-shot verdicts and sample records go to
  /// each lane's logs, and the flag and sample go to each window (closing
  /// the windows the sample fills).
  void apply_outcome(Group& group, const RtsOutcome& outcome);
  std::size_t window_for(Group& group, const MonitorConfig& config);
  /// Adds the group's pending counter deltas into its active lanes.
  void fold_pending(Group& group);
  void add_sample(Window& window, double expected, double observed);
  void close_window(Window& window);
  void close_sequential(Window& window, bool crossed, double score);
  void record_window(std::size_t lane, const WindowResult& result,
                     bool single_shot = false);

  ObservationHub& hub_;
  // unique_ptr entries: lanes hold raw pointers across growth, and Group
  // addresses are registered with the hub.
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<Window> windows_;

  // --- SoA lane arrays (parallel; index = lane id) ---------------------------
  std::vector<Group*> lane_group_;
  std::vector<std::size_t> lane_window_;  // index into windows_
  std::vector<double> lane_alpha_;
  std::vector<double> lane_margin_;
  std::vector<WilcoxonOptions> lane_wilcoxon_;
  std::vector<char> lane_active_;
  std::vector<MonitorStats> lane_stats_;
  std::vector<std::vector<WindowResult>> lane_windows_;
  std::vector<std::vector<Monitor::SampleRecord>> lane_samples_;

  // Contiguous per-window sample slices: Wilcoxon window w owns
  // [windows_[w].off, windows_[w].off + windows_[w].size).
  std::vector<double> xs_arena_;
  std::vector<double> ys_arena_;

  SequentialBank seq_bank_;

  // Window-close scratch (reused; steady state allocates nothing).
  WilcoxonScratch wilcoxon_scratch_;
};

/// One monitoring node R: its ObservationHub, one MonitorBatch over it,
/// and the monitors R runs as lanes of that batch. The live experiment
/// harness, ReplaySession and a standalone MonitorFactory all build their
/// node as one of these.
class MonitoringNode {
 public:
  /// Live: the hub observes `monitor_mac` (ObservationHub's live form).
  MonitoringNode(sim::Simulator& simulator, mac::DcfMac& monitor_mac,
                 phy::CsTimeline& timeline)
      : hub_(simulator, monitor_mac, timeline), batch_(hub_) {}

  /// Source-agnostic: observations arrive through hub().consume().
  MonitoringNode(sim::Simulator& simulator, NodeId self, const mac::DcfParams& params,
                 phy::CsTimeline& timeline)
      : hub_(simulator, self, params, timeline), batch_(hub_) {}

  MonitoringNode(const MonitoringNode&) = delete;
  MonitoringNode& operator=(const MonitoringNode&) = delete;

  /// Adds one monitor per (configuration, target), config-major: view
  /// ci*T+ti is configuration ci watching target ti.
  void watch(const std::vector<MonitorConfig>& configs,
             const std::vector<NodeId>& targets);

  /// Suspends or resumes every view together (the unit a config-group's
  /// lanes must be toggled in).
  void set_active(bool active);

  ObservationHub& hub() { return hub_; }
  MonitorBatch& batch() { return batch_; }
  const std::vector<std::unique_ptr<Monitor>>& views() const { return views_; }

 private:
  // Member order is the destruction contract: views first, then the batch
  // (detaching its groups), then the hub.
  ObservationHub hub_;
  MonitorBatch batch_;
  std::vector<std::unique_ptr<Monitor>> views_;
};

}  // namespace manet::detect
