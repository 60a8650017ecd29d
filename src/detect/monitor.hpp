// Per-neighbor misbehavior monitor — the paper's framework (Section 4).
//
// A Monitor lives on node R and watches one tagged neighbor S. It combines:
//
//  DETERMINISTIC checks (immediate flags):
//   * SeqOff continuity — each RTS must announce the previous offset + 1
//     (mod 2^13). Replayed/backward offsets are blatant violations. Small
//     forward gaps are attributed to frames the monitor failed to decode
//     (lossy observation): the monitor resynchronizes its PRS position and
//     discards the stale window. Only jumps beyond `max_seq_off_gap` —
//     a cheater scanning ahead for favorable values — are violations.
//   * Attempt/MD honesty — a retransmission (same MD5 digest) must carry a
//     larger attempt number.
//   * Impossible back-off — if the dictated back-off could not have been
//     counted down even if every slot in the observation window had been
//     idle for S, the timer was violated outright.
//
//  STATISTICAL inference (for windows where R's channel view may differ
//  from S's):
//   * R tracks its traffic intensity with the ARMA filter (Eq. 6) and its
//     neighborhood density, feeds them into the system-state model
//     (Eqs. 1-5) to translate its own idle/busy observation of each
//     back-off window into the sender's estimated countdown y.
//   * The dictated value x comes from S's announced PRS offset.
//   * After `sample_size` (x, y) pairs, a one-sided Wilcoxon rank-sum test
//     asks whether y is stochastically smaller than x by more than the
//     permissible margin; p < alpha rejects H0 ("S is well behaved").
//
// Every Monitor is one lane of a MonitorBatch (monitor_batch.hpp): the
// batch groups the monitors on a node by shared config, evaluates each
// decoded frame once per group over the node's ObservationHub (the
// decoded-frame ring, density estimator, and ARMA tracker; see
// observation_hub.hpp for the sharing rules), and keeps per-monitor test
// state in SoA lanes. A Monitor only names its (batch, lane) pair and
// reads the lane back. A node's hub, batch and monitors together are one
// MonitoringNode (monitor_batch.hpp); MonitorFactory's standalone mode
// gives the monitors it stamps out a MonitoringNode of their own.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "detect/observation_hub.hpp"
#include "detect/sequential.hpp"
#include "detect/system_state.hpp"
#include "detect/wilcoxon.hpp"
#include "mac/dcf.hpp"
#include "phy/cs_timeline.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace manet::detect {

class MonitorBatch;  // detect/monitor_batch.hpp
class MonitoringNode;  // detect/monitor_batch.hpp

struct MonitorConfig {
  std::size_t sample_size = 10;    // Wilcoxon window (paper: 10/25/50/100)
  double alpha = 0.01;             // significance level for rejecting H0
  /// Permissible deficit between expected and observed back-off ("the
  /// extent of the difference that is permissible", Section 4), expressed
  /// as a fraction of the contention window: samples are CW-normalized and
  /// the observed sample is shifted up by this amount before the one-sided
  /// test, so only deficits beyond the margin count as evidence.
  double margin_fraction = 0.10;
  WilcoxonOptions wilcoxon;

  /// Statistical test closing the windows. kWilcoxon (default) is the
  /// paper's batch rank-sum over `sample_size` pairs. kCusum / kSprt run a
  /// sequential test over the same per-sample deficit (sequential.hpp):
  /// a verdict window is emitted the moment the score crosses its
  /// threshold (bounded time-to-detection), plus an unflagged checkpoint
  /// window every `sample_size` samples carrying the running score as
  /// p_less = exp(-score) — so honest runs still produce the window
  /// denominators the ROC scorer needs.
  DetectorKind detector = DetectorKind::kWilcoxon;
  CusumParams cusum;
  SprtParams sprt;

  double arma_alpha = 0.995;       // Eq. 6 smoothing constant
  std::size_t arma_batch_slots = 100;  // s: slots per ARMA batch

  /// Assumed S-R separation for the region geometry (the grid spacing in
  /// the paper's experiments; monitors do not know exact positions).
  double separation_m = 240.0;
  double sensing_range_m = 550.0;
  double tx_range_m = 250.0;

  ActivityMapping mapping = ActivityMapping::kPerSlot;

  /// Scale on the p(I|B) countdown credit given to anonymous (undecodable)
  /// busy time. For a one-hop monitor nearly all energy it senses is also
  /// sensed by the tagged node (separation + decode range < sensing range),
  /// so the literal Eq. 1 credit overestimates; see bench/ablation_estimator
  /// for the sweep behind the default.
  double busy_credit_factor = 1.0;

  /// Apply the p(I|I) discount of Eq. 1 to the window's free idle time.
  /// The clean-window filter already rejects windows where the tagged
  /// node's view diverged (hidden freezes blow the estimate past CW), so
  /// the accepted windows are consistent-view by construction and the
  /// marginal discount would double-count — creating a systematic deficit
  /// that turns into false alarms at large sample sizes. Enable to
  /// evaluate Eq. 1 verbatim (bench/ablation_estimator).
  bool apply_idle_correction = false;

  /// Fixed region node counts (k, n, m, j). The paper's grid experiments
  /// set n = k = 5 deterministically; when unset, counts come from the
  /// online density estimator.
  std::optional<double> fixed_n, fixed_k, fixed_m, fixed_j;
  /// Fixed contender count M for the activity mapping; when unset, the
  /// density estimator supplies it.
  std::optional<double> fixed_contenders;

  SimDuration density_window = 5 * kSecond;

  /// Ignore observation windows longer than this (the tagged node's queue
  /// was almost surely empty part of the time, so the window does not
  /// measure a back-off). 0 disables the cap.
  SimDuration max_window = 2 * kSecond;

  /// Clean-window acceptance. The monitor cannot see when a packet arrived
  /// in the tagged node's queue; a window that spans queue-empty time
  /// measures idle time, not back-off. Two window classes are provably (or
  /// plausibly) gap-free and become statistical samples:
  ///   * retransmissions (Attempt# > 1): the node was certainly backlogged,
  ///     and the window is anchored exactly at its response timeout;
  ///   * first attempts whose estimated countdown does not exceed the
  ///     contention window plus `queue_gap_slack_slots`: an honest
  ///     backlogged node can never legitimately exceed CW, so anything
  ///     within CW + slack is gap-free up to estimator noise.
  /// Rejected windows are counted, not tested (they still feed the
  /// deterministic checks). Disable to reproduce the naive estimator
  /// (bench/ablation_estimator shows why that fails).
  bool clean_window_filter = true;
  double queue_gap_slack_slots = 8.0;

  bool deterministic_checks = true;

  /// Anchorless timing bound for RTS streams that never complete an
  /// exchange (RTS-flood DoS, mac/attackers.hpp): when an RTS arrives with
  /// no usable window anchor, the gap since the previous RTS's air end
  /// still upper-bounds how many slots the sender could have counted down;
  /// a dictated value exceeding the bound is an impossible back-off. Such
  /// violations close an immediate single-shot deterministic window (there
  /// may never be Wilcoxon samples to attach them to). Off by default:
  /// the bound also catches ordinary cheats on anchorless retries, which
  /// would perturb the paper-faithful fig5/fig6 statistics.
  bool rts_gap_bound = false;

  /// Largest forward SeqOff# gap (count of RTSes the monitor evidently
  /// missed) attributed to lossy observation rather than misbehavior. A
  /// tolerated gap *resynchronizes* the monitor's PRS position to the
  /// announced offset (counted in `seq_off_resyncs`, and the stale window
  /// is discarded); a gap beyond the bound is a deterministic violation —
  /// a cheater skipping ahead to cherry-pick small dictated values. Gaps
  /// spanning a recorded outage of the monitor's own radio resync
  /// regardless of size (the monitor knows it was deaf).
  std::uint32_t max_seq_off_gap = 64;

  /// Age horizon for the decoded-frame history: a frame is dropped once
  /// its NAV reservation is older than this relative to the newest decode.
  /// Must comfortably exceed `max_window` plus the longest NAV so window
  /// accounting never loses a frame that could block the tagged node; the
  /// default (4 s) doubles the default 2 s `max_window`.
  SimDuration decoded_retention = 4 * kSecond;

  /// Hard cap on the decoded-frame history (entries); the age-based prune
  /// of `decoded_retention` usually keeps it far smaller, the cap bounds
  /// pathological bursts. When the cap binds, the oldest frames are
  /// dropped even if still within the retention horizon — window
  /// accounting then under-counts blocked time, so size the cap to the
  /// expected frame rate times the retention.
  std::size_t max_decoded_frames = 4096;

  /// Baseline mode: pretend the paper's modification does not exist. The
  /// monitor then knows only the protocol's back-off *distribution*
  /// (uniform over [0, CW]), not the dictated values: the expected sample
  /// becomes uniform quantiles, and every deterministic check (SeqOff,
  /// Attempt/MD, impossible back-off) is unavailable. Used by
  /// bench/ablation_prs_value to quantify what the verifiable PRS buys.
  bool prs_aware = true;

  /// Record every (expected, observed) pair for offline diagnostics
  /// (estimator-bias ablations). Off by default to keep memory flat.
  bool record_samples = false;
};

/// Outcome of one completed Wilcoxon window.
struct WindowResult {
  SimTime at = 0;
  double p_less = 1.0;
  bool statistical_flag = false;
  bool deterministic_flag = false;
  bool flagged() const { return statistical_flag || deterministic_flag; }

  bool operator==(const WindowResult&) const = default;
};

struct MonitorStats {
  std::uint64_t rts_observed = 0;
  std::uint64_t samples = 0;
  std::uint64_t windows = 0;
  std::uint64_t flagged_windows = 0;
  std::uint64_t seq_off_violations = 0;
  std::uint64_t attempt_violations = 0;
  std::uint64_t impossible_backoff = 0;
  std::uint64_t skipped_no_anchor = 0;   // no usable window start
  std::uint64_t skipped_long_window = 0; // window exceeded max_window
  std::uint64_t skipped_queue_gap = 0;   // window failed the clean filter

  // Degradation under impaired observation (lossy channel / outages).
  std::uint64_t seq_off_resyncs = 0;     // tolerated gaps: PRS resynchronized
  std::uint64_t frames_lost = 0;         // RTSes inferred missed (gap sizes)
  std::uint64_t windows_discarded_impaired = 0;  // samples dropped: loss/outage

  // Time-to-detection, readable without the full window decision stream:
  // sim time the first flagged window closed at (kTimeNever while the
  // tagged node was never flagged) and that window's 1-based ordinal
  // among the sample-driven windows. 0 means "no ordinal": either nothing
  // ever flagged (first_flag_time == kTimeNever), or the first flag was a
  // single-shot rts_gap_bound verdict, which closes no sample window and
  // has no meaningful position in the window sequence (see report.hpp).
  SimTime first_flag_time = kTimeNever;
  std::uint64_t windows_to_first_flag = 0;

  bool operator==(const MonitorStats&) const = default;
};

/// Order-dependent accumulation of MonitorStats across monitors / trials
/// (the experiment harness and the trace replay use the identical
/// reduction so their aggregates compare byte-for-byte). First flag:
/// earliest wins, and its window ordinal travels with it — mixing
/// ordinals across sources would be meaningless.
void accumulate_stats(MonitorStats& into, const MonitorStats& from);

class Monitor {
 public:
  /// Registers a lane watching `tagged` with `config` in `batch` (whose
  /// hub's node is R; `tagged` is S). All detection state lives in the
  /// lane. Prefer MonitorFactory, which also covers the standalone layout.
  Monitor(MonitorBatch& batch, NodeId tagged, const MonitorConfig& config);
  ~Monitor();

  NodeId tagged() const { return tagged_; }
  NodeId self() const { return hub().self(); }

  /// Suspend/resume observation. Reactivation clears the partially filled
  /// window and the exchange anchor (used when mobility hands the
  /// monitoring role to another neighbor). Monitors of one batch sharing
  /// a config-group must be toggled together (see monitor_batch.hpp).
  void set_active(bool active);
  bool active() const;

  const MonitorStats& stats() const;
  const std::vector<WindowResult>& windows() const;

  /// One recorded sample with its window decomposition (diagnostics).
  struct SampleRecord {
    double expected = 0;     // x: dictated back-off (slots)
    double observed = 0;     // y: estimated countdown (slots)
    double idle_slots = 0;   // free idle in the window (DIFS-corrected)
    double busy_unc_slots = 0;  // anonymous-energy busy
    double blocked_slots = 0;   // decoded air + NAV (certainly frozen)
    std::uint32_t attempt = 1;
    bool accepted = true;       // passed the clean-window filter
  };

  /// All samples (only when config.record_samples).
  const std::vector<SampleRecord>& sample_log() const;

  /// Decoded-frame history currently retained by this monitor's ring
  /// (memory diagnostics; bounded by config.max_decoded_frames).
  std::size_t decoded_retained() const;

  /// Fraction of completed windows that flagged S.
  double flag_rate() const;

  /// Current smoothed traffic intensity (Eq. 6).
  double traffic_intensity() const;

  const ObservationHub& hub() const;

 private:
  friend class MonitorFactory;

  /// Standalone layout: a lane of `node`'s batch, keeping the node alive.
  Monitor(std::shared_ptr<MonitoringNode> node, NodeId tagged,
          const MonitorConfig& config);

  // Declared first so it outlives the lane. Null unless standalone.
  std::shared_ptr<MonitoringNode> node_;
  MonitorBatch& batch_;
  std::size_t lane_;
  NodeId tagged_;
};

/// Builder for monitors: one place to choose the layout and stamp out
/// per-neighbor monitors with a shared config.
///
///   * Batched mode: every watch() registers a lane in the given
///     MonitorBatch (one batch per monitoring node, live or replay).
///   * Standalone mode: the factory creates a MonitoringNode over the
///     node's MAC/timeline; every watch() is a lane of its batch, and the
///     monitors keep the node alive. A timeline carries at most one hub,
///     so one factory (or copies of it) serves all standalone monitors of
///     a node.
class MonitorFactory {
 public:
  /// Batched mode: monitors are lanes of `batch`.
  explicit MonitorFactory(MonitorBatch& batch) : batch_(&batch) {}

  /// Standalone mode: a MonitoringNode of the factory's own.
  /// Throws std::logic_error when `timeline` already has a hub.
  MonitorFactory(sim::Simulator& simulator, mac::DcfMac& monitor_mac,
                 phy::CsTimeline& timeline);

  /// Config applied by subsequent watch() calls (chainable).
  MonitorFactory& with_config(const MonitorConfig& config) {
    config_ = config;
    return *this;
  }
  const MonitorConfig& config() const { return config_; }

  /// Creates a monitor of `tagged` with the current config.
  std::unique_ptr<Monitor> watch(NodeId tagged) const;

  /// Convenience: watch() with a one-off config.
  std::unique_ptr<Monitor> watch(NodeId tagged, const MonitorConfig& config) {
    config_ = config;
    return watch(tagged);
  }

 private:
  std::shared_ptr<MonitoringNode> node_;  // null in batched mode
  MonitorBatch* batch_ = nullptr;
  MonitorConfig config_;
};

}  // namespace manet::detect
