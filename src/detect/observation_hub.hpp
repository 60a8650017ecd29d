// Shared per-node observation infrastructure for the detection pipeline.
//
// Every Monitor on a node consumes the same raw observations: the frames
// the node's MAC decoded, the neighborhood density implied by the heard
// transmitters, and the ARMA-smoothed traffic intensity of its own
// carrier-sense timeline. Before this hub existed each Monitor owned
// private copies — N monitors on one node (the per-config sweeps, or the
// all-pairs workload's per-neighbor sets) stored the decoded-frame history
// N times and pushed/pruned/estimated N times per frame.
//
// The ObservationHub owns those components once per node; its consumers
// are HubViews that borrow them — in production, the config-groups of the
// node's MonitorBatch (monitor_batch.hpp). Sharing is transparent and
// exact:
//
//  * Components are keyed by the config knobs that shape their contents
//    (frame ring: retention + cap; ARMA: alpha + batch size; density:
//    window + tx range) AND by the sim time the requesting view attached.
//    Views with differing knobs — or views attached at different times,
//    whose private estimators would have had different histories — get
//    private instances, so every view observes bit-identical state to the
//    private copy the pre-refactor Monitor would have owned.
//  * The frame ring memoizes the busy/blocked/idle three-way split of an
//    observation window per (window, tagged) key, invalidated whenever a
//    frame is recorded. Views watching the same tagged node reconstruct
//    the same window's interval sets once instead of once per view; the
//    interval-set scratch is reused, so the per-RTS hot path allocates
//    nothing in steady state.
//  * A component only updates while at least one of its holders is an
//    active view. Views sharing a component are expected to be activated
//    and deactivated together (the experiment harness always toggles a
//    node's monitor set as a unit); if holders' activity diverges, the
//    shared component keeps updating for the active holder — a private
//    pre-refactor estimator would have frozen instead. Attach views whose
//    activity can diverge to separate hubs if that distinction matters.
//
// Ingestion is source-agnostic (PR 7): the hub consumes ObservationEvents
// (decoded frame / carrier edge / outage edge, observation_source.hpp)
// either pushed by live simulator callbacks (the mac::MacObserver hook,
// with the radio feeding the timeline directly) or pulled from a recorded
// trace via consume(). Both paths funnel into the same ingest_frame()
// code, so live and replayed detection are byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "detect/arma.hpp"
#include "detect/density.hpp"
#include "detect/observation_source.hpp"
#include "mac/dcf.hpp"
#include "phy/cs_timeline.hpp"
#include "sim/simulator.hpp"
#include "util/intervals.hpp"
#include "util/types.hpp"

namespace manet::detect {

/// One frame decoded by the hub's node. The transmitter lies within the
/// node's transmission range, hence within separation + tx_range < sensing
/// range of any tagged one-hop neighbor: the tagged node certainly sensed
/// the air time — and, for frames not involving it, honored the NAV
/// reservation. Whether a frame "involves" a tagged node is evaluated at
/// query time so one ring serves views watching different neighbors.
struct DecodedFrame {
  SimTime start = 0;
  SimTime end = 0;
  SimTime nav_until = 0;  // end + the frame's NAV duration field
  NodeId transmitter = kInvalidNode;
  NodeId receiver = kInvalidNode;
  bool is_rts = false;  // RTS reservations are subject to the NAV-reset rule
};

/// Three-way split of one observation window from the perspective of a
/// monitor of a given tagged node (durations, clamped to the window):
///   * blocked — decoded air time plus binding NAV reservations: the
///     tagged node was certainly frozen, no countdown credit;
///   * uncertain_busy — sensed-busy time not explained by decoded frames
///     (anonymous energy): statistical p(I|B) credit;
///   * countable_idle — free idle time minus one DIFS deferral per idle
///     period: p(I|I) credit.
struct WindowAccounting {
  SimDuration blocked = 0;
  SimDuration uncertain_busy = 0;
  SimDuration countable_idle = 0;
};

/// A consumer attached to an ObservationHub (MonitorBatch's config-groups
/// implement this).
class HubView {
 public:
  virtual ~HubView() = default;
  /// Shared components stop updating when every holder is inactive.
  virtual bool view_active() const = 0;
  /// Delivered for every frame the hub's MAC decoded while at least one
  /// attached view was active, after the shared components absorbed it.
  virtual void on_hub_frame(const mac::Frame& frame, SimTime start, SimTime end) = 0;
};

class ObservationHub : public mac::MacObserver {
 public:
  /// Decoded-frame history shared by the views whose retention/cap knobs
  /// (and attach time) match. Newest frames at the back; pruned by age and
  /// by the entry cap on every record.
  class FrameRing {
   public:
    std::size_t size() const { return frames_.size(); }
    const std::deque<DecodedFrame>& frames() const { return frames_; }

    /// High-water retained frame count and cap-forced evictions (as
    /// opposed to ordinary age pruning) — the memory-ceiling test asserts
    /// peak_frames stays under the configured budget through a long run.
    std::size_t peak_frames() const { return peak_frames_; }
    std::uint64_t cap_evictions() const { return cap_evictions_; }
    std::size_t retained_memory_bytes() const {
      return frames_.size() * sizeof(DecodedFrame);
    }

    /// The busy/blocked/idle split of [win_start, win_end) for a monitor
    /// of `tagged`. Memoized per (window, tagged) until the next recorded
    /// frame — views watching the same tagged node pay for the interval
    /// sets once — and computed into reusable scratch on a miss.
    const WindowAccounting& window_accounting(SimTime win_start, SimTime win_end,
                                              NodeId tagged);

   private:
    friend class ObservationHub;
    FrameRing(ObservationHub& hub, SimDuration retention, std::size_t max_frames)
        : hub_(hub), retention_(retention), max_frames_(max_frames) {}

    void record(const mac::Frame& frame, SimTime start, SimTime end);

    ObservationHub& hub_;
    SimDuration retention_;
    std::size_t max_frames_;
    SimTime attached_at_ = 0;
    std::vector<const HubView*> holders_;
    std::deque<DecodedFrame> frames_;

    // Monotone scan hint: window starts only move forward (anchors are
    // exchange ends), so frames wholly before the previous window's start
    // — exactly the entries the accounting loop would `continue` past —
    // can be skipped next time. Tracked as an absolute frame index
    // (first_abs_ counts every front prune) so record() needs no hint
    // maintenance; a window that regresses falls back to a full scan.
    std::size_t peak_frames_ = 0;
    std::uint64_t cap_evictions_ = 0;

    std::uint64_t first_abs_ = 0;    // absolute index of frames_.front()
    std::uint64_t hint_abs_ = 0;     // absolute index the last scan started at
    SimTime hint_win_start_ = 0;
    bool hint_valid_ = false;

    // Single-slot window memo + interval scratch (see window_accounting).
    bool memo_valid_ = false;
    SimTime memo_start_ = 0;
    SimTime memo_end_ = 0;
    NodeId memo_tagged_ = kInvalidNode;
    WindowAccounting memo_;
    util::IntervalSet blocked_;
    util::IntervalSet busy_;
    util::IntervalSet occupied_;
    std::vector<std::pair<SimTime, SimTime>> busy_scratch_;
    std::vector<util::Interval> gaps_;
  };

  /// ARMA traffic-intensity tracker (Eq. 6) shared by the views whose
  /// alpha/batch knobs and attach time match. The tick chain runs on the
  /// hub's simulator regardless of view activity, exactly like the
  /// per-monitor chain it replaces; the callbacks only read the timeline
  /// and mutate the filter, so collapsing N identical chains into one
  /// cannot perturb the simulation.
  class IntensityTracker {
   public:
    const ArmaIntensityFilter& filter() const { return filter_; }

   private:
    friend class ObservationHub;
    IntensityTracker(ObservationHub& hub, double alpha, std::size_t batch_slots)
        : hub_(hub), batch_slots_(batch_slots), filter_(alpha) {
      schedule_tick();
    }

    void schedule_tick();

    ObservationHub& hub_;
    std::size_t batch_slots_;
    SimTime attached_at_ = 0;
    ArmaIntensityFilter filter_;
    SimTime last_tick_ = 0;
  };

  /// Source-agnostic form: a hub for node `self` (the monitor node R)
  /// whose observations arrive via ingest()/consume(). `timeline` is the
  /// carrier-sense record the hub reads AND (for replayed carrier/outage
  /// events) writes; it must belong to the same node.
  ObservationHub(sim::Simulator& simulator, NodeId self,
                 const mac::DcfParams& params, phy::CsTimeline& timeline);

  /// Live convenience form: registers with `monitor_mac`'s observer hook
  /// so decoded frames are pushed in by the simulation (the node's radio
  /// feeds `timeline` directly). `timeline` must be the carrier-sense
  /// timeline of the same node.
  ObservationHub(sim::Simulator& simulator, mac::DcfMac& monitor_mac,
                 phy::CsTimeline& timeline);

  /// Views receive on_hub_frame in attach order (= pre-refactor observer
  /// registration order when monitors are created in the same sequence).
  /// attach may allocate (and therefore throw); detach only erases.
  void attach(HubView* view);
  /// Also drops the view from every component's holder list.
  void detach(HubView* view) noexcept;

  /// Match-or-create accessors. A component is shared when its knobs AND
  /// the current sim time match an existing entry created by another
  /// holder; otherwise the view gets a fresh private instance (identical
  /// to the private estimator a standalone Monitor would construct now).
  FrameRing& frame_ring(const HubView& holder, SimDuration retention,
                        std::size_t max_frames);
  IntensityTracker& intensity_tracker(double alpha, std::size_t batch_slots);
  HeardTransmitterDensity& density(const HubView& holder, SimDuration window,
                                   double tx_range_m);

  sim::Simulator& simulator() { return sim_; }
  /// The monitor node this hub observes the air from (R).
  NodeId self() const { return self_; }
  /// MAC/PHY timing parameters of the observed protocol.
  const mac::DcfParams& params() const { return params_; }
  phy::CsTimeline& timeline() { return timeline_; }

  /// Feeds one observation event through the same path the live callbacks
  /// use: frames go to the shared components and attached views, carrier
  /// and outage edges go to the timeline. kMarker events are ignored here
  /// (replay harnesses interpret them via consume()'s handler).
  void ingest(const ObservationEvent& event);

  /// Pull-from-source ingestion loop: advances the hub's simulator to each
  /// event's time (firing due ARMA ticks exactly as a live run would),
  /// then ingests it. `on_marker`, when set, receives kMarker events
  /// (activity toggles of a recorded mobile-handoff run).
  void consume(ObservationSource& source,
               const std::function<void(const ObservationEvent&)>& on_marker = {});

  // Sharing diagnostics (tests assert views with equal knobs share).
  std::size_t view_count() const { return views_.size(); }
  std::size_t ring_count() const { return rings_.size(); }
  std::size_t tracker_count() const { return trackers_.size(); }
  std::size_t density_count() const { return densities_.size(); }

  // mac::MacObserver (live push path — delegates to the shared ingestion):
  void on_frame(const mac::Frame& frame, SimTime start, SimTime end) override;

 private:
  /// Shared ingestion body: density/ring updates + view dispatch. The live
  /// on_frame passes the original frame; ingest() passes the reconstructed
  /// one (identical in every field the pipeline reads).
  void ingest_frame(const mac::Frame& frame, SimTime start, SimTime end);

  struct DensityEntry {
    SimDuration window;
    double tx_range_m;
    SimTime attached_at;
    std::vector<const HubView*> holders;
    HeardTransmitterDensity density;

    DensityEntry(SimDuration w, double r, SimTime at)
        : window(w), tx_range_m(r), attached_at(at), density(w, r) {}
  };

  static bool any_holder_active(const std::vector<const HubView*>& holders);

  sim::Simulator& sim_;
  NodeId self_;
  mac::DcfParams params_;
  phy::CsTimeline& timeline_;
  std::vector<HubView*> views_;
  // unique_ptr entries: views hold raw pointers across growth.
  std::vector<std::unique_ptr<FrameRing>> rings_;
  std::vector<std::unique_ptr<IntensityTracker>> trackers_;
  std::vector<std::unique_ptr<DensityEntry>> densities_;
};

}  // namespace manet::detect
