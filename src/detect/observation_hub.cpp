#include "detect/observation_hub.hpp"

#include <algorithm>
#include <cassert>

#include "detect/trace.hpp"

namespace manet::detect {

ObservationHub::ObservationHub(sim::Simulator& simulator, NodeId self,
                               const mac::DcfParams& params,
                               phy::CsTimeline& timeline)
    : sim_(simulator), self_(self), params_(params), timeline_(timeline) {
  timeline_.set_edge_observer(this);
}

ObservationHub::ObservationHub(sim::Simulator& simulator, mac::DcfMac& monitor_mac,
                               phy::CsTimeline& timeline)
    : ObservationHub(simulator, monitor_mac.id(), monitor_mac.params(), timeline) {
  mac_ = &monitor_mac;
  mac_->add_observer(this);
}

ObservationHub::~ObservationHub() {
  if (mac_) mac_->remove_observer(this);
  timeline_.clear_edge_observer(this);
}

void ObservationHub::attach(HubView* view) { views_.push_back(view); }

void ObservationHub::detach(HubView* view) noexcept {
  std::erase(views_, view);
  for (auto& ring : rings_) std::erase(ring->holders_, view);
  for (auto& entry : densities_) std::erase(entry->holders, view);
}

bool ObservationHub::any_holder_active(const std::vector<const HubView*>& holders) {
  for (const HubView* holder : holders) {
    if (holder->view_active()) return true;
  }
  return false;
}

ObservationHub::FrameRing& ObservationHub::frame_ring(const HubView& holder,
                                                      SimDuration retention,
                                                      std::size_t max_frames) {
  const SimTime now = sim_.now();
  for (auto& ring : rings_) {
    if (ring->retention_ == retention && ring->max_frames_ == max_frames &&
        ring->attached_at_ == now) {
      ring->holders_.push_back(&holder);
      return *ring;
    }
  }
  auto ring = std::unique_ptr<FrameRing>(new FrameRing(*this, retention, max_frames));
  ring->attached_at_ = now;
  ring->holders_.push_back(&holder);
  rings_.push_back(std::move(ring));
  return *rings_.back();
}

ObservationHub::IntensityTracker& ObservationHub::intensity_tracker(
    double alpha, std::size_t batch_slots) {
  const SimTime now = sim_.now();
  for (auto& tracker : trackers_) {
    if (tracker->filter_.alpha() == alpha && tracker->batch_slots_ == batch_slots &&
        tracker->attached_at_ == now) {
      return *tracker;
    }
  }
  auto tracker = std::unique_ptr<IntensityTracker>(
      new IntensityTracker(*this, alpha, batch_slots));
  trackers_.push_back(std::move(tracker));
  return *trackers_.back();
}

HeardTransmitterDensity& ObservationHub::density(const HubView& holder,
                                                 SimDuration window,
                                                 double tx_range_m) {
  const SimTime now = sim_.now();
  for (auto& entry : densities_) {
    if (entry->window == window && entry->tx_range_m == tx_range_m &&
        entry->attached_at == now) {
      entry->holders.push_back(&holder);
      return entry->density;
    }
  }
  densities_.push_back(std::make_unique<DensityEntry>(window, tx_range_m, now));
  densities_.back()->holders.push_back(&holder);
  return densities_.back()->density;
}

void ObservationHub::on_frame(const mac::Frame& frame, SimTime start, SimTime end) {
  ingest_frame(frame, start, end);
}

void ObservationHub::consume(
    const MemoryTraceReader& trace,
    const std::function<void(const ObservationEvent&)>& on_marker) {
  // The hub schedules nothing, so run_until only moves the clock: the
  // components that read now() (density, ARMA reads) see a frame's or
  // marker's instant.
  trace.for_each(
      [&](const ObservationEvent& event) {
        switch (event.kind) {
          case ObservationKind::kFrame:
            sim_.run_until(event.at);
            ingest_frame(event.to_frame(), event.start, event.at);
            break;
          case ObservationKind::kOutage:
            timeline_.on_outage(event.rising, event.at);
            break;
          case ObservationKind::kMarker:
            sim_.run_until(event.at);
            if (on_marker) on_marker(event);
            break;
          case ObservationKind::kCarrier:  // decoded as runs
            break;
        }
      },
      [&](std::span<const SimTime> edges, bool busy) {
        for (const SimTime at : edges) {
          timeline_.on_carrier(busy, at);
          busy = !busy;
        }
      });
  sim_.run_until(trace.end_time());
}

void ObservationHub::ingest_frame(const mac::Frame& frame, SimTime start,
                                  SimTime end) {
  bool any_active = false;
  for (HubView* view : views_) {
    if (view->view_active()) {
      any_active = true;
      break;
    }
  }
  if (!any_active) return;

  if (frame.transmitter != self_) {
    for (auto& entry : densities_) {
      if (any_holder_active(entry->holders)) {
        entry->density.heard(frame.transmitter, end);
      }
    }
  }
  for (auto& ring : rings_) {
    if (any_holder_active(ring->holders_)) ring->record(frame, start, end);
  }
  for (HubView* view : views_) view->on_hub_frame(frame, start, end);
}

void ObservationHub::FrameRing::record(const mac::Frame& frame, SimTime start,
                                       SimTime end) {
  frames_.push_back(DecodedFrame{start, end, end + frame.duration,
                                 frame.transmitter, frame.receiver,
                                 frame.type == mac::FrameType::kRts});
  const SimTime horizon = end - retention_;
  while (!frames_.empty() && frames_.front().nav_until < horizon) {
    frames_.pop_front();
    ++first_abs_;
  }
  while (frames_.size() > max_frames_) {
    frames_.pop_front();
    ++first_abs_;
    ++cap_evictions_;
  }
  peak_frames_ = std::max(peak_frames_, frames_.size());
  memo_valid_ = false;
}

const WindowAccounting& ObservationHub::FrameRing::window_accounting(
    SimTime win_start, SimTime win_end, NodeId tagged) {
  if (memo_valid_ && memo_start_ == win_start && memo_end_ == win_end &&
      memo_tagged_ == tagged) {
    return memo_;
  }
  const auto& params = hub_.params();
  phy::CsTimeline& timeline = hub_.timeline();

  // Certainly-blocked time: decoded air plus NAV reservations that bind the
  // tagged node (frames not from/to it), with the NAV-reset rule applied to
  // unanswered RTS reservations.
  blocked_.clear();
  // Window starts move monotonically forward (anchors are exchange ends),
  // so resume the scan where the previous window's leading `continue` run
  // ended: frames with nav_until <= the old start fail the new start too.
  std::size_t begin = 0;
  if (hint_valid_ && win_start >= hint_win_start_ && hint_abs_ > first_abs_) {
    begin = static_cast<std::size_t>(hint_abs_ - first_abs_);
    if (begin > frames_.size()) begin = frames_.size();
  }
  while (begin < frames_.size() && frames_[begin].nav_until <= win_start) ++begin;
  hint_abs_ = first_abs_ + begin;
  hint_win_start_ = win_start;
  hint_valid_ = true;
  for (std::size_t i = begin; i < frames_.size(); ++i) {
    const DecodedFrame& f = frames_[i];
    if (f.nav_until <= win_start || f.start >= win_end) continue;
    blocked_.add(f.start, f.end);
    if (f.transmitter != tagged && f.receiver != tagged) {
      SimTime nav_end = f.nav_until;
      if (f.is_rts) {
        // Mirror the NAV-reset rule: if nothing followed the RTS within
        // the reset window, the tagged node's NAV was reset too.
        const SimTime reset_at = f.end + params.nav_reset_delay();
        if (timeline.busy_time(f.end, std::min(reset_at, win_end)) == 0) {
          nav_end = std::min(nav_end, reset_at);
        }
      }
      blocked_.add(f.end, nav_end);
    }
  }
  blocked_.clamp_to(win_start, win_end);

  busy_.clear();
  timeline.busy_intervals_into(win_start, win_end, busy_scratch_);
  for (const auto& [a, b] : busy_scratch_) busy_.add(a, b);

  memo_.blocked = blocked_.total_length();
  memo_.uncertain_busy = busy_.total_length() - busy_.intersection_length(blocked_);

  occupied_.assign_union(busy_, blocked_);
  SimDuration countable = 0;
  occupied_.complement_within(win_start, win_end, gaps_);
  for (const util::Interval& gap : gaps_) {
    if (gap.length() > params.difs) countable += gap.length() - params.difs;
  }
  memo_.countable_idle = countable;

  memo_start_ = win_start;
  memo_end_ = win_end;
  memo_tagged_ = tagged;
  memo_valid_ = true;
  return memo_;
}

void ObservationHub::before_edge(SimTime at) {
  for (auto& tracker : trackers_) tracker->fold_to(at);
}

ObservationHub::IntensityTracker::IntensityTracker(ObservationHub& hub, double alpha,
                                                   std::size_t batch_slots)
    : hub_(hub),
      batch_slots_(batch_slots),
      batch_(static_cast<SimDuration>(batch_slots) * hub.params().slot_time),
      attached_at_(hub.simulator().now()),
      filter_(alpha),
      prev_(attached_at_),
      next_(attached_at_ + batch_),
      cum_prev_(hub.timeline().cumulative_busy(attached_at_)),
      compactions_(hub.timeline().budget_stats().compactions) {
  assert(batch_ > 0);
}

void ObservationHub::IntensityTracker::fold_to(SimTime at) {
  const phy::CsTimeline& timeline = hub_.timeline();
  while (next_ <= at) {
    // No edge after next_ is recorded yet (the hub folds before every
    // edge), so the cumulative difference is the batch's busy time —
    // unless the timeline folded history inside the batch: a budget
    // compaction may have run since prev_, or retention may be shorter
    // than a batch. Those read the windowed busy time, which sees the
    // same folded history a read at next_ would have seen.
    const SimDuration cum_next = timeline.cumulative_busy(next_);
    const bool exact = timeline.budget_stats().compactions == compactions_ &&
                       batch_ <= timeline.retention();
    filter_.add_batch(exact ? static_cast<double>(cum_next - cum_prev_) /
                                  static_cast<double>(batch_)
                            : timeline.busy_fraction(prev_, next_));
    prev_ = next_;
    cum_prev_ = cum_next;
    compactions_ = timeline.budget_stats().compactions;
    next_ += batch_;
  }
}

}  // namespace manet::detect
