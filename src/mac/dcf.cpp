#include "mac/dcf.hpp"

#include <cassert>


namespace manet::mac {

DcfMac::DcfMac(sim::Simulator& simulator, phy::Radio& radio, const DcfParams& params)
    : sim_(simulator),
      radio_(radio),
      params_(params),
      prs_(radio.id(), params_),
      backoff_policy_(std::make_unique<HonestBackoff>()),
      announce_policy_(std::make_unique<HonestAnnounce>()) {
  radio_.add_listener(this);
}

void DcfMac::set_backoff_policy(std::unique_ptr<BackoffPolicy> policy) {
  assert(policy);
  backoff_policy_ = std::move(policy);
}

void DcfMac::set_announce_policy(std::unique_ptr<AnnouncePolicy> policy) {
  assert(policy);
  announce_policy_ = std::move(policy);
}

void DcfMac::add_identity_alias(NodeId alias) {
  assert(alias != id() && alias != kBroadcastNode && alias != kInvalidNode);
  identity_aliases_.push_back(alias);
}

bool DcfMac::enqueue(NodeId dest, std::uint32_t payload_bytes,
                     std::uint64_t payload_id) {
  // Refuse before building the frame: at saturation most offers are drops.
  if (queue_.size() >= params_.queue_capacity) {
    ++stats_.queue_drops;
    return false;
  }
  return enqueue_frame(make_data(id(), dest, payload_bytes, payload_id, params_));
}

bool DcfMac::wait_for_queue_space(QueueSpaceListener* listener) {
  if (params_.queue_capacity == 0 || queue_.size() < params_.queue_capacity) {
    return false;
  }
  queue_listeners_.push_back(listener);
  return true;
}

void DcfMac::cancel_queue_wait(QueueSpaceListener* listener) {
  std::erase(queue_listeners_, listener);
}

bool DcfMac::enqueue_frame(Frame data) {
  assert(data.type == FrameType::kData);
  if (queue_.size() >= params_.queue_capacity) {
    ++stats_.queue_drops;
    return false;
  }
  ++stats_.enqueued;
  data.transmitter = id();
  queue_.push_back(std::move(data));
  if (phase_ == SenderPhase::kIdle) start_service();
  return true;
}

void DcfMac::start_service() {
  assert(phase_ == SenderPhase::kIdle);
  if (queue_.empty()) return;
  current_ = std::make_unique<Frame>(queue_.front());
  queue_.pop_front();
  if (!queue_listeners_.empty()) {
    // Wake parked senders; each settles its refusals up to this instant and
    // schedules its next arrival as a real event.
    std::vector<QueueSpaceListener*> woken;
    woken.swap(queue_listeners_);
    for (QueueSpaceListener* l : woken) l->on_queue_space();
  }
  attempt_ = 1;
  phase_ = SenderPhase::kContending;
  prepare_backoff();
}

void DcfMac::prepare_backoff() {
  assert(phase_ == SenderPhase::kContending);
  BackoffContext ctx;
  ctx.seq_index = seq_index_;
  ctx.attempt = attempt_;
  ctx.cw = params_.cw_for_attempt(attempt_);
  ctx.dictated_slots = prs_.dictated_slots(seq_index_, attempt_);
  ctx.raw_prs_value = prs_.raw_value(seq_index_);
  ctx.now = sim_.now();
  remaining_slots_ = backoff_policy_->used_slots(ctx);
  backoff_pending_ = true;
  counting_ = false;
  ++stats_.backoffs_started;
  stats_.backoff_slots_total += remaining_slots_;
  reevaluate();
}

bool DcfMac::medium_idle() const {
  const SimTime now = sim_.now();
  return !radio_.carrier_busy() && now >= nav_until_ && now >= eifs_until_;
}

void DcfMac::schedule_wake(SimTime at) {
  const SimTime now = sim_.now();
  if (at <= now) return;
  if (wake_event_ != sim::kInvalidEvent && sim_.pending(wake_event_) && wake_at_ <= at) {
    return;  // an earlier (or equal) wake is already armed
  }
  if (wake_event_ != sim::kInvalidEvent) sim_.cancel(wake_event_);
  wake_at_ = at;
  wake_event_ = sim_.at(at, [this] {
    wake_event_ = sim::kInvalidEvent;
    wake_at_ = kTimeNever;
    reevaluate();
  });
}

void DcfMac::reevaluate() {
  const SimTime now = sim_.now();
  const bool idle = medium_idle();

  if (counting_ && !idle) {
    freeze_countdown();
  } else if (!counting_ && idle && backoff_pending_ && !radio_.transmitting()) {
    counting_ = true;
    count_start_ = now;
    assert(finish_event_ == sim::kInvalidEvent || !sim_.pending(finish_event_));
    finish_event_ = sim_.at(
        now + params_.difs +
            static_cast<SimDuration>(remaining_slots_) * params_.slot_time,
        [this] {
          finish_event_ = sim::kInvalidEvent;
          backoff_complete();
        });
  }

  // If the medium is only virtually busy (NAV/EIFS) arrange to come back.
  if (!idle && !radio_.carrier_busy()) {
    const SimTime until = std::max(nav_until_, eifs_until_);
    if (until > now) schedule_wake(until);
  }
}

void DcfMac::freeze_countdown() {
  assert(counting_);
  counting_ = false;
  sim_.cancel(finish_event_);
  finish_event_ = sim::kInvalidEvent;

  const SimDuration elapsed = sim_.now() - count_start_;
  if (elapsed <= params_.difs) return;  // interrupted during DIFS: no decrement
  const auto slots_done = static_cast<std::uint64_t>(
      (elapsed - params_.difs) / params_.slot_time);
  if (slots_done >= remaining_slots_) {
    // The counter reached zero at the same instant the medium turned busy:
    // per the standard the station transmits (and collides).
    remaining_slots_ = 0;
    backoff_complete();
    return;
  }
  remaining_slots_ -= static_cast<std::uint32_t>(slots_done);
}

void DcfMac::backoff_complete() {
  assert(phase_ == SenderPhase::kContending);
  assert(current_);
  if (radio_.transmitting()) {
    // The shared radio is mid-transmission (an attached RtsFlooder bursts
    // outside our control). Keep the countdown pending; it completes once
    // the carrier drops and the post-busy DIFS elapses.
    counting_ = false;
    backoff_pending_ = true;
    remaining_slots_ = 0;
    reevaluate();
    return;
  }
  counting_ = false;
  backoff_pending_ = false;

  if (current_->receiver == kBroadcastNode) {
    // Group-addressed: transmit the DATA directly, no RTS/CTS, no ACK.
    // (The back-off was still drawn from the PRS; broadcasts do not
    // announce offsets, so the sequence index is not consumed.)
    phase_ = SenderPhase::kTxData;
    ++stats_.data_sent;
    ++stats_.broadcasts_sent;
    transmit_frame(*current_, OwnTxKind::kData);
    return;
  }

  AnnounceContext actx{seq_index_, attempt_};
  const AnnouncedFields fields = announce_policy_->announced(actx);
  ++seq_index_;  // the index is consumed whether or not it was announced honestly

  // A sybil announce policy substitutes a claimed identity: the DATA frame
  // (and thus the RTS digest), the RTS transmitter, and later the CTS/ACK
  // addresses all carry the alias, so the exchange is self-consistent from
  // any monitor's viewpoint.
  if (fields.claimed != kInvalidNode) current_->transmitter = fields.claimed;
  Frame rts = make_rts(current_->transmitter, current_->receiver, *current_,
                       static_cast<std::uint32_t>(fields.seq_off),
                       static_cast<std::uint8_t>(fields.attempt), params_);
  phase_ = SenderPhase::kTxRts;
  ++stats_.rts_sent;
  transmit_frame(rts, OwnTxKind::kRts);
}

void DcfMac::transmit_frame(const Frame& frame, OwnTxKind kind) {
  transmit_payload(std::make_shared<const Frame>(frame), kind);
}

void DcfMac::transmit_payload(FramePtr frame, OwnTxKind kind) {
  const SimDuration airtime = frame_airtime(*frame, params_);
  const SimTime start = sim_.now();
  const std::uint64_t signal_id = radio_.transmit(frame, airtime);
  assert(!own_tx_active_);
  own_tx_id_ = signal_id;
  own_tx_kind_ = kind;
  own_tx_active_ = true;
  // Observers (monitors) also see this node's own frames, with air times —
  // a monitor that is the tagged node's receiver brackets the tagged node's
  // back-off window with its own CTS/ACK transmissions. Capturing the
  // shared payload (not a Frame copy) keeps the closure inside the event
  // queue's inline buffer.
  if (!observers_.empty()) {
    sim_.at(start + airtime, [this, frame = std::move(frame), start] {
      for (auto* obs : observers_) obs->on_frame(*frame, start, sim_.now());
    });
  }
}

void DcfMac::schedule_response(const Frame& response, OwnTxKind kind) {
  sim_.after(params_.sifs,
             [this, frame = std::make_shared<const Frame>(response), kind]() mutable {
    if (radio_.transmitting()) return;  // should not happen; drop response
    switch (kind) {
      case OwnTxKind::kCts: ++stats_.cts_sent; break;
      case OwnTxKind::kAck: ++stats_.ack_sent; break;
      case OwnTxKind::kData: ++stats_.data_sent; break;
      case OwnTxKind::kRts: break;
    }
    transmit_payload(std::move(frame), kind);
  });
}

void DcfMac::on_transmit_end(std::uint64_t signal_id) {
  if (!own_tx_active_ || signal_id != own_tx_id_) {
    // A foreign transmission on our radio (an attached RtsFlooder shares
    // it) finished; our own sender state is untouched by it.
    reevaluate();
    return;
  }
  const OwnTxKind kind = own_tx_kind_;
  own_tx_active_ = false;

  switch (kind) {
    case OwnTxKind::kRts:
      assert(phase_ == SenderPhase::kTxRts);
      phase_ = SenderPhase::kWaitCts;
      timeout_event_ = sim_.after(
          params_.response_timeout(params_.cts_airtime()), [this] {
            timeout_event_ = sim::kInvalidEvent;
            handle_cts_timeout();
          });
      break;
    case OwnTxKind::kData:
      assert(phase_ == SenderPhase::kTxData);
      if (current_ && current_->receiver == kBroadcastNode) {
        // Group-addressed frames complete on transmission (no ACK).
        finish_success();
        break;
      }
      phase_ = SenderPhase::kWaitAck;
      timeout_event_ = sim_.after(
          params_.response_timeout(params_.ack_airtime()), [this] {
            timeout_event_ = sim::kInvalidEvent;
            handle_ack_timeout();
          });
      break;
    case OwnTxKind::kCts:
    case OwnTxKind::kAck:
      break;  // fire and forget
  }
  reevaluate();
}

void DcfMac::update_nav(SimTime until, bool from_rts) {
  if (until > nav_until_) {
    nav_until_ = until;
    nav_basis_rts_ = from_rts;
    ++nav_epoch_;
    if (from_rts) {
      // NAV-reset rule (802.11 9.2.5.4): if nothing follows the RTS within
      // the reset window, the reservation is void.
      const SimTime rts_end = sim_.now();
      const std::uint64_t epoch = nav_epoch_;
      sim_.at(rts_end + params_.nav_reset_delay(), [this, rts_end, epoch] {
        if (nav_epoch_ != epoch || !nav_basis_rts_) return;  // superseded
        if (last_busy_rise_ > rts_end || radio_.carrier_busy()) return;
        nav_until_ = sim_.now();
        reevaluate();
      });
    }
    reevaluate();
  }
}

void DcfMac::on_receive(const phy::Signal& signal) {
  const auto* frame = static_cast<const Frame*>(signal.payload.get());
  assert(frame != nullptr);
  ++stats_.frames_received;

  // A correct reception terminates any EIFS deferral (802.11 9.2.3.4).
  eifs_until_ = 0;

  for (auto* obs : observers_) obs->on_frame(*frame, signal.start, signal.end);

  if (frame->receiver == kBroadcastNode) {
    // Group-addressed DATA: deliver to the upper layer, no response.
    ++stats_.broadcasts_received;
    if (listener_) listener_->on_delivered(*frame, sim_.now());
    reevaluate();
    return;
  }

  if (!owns_address(frame->receiver)) {
    // Overheard: honor the NAV.
    update_nav(signal.end + frame->duration, frame->type == FrameType::kRts);
    reevaluate();
    return;
  }

  switch (frame->type) {
    case FrameType::kRts: {
      // Respond only if our virtual carrier (NAV) is clear, we are not in
      // the middle of an exchange we must answer (recipient obligation),
      // and our own sender sequence is not past contention.
      if (sim_.now() < nav_until_ || sim_.now() < busy_recipient_until_) break;
      if (phase_ != SenderPhase::kIdle && phase_ != SenderPhase::kContending) break;
      const Frame cts = make_cts(id(), *frame, params_);
      // The CTS duration covers the rest of the exchange; decline further
      // RTSes until it is over.
      busy_recipient_until_ =
          sim_.now() + params_.sifs + params_.cts_airtime() + cts.duration;
      schedule_response(cts, OwnTxKind::kCts);
      break;
    }
    case FrameType::kCts: {
      if (phase_ != SenderPhase::kWaitCts || !current_ ||
          frame->transmitter != current_->receiver) {
        break;
      }
      sim_.cancel(timeout_event_);
      timeout_event_ = sim::kInvalidEvent;
      phase_ = SenderPhase::kTxData;
      schedule_response(*current_, OwnTxKind::kData);
      break;
    }
    case FrameType::kData: {
      // ACK even duplicates; deliver only new payloads.
      auto [it, inserted] = delivered_from_.emplace(frame->transmitter, frame->payload_id);
      const bool duplicate = !inserted && it->second == frame->payload_id;
      if (!inserted) it->second = frame->payload_id;
      if (duplicate) {
        ++stats_.duplicate_data;
      } else {
        ++stats_.packets_delivered;
        if (listener_) listener_->on_delivered(*frame, sim_.now());
      }
      schedule_response(make_ack(id(), *frame), OwnTxKind::kAck);
      break;
    }
    case FrameType::kAck: {
      if (phase_ != SenderPhase::kWaitAck) break;
      sim_.cancel(timeout_event_);
      timeout_event_ = sim::kInvalidEvent;
      finish_success();
      break;
    }
  }
  reevaluate();
}

void DcfMac::on_receive_error(const phy::Signal&) {
  ++stats_.rx_errors;
  if (params_.use_eifs) {
    const SimTime until = sim_.now() + params_.eifs();
    if (until > eifs_until_) {
      eifs_until_ = until;
      reevaluate();
    }
  }
}

void DcfMac::on_carrier(bool busy, SimTime at) {
  if (busy) last_busy_rise_ = at;
  reevaluate();
}

void DcfMac::handle_cts_timeout() {
  assert(phase_ == SenderPhase::kWaitCts);
  handle_failure();
}

void DcfMac::handle_ack_timeout() {
  assert(phase_ == SenderPhase::kWaitAck);
  handle_failure();
}

void DcfMac::handle_failure() {
  assert(current_);
  ++attempt_;
  if (attempt_ > params_.retry_limit) {
    ++stats_.retry_drops;
    if (listener_) listener_->on_dropped(*current_, DropReason::kRetryLimit);
    current_.reset();
    attempt_ = 1;
    phase_ = SenderPhase::kIdle;
    start_service();
    return;
  }
  ++stats_.retries;
  phase_ = SenderPhase::kContending;
  prepare_backoff();
}

void DcfMac::finish_success() {
  assert(current_);
  ++stats_.packets_acked;
  if (listener_) listener_->on_sent(*current_, sim_.now());
  current_.reset();
  attempt_ = 1;
  phase_ = SenderPhase::kIdle;
  start_service();
}

}  // namespace manet::mac
