#include "mac/attackers.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace manet::mac {

// --- ColludingBackoff --------------------------------------------------------

std::uint32_t ColludingBackoff::used_slots(const BackoffContext& ctx) {
  if (!aggressive_at(ctx.now)) return ctx.dictated_slots;
  return pm_scaled_slots(ctx.dictated_slots, percent_);
}

// --- AdaptiveBackoff ---------------------------------------------------------

std::uint32_t AdaptiveBackoff::used_slots(const BackoffContext& ctx) {
  if (lying_low(ctx.now)) return ctx.dictated_slots;
  return pm_scaled_slots(ctx.dictated_slots, percent_);
}

void AdaptiveBackoff::on_frame(const Frame& frame, SimTime /*start*/, SimTime end) {
  if (suspects_.empty()) return;
  if (std::find(suspects_.begin(), suspects_.end(), frame.transmitter) ==
      suspects_.end()) {
    return;
  }
  if (last_monitor_heard_ == kTimeNever || end > last_monitor_heard_) {
    last_monitor_heard_ = end;
  }
}

// --- Sybil -------------------------------------------------------------------

SybilState::SybilState(std::vector<NodeId> aliases, const DcfParams& params) {
  if (aliases.empty()) {
    throw std::invalid_argument("sybil attacker needs at least one identity");
  }
  identities_.reserve(aliases.size());
  for (NodeId a : aliases) {
    identities_.push_back(Identity{a, VerifiableBackoff(a, params), 0});
  }
}

void SybilState::begin_attempt(std::uint32_t attempt) {
  if (positioned_) return;  // back-off policy already positioned this attempt
  if (attempt <= 1) {
    // Fresh packet: rotate to the next claimed identity. Retries stay on
    // the packet's identity so the digest/attempt bookkeeping a monitor
    // checks remains self-consistent per identity.
    if (any_packet_) current_ = (current_ + 1) % identities_.size();
    any_packet_ = true;
  }
  Identity& identity = identities_[current_];
  current_seq_ = identity.next_seq++;
  dictated_ = identity.prs.dictated_slots(
      current_seq_, attempt == 0 ? 1u : attempt);
  positioned_ = true;
}

NodeId SybilState::current_identity() const {
  return identities_[current_].id;
}

std::uint32_t SybilBackoff::used_slots(const BackoffContext& ctx) {
  state_->begin_attempt(ctx.attempt);
  return pm_scaled_slots(state_->dictated_slots(), percent_);
}

AnnouncedFields SybilAnnounce::announced(const AnnounceContext& ctx) {
  // Normally SybilBackoff already positioned the state when the back-off
  // for this attempt was drawn; begin_attempt is idempotent so a
  // standalone announce policy (identity spreading without a timing
  // cheat) also works.
  state_->begin_attempt(ctx.attempt);
  AnnouncedFields fields;
  fields.seq_off = state_->current_seq();
  fields.attempt = ctx.attempt;
  fields.claimed = state_->current_identity();
  state_->consume();
  return fields;
}

// --- RtsFlooder --------------------------------------------------------------

RtsFlooder::RtsFlooder(sim::Simulator& sim, phy::Radio& radio,
                       const DcfParams& params, const RtsFloodConfig& config)
    : sim_(sim), radio_(radio), params_(params), config_(config),
      rng_(config.seed) {
  assert(config_.rate_pps > 0.0);
}

void RtsFlooder::start(SimTime at, SimTime stop) {
  stop_ = stop;
  sim_.at(at, [this] { fire(); });
}

void RtsFlooder::fire() {
  if (sim_.now() >= stop_) return;
  if (!radio_.transmitting()) {
    // A fresh bogus payload per RTS: the digest changes every time, so the
    // retransmission (MD/attempt) check never has a repeated digest to
    // bite on, and offsets advance by exactly one, so continuity holds.
    // Only the *timing* is wrong — the flood ignores back-off entirely.
    const Frame data = make_data(radio_.id(), config_.victim, config_.data_bytes,
                                 payload_id_++, params_);
    Frame rts = make_rts(radio_.id(), config_.victim, data,
                         static_cast<std::uint32_t>(seq_ % params_.seq_off_modulo),
                         /*attempt=*/1, params_);
    ++seq_;
    radio_.transmit(std::make_shared<const Frame>(rts), params_.rts_airtime());
    ++sent_;
  }
  schedule_next();
}

void RtsFlooder::schedule_next() {
  const double gap_s = rng_.exponential(config_.rate_pps);
  SimDuration gap = seconds_to_time(gap_s);
  if (gap < kMicrosecond) gap = kMicrosecond;  // keep the event queue sane
  sim_.after(gap, [this] { fire(); });
}

}  // namespace manet::mac
