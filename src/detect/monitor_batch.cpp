#include "detect/monitor_batch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace manet::detect {

// --- GroupKey / group lookup -------------------------------------------------

MonitorBatch::GroupKey MonitorBatch::make_key(NodeId tagged, SimTime now,
                                              const MonitorConfig& c) {
  GroupKey k;
  k.tagged = tagged;
  k.created_at = now;
  k.arma_alpha = c.arma_alpha;
  k.arma_batch_slots = c.arma_batch_slots;
  k.separation_m = c.separation_m;
  k.sensing_range_m = c.sensing_range_m;
  k.tx_range_m = c.tx_range_m;
  k.mapping = c.mapping;
  k.busy_credit_factor = c.busy_credit_factor;
  k.apply_idle_correction = c.apply_idle_correction;
  k.fixed_n = c.fixed_n;
  k.fixed_k = c.fixed_k;
  k.fixed_m = c.fixed_m;
  k.fixed_j = c.fixed_j;
  k.fixed_contenders = c.fixed_contenders;
  k.density_window = c.density_window;
  k.max_window = c.max_window;
  k.clean_window_filter = c.clean_window_filter;
  k.queue_gap_slack_slots = c.queue_gap_slack_slots;
  k.deterministic_checks = c.deterministic_checks;
  k.rts_gap_bound = c.rts_gap_bound;
  k.max_seq_off_gap = c.max_seq_off_gap;
  k.decoded_retention = c.decoded_retention;
  k.max_decoded_frames = c.max_decoded_frames;
  k.prs_aware = c.prs_aware;
  return k;
}

MonitorBatch::Group& MonitorBatch::group_for(NodeId tagged,
                                             const MonitorConfig& config) {
  const GroupKey key = make_key(tagged, hub_.simulator().now(), config);
  for (auto& group : groups_) {
    if (group->key_ == key) return *group;
  }
  groups_.push_back(std::make_unique<Group>(*this, key, config));
  return *groups_.back();
}

// --- Group -------------------------------------------------------------------

MonitorBatch::Group::Group(MonitorBatch& batch, const GroupKey& key,
                           const MonitorConfig& config)
    : batch_(batch),
      key_(key),
      config_(config),
      prs_(key.tagged, batch.hub_.params()),
      model_(geom::RegionModel(config.separation_m, config.sensing_range_m)),
      ring_(&batch.hub_.frame_ring(*this, config.decoded_retention,
                                   config.max_decoded_frames)),
      arma_(&batch.hub_.intensity_tracker(config.arma_alpha,
                                          config.arma_batch_slots)),
      density_(&batch.hub_.density(*this, config.density_window,
                                   config.tx_range_m)) {
  batch_.hub_.attach(this);
}

MonitorBatch::Group::~Group() { batch_.hub_.detach(this); }

void MonitorBatch::Group::reset_exchange() {
  anchor_.reset();
  own_cts_pending_ = false;
  last_seq_off_.reset();
  last_rts_heard_.reset();
  last_digest_.reset();
  last_attempt_ = 0;
}

SystemStateParams MonitorBatch::Group::current_state() const {
  SystemStateParams p;
  p.rho = arma_->intensity();
  p.mapping = config_.mapping;

  const double dens = density_->density(batch_.hub_.simulator().now());
  const auto& areas = model_.regions().areas();
  p.k = config_.fixed_k.value_or(dens * areas.a1);
  p.n = config_.fixed_n.value_or(dens * areas.a2);
  p.m = config_.fixed_m.value_or(dens * areas.a4);
  p.j = config_.fixed_j.value_or(dens * areas.a5);

  if (config_.fixed_contenders) {
    p.contenders = *config_.fixed_contenders;
  } else {
    const double sensing_area = std::numbers::pi * config_.sensing_range_m *
                                config_.sensing_range_m;
    p.contenders = std::max(1.0, dens * sensing_area);
  }
  return p;
}

void MonitorBatch::Group::on_hub_frame(const mac::Frame& frame, SimTime start,
                                       SimTime end) {
  if (active_lanes_ == 0) return;

  const NodeId tagged = key_.tagged;
  const bool from_tagged = frame.transmitter == tagged;
  const bool to_tagged = frame.receiver == tagged;
  if (!from_tagged && !to_tagged) return;

  const auto& params = batch_.hub_.params();
  switch (frame.type) {
    case mac::FrameType::kRts:
      if (from_tagged) {
        handle_tagged_rts(frame, start);
        // If the exchange dies here (no CTS), S's next back-off starts at
        // its CTS timeout; later frames of a live exchange override this.
        note_exchange_end(end + params.response_timeout(params.cts_airtime()));
      }
      break;
    case mac::FrameType::kCts:
      // The exchange is progressing; DATA/ACK rules will provide the real
      // end. Track our own CTS to S so a dead exchange is recognized.
      if (to_tagged && frame.transmitter == batch_.hub_.self()) {
        own_cts_pending_ = true;
      }
      break;
    case mac::FrameType::kData:
      if (from_tagged) {
        // DATA's duration field covers SIFS + ACK: the exchange ends then,
        // whether or not we can hear the ACK ourselves.
        own_cts_pending_ = false;
        note_exchange_end(end + frame.duration);
      }
      break;
    case mac::FrameType::kAck:
      // Our own (or an overheard) ACK to S: exact exchange end.
      if (to_tagged) note_exchange_end(end);
      break;
  }
}

std::uint64_t MonitorBatch::Group::unwrap_seq_off(std::uint32_t announced) {
  const std::uint64_t modulo = batch_.hub_.params().seq_off_modulo;
  if (!last_seq_off_) return announced;
  const std::uint64_t base = *last_seq_off_;
  // Choose the smallest value >= base whose residue matches `announced`
  // (offsets only move forward).
  const std::uint64_t base_res = base % modulo;
  std::uint64_t candidate = base - base_res + announced;
  if (candidate < base) candidate += modulo;
  return candidate;
}

// One evaluation of a tagged RTS for the whole group: the deterministic
// checks, the window accounting, and the sample, as RtsOutcome counter
// deltas plus the CW-normalized sample that apply_outcome fans out to the
// lanes. The scalar per-monitor form of the same logic is the test tree's
// oracle (tests/reference_monitor.cpp).
void MonitorBatch::Group::handle_tagged_rts(const mac::Frame& rts,
                                            SimTime start) {
  RtsOutcome o;
  const auto& params = batch_.hub_.params();
  phy::CsTimeline& timeline = batch_.hub_.timeline();

  bool deterministic_violation = false;
  bool resynced = false;

  const std::uint64_t seq = unwrap_seq_off(rts.seq_off);
  if (config_.deterministic_checks && config_.prs_aware && last_seq_off_) {
    // SeqOff continuity: an honest stream advances by exactly one per RTS.
    if (seq <= *last_seq_off_) {
      // Replayed / non-advancing offset: blatant violation.
      ++o.seq_off_violations;
      deterministic_violation = true;
    } else if (const std::uint64_t gap = seq - *last_seq_off_ - 1; gap > 0) {
      // Offsets were consumed that we never decoded. A bounded gap — or
      // any gap across a recorded outage of our own radio — is lossy
      // observation, not evidence: resynchronize the PRS position and
      // write off the missed frames. Beyond the bound (with no outage to
      // blame) the sender is skipping ahead in its PRS, which only pays
      // off when cherry-picking small dictated values.
      const bool outage_spanned =
          last_rts_heard_ && timeline.outage_time(*last_rts_heard_, start) > 0;
      if (gap <= config_.max_seq_off_gap || outage_spanned) {
        ++o.seq_off_resyncs;
        o.frames_lost += gap;
        resynced = true;
      } else {
        ++o.seq_off_violations;
        deterministic_violation = true;
      }
    }
  }
  if (config_.deterministic_checks && config_.prs_aware) {
    // Attempt/MD honesty: a retransmission of the same payload must
    // increment the attempt number. Digest equality proves it is the same
    // payload even across a gap; corrupted frames never get here (their
    // FCS fails at the PHY), so a mangled digest cannot frame the sender.
    if (last_digest_ && rts.data_digest == *last_digest_ &&
        rts.attempt <= last_attempt_) {
      ++o.attempt_violations;
      deterministic_violation = true;
    }
  }

  // Expected (dictated) back-off for the announced offset and attempt.
  const double expected = prs_.dictated_slots(seq, rts.attempt);

  // Bookkeeping for the next RTS (previous values feed the retry check).
  const std::optional<crypto::Md5Digest> prev_digest = last_digest_;
  const std::uint32_t prev_attempt = last_attempt_;
  const std::optional<SimTime> prev_rts_heard = last_rts_heard_;
  last_seq_off_ = seq;
  last_rts_heard_ = start;
  last_digest_ = rts.data_digest;
  last_attempt_ = rts.attempt;

  // Ambiguous anchor: we answered S's previous RTS with a CTS but never
  // saw the DATA — S's back-off start depends on which frame was lost.
  const bool ambiguous_anchor = own_cts_pending_;
  own_cts_pending_ = false;

  if (!anchor_ || *anchor_ >= start || ambiguous_anchor) {
    if (config_.rts_gap_bound && config_.deterministic_checks &&
        config_.prs_aware && prev_rts_heard) {
      // No anchor, but physics still bounds the countdown: even if S
      // started its back-off the instant its previous RTS left the air and
      // every slot since was idle, at most (gap - DIFS) / slot slots fit.
      // An RTS flood ignores back-off entirely, so its dictated values
      // routinely exceed the bound; honest senders never do (their real
      // elapsed time includes the dictated countdown plus timeouts).
      const SimTime prev_end = *prev_rts_heard + params.rts_airtime();
      const SimDuration gap = start > prev_end ? start - prev_end : 0;
      const double max_slots =
          gap > params.difs
              ? static_cast<double>(gap - params.difs) /
                    static_cast<double>(params.slot_time)
              : 0.0;
      if (expected > max_slots + 1.0) {
        // There may never be samples to latch this onto (a pure flood
        // completes no exchanges): every lane emits the verdict at once.
        ++o.impossible_backoff;
        o.single_shot = true;
      }
    }
    ++o.skipped_no_anchor;
    if (resynced) anchor_.reset();
    o.deterministic_violation = deterministic_violation;
    batch_.apply_outcome(*this, o);
    return;
  }
  const SimTime window_start = *anchor_;
  const SimDuration window = start - window_start;

  if (resynced) {
    // The anchor predates exchanges we never decoded, so the window spans
    // S's unseen transmissions: as a sample it is biased high and must be
    // discarded. The impossible-back-off lower bound survives the bias —
    // the whole window still caps how many slots S could have counted for
    // the current attempt, missed frames included.
    if (config_.deterministic_checks && config_.prs_aware) {
      const double max_slots = static_cast<double>(window - params.difs) /
                               static_cast<double>(params.slot_time);
      if (expected > max_slots + 1.0) {
        ++o.impossible_backoff;
        deterministic_violation = true;
      }
    }
    ++o.windows_discarded_impaired;
    anchor_.reset();
    o.deterministic_violation = deterministic_violation;
    batch_.apply_outcome(*this, o);
    return;
  }

  if (config_.max_window > 0 && window > config_.max_window) {
    ++o.skipped_long_window;
    o.deterministic_violation = deterministic_violation;
    batch_.apply_outcome(*this, o);
    return;
  }

  // A window overlapping an outage of our own radio measures deafness,
  // not back-off (the timeline records silence we did not actually
  // observe): discard it before any countdown accounting.
  if (timeline.outage_time(window_start, start) > 0) {
    ++o.windows_discarded_impaired;
    o.deterministic_violation = deterministic_violation;
    batch_.apply_outcome(*this, o);
    return;
  }

  // Impossible-back-off check: even if S had counted every slot of the
  // window (minus one DIFS), the dictated value would not have finished.
  if (config_.deterministic_checks && config_.prs_aware) {
    const double max_slots = static_cast<double>(window - params.difs) /
                             static_cast<double>(params.slot_time);
    if (expected > max_slots + 1.0) {
      ++o.impossible_backoff;
      deterministic_violation = true;
    }
  }

  // Translate our own view of the window into S's estimated countdown.
  // The hub's frame ring does the three-way split (memoized across the
  // node's groups): certainly blocked / anonymous busy / free idle.
  const WindowAccounting& acct =
      ring_->window_accounting(window_start, start, key_.tagged);

  const double idle_slots = static_cast<double>(acct.countable_idle) /
                            static_cast<double>(params.slot_time);
  const double busy_slots = static_cast<double>(acct.uncertain_busy) /
                            static_cast<double>(params.slot_time);

  const SystemStateParams state = current_state();
  const ConditionalProbs& probs = model_.conditional_probs(state);
  const double idle_weight =
      config_.apply_idle_correction ? probs.p_idle_given_idle : 1.0;
  const double observed =
      idle_weight * idle_slots +
      config_.busy_credit_factor * probs.p_idle_given_busy * busy_slots;

  // Clean-window acceptance: only windows that plausibly contain no
  // queue-empty gap are comparable back-off samples (see MonitorConfig).
  // A retry is *proven* clean only when we decoded the immediately
  // preceding attempt of the same payload; otherwise the anchor may span a
  // missed transmission and the window gets the same plausibility test.
  const bool proven_retry = prev_digest && rts.data_digest == *prev_digest &&
                            rts.attempt == prev_attempt + 1;
  bool accepted = true;
  if (config_.clean_window_filter && !proven_retry) {
    const double cw = params.cw_for_attempt(rts.attempt);
    if (observed > cw + config_.queue_gap_slack_slots) accepted = false;
  }

  // The record is filled unconditionally (pure values already in hand);
  // apply_outcome only stores it into lanes with record_samples set.
  o.has_record = true;
  o.record.expected = expected;
  o.record.observed = observed;
  o.record.idle_slots = idle_slots;
  o.record.busy_unc_slots = busy_slots;
  o.record.blocked_slots = static_cast<double>(acct.blocked) /
                           static_cast<double>(params.slot_time);
  o.record.attempt = rts.attempt;
  o.record.accepted = accepted;

  if (!accepted) {
    ++o.skipped_queue_gap;
    o.deterministic_violation = deterministic_violation;
    batch_.apply_outcome(*this, o);
    return;
  }

  // Samples are normalized by their contention window so first attempts
  // (CW 31) and deep retries (CW up to 1023) form one homogeneous
  // population: under H0 the normalized dictated value is uniform on
  // [0, 1) regardless of attempt.
  const double norm =
      static_cast<double>(params.cw_for_attempt(rts.attempt)) + 1.0;
  o.has_sample = true;
  o.expected_norm = expected / norm;
  o.observed_norm = observed / norm;
  o.deterministic_violation = deterministic_violation;
  batch_.apply_outcome(*this, o);
}

// --- Lane management ---------------------------------------------------------

std::size_t MonitorBatch::add_lane(NodeId tagged, const MonitorConfig& config) {
  if (config.sample_size == 0) {
    throw std::invalid_argument("monitor sample_size must be at least 1");
  }
  if (config.arma_batch_slots == 0) {
    throw std::invalid_argument("monitor arma_batch_slots must be at least 1");
  }
  Group& group = group_for(tagged, config);
  const std::size_t lane = lane_stats_.size();

  lane_group_.push_back(&group);
  lane_alpha_.push_back(config.alpha);
  lane_margin_.push_back(config.margin_fraction);
  lane_wilcoxon_.push_back(config.wilcoxon);
  lane_active_.push_back(1);
  lane_stats_.emplace_back();
  lane_windows_.emplace_back();
  lane_samples_.emplace_back();

  const std::size_t window = window_for(group, config);
  windows_[window].lanes.push_back(lane);
  lane_window_.push_back(window);

  fold_pending(group);  // pending deltas predate the new lane
  group.lanes_.push_back(lane);
  if (config.record_samples) group.record_lanes_.push_back(lane);
  ++group.active_lanes_;  // lanes start active
  return lane;
}

std::size_t MonitorBatch::window_for(Group& group, const MonitorConfig& config) {
  if (config.detector == DetectorKind::kWilcoxon) {
    for (const std::size_t w : group.windows_) {
      const Window& window = windows_[w];
      const bool untouched =
          window.samples == 0 && !window.flag &&
          std::all_of(window.lanes.begin(), window.lanes.end(),
                      [&](std::size_t lane) { return lane_active_[lane] != 0; });
      if (window.seq_slot == kNoSeqSlot && window.size == config.sample_size &&
          untouched) {
        return w;
      }
    }
  }
  // A new window: Wilcoxon windows own a sample_size-wide slice of the
  // arenas; a sequential lane's window buffers nothing.
  Window window;
  window.size = config.sample_size;
  window.off = xs_arena_.size();
  if (config.detector == DetectorKind::kWilcoxon) {
    xs_arena_.resize(xs_arena_.size() + config.sample_size);
    ys_arena_.resize(ys_arena_.size() + config.sample_size);
  } else {
    window.seq_slot = seq_bank_.add(config.detector, config.cusum, config.sprt);
  }
  windows_.push_back(std::move(window));
  group.windows_.push_back(windows_.size() - 1);
  return windows_.size() - 1;
}

void MonitorBatch::set_lane_active(std::size_t lane, bool active) {
  if ((lane_active_[lane] != 0) == active) return;
  Group& group = *lane_group_[lane];
  fold_pending(group);  // the deltas so far belong to the old active set
  lane_active_[lane] = active ? 1 : 0;
  if (!active) {
    --group.active_lanes_;
    return;
  }
  ++group.active_lanes_;
  // Fresh start: discard the partial window, the detector state, and the
  // group's exchange anchor. Both resets are idempotent across the lanes
  // of one group — the harness toggles them together with no frames in
  // between.
  Window& window = windows_[lane_window_[lane]];
  window.fill = 0;
  window.flag = false;
  if (window.seq_slot != kNoSeqSlot) seq_bank_.reset(window.seq_slot);
  group.reset_exchange();
}

ObservationHub::FrameRing& MonitorBatch::lane_ring(std::size_t lane) const {
  return *lane_group_[lane]->ring_;
}

ObservationHub::IntensityTracker& MonitorBatch::lane_tracker(
    std::size_t lane) const {
  return *lane_group_[lane]->arma_;
}

// --- Fan-out + window close -------------------------------------------------

void MonitorBatch::fold_pending(Group& group) {
  // Every outcome counts one RTS, so no RTS since the last fold means no
  // deltas at all.
  if (group.pending_.rts_observed == 0) return;
  for (const std::size_t lane : group.lanes_) {
    if (lane_active_[lane] != 0) accumulate_stats(lane_stats_[lane], group.pending_);
  }
  group.pending_ = MonitorStats{};
}

void MonitorBatch::apply_outcome(Group& group, const RtsOutcome& o) {
  MonitorStats& d = group.pending_;
  ++d.rts_observed;
  d.seq_off_violations += o.seq_off_violations;
  d.attempt_violations += o.attempt_violations;
  d.impossible_backoff += o.impossible_backoff;
  d.skipped_no_anchor += o.skipped_no_anchor;
  d.skipped_long_window += o.skipped_long_window;
  d.skipped_queue_gap += o.skipped_queue_gap;
  d.seq_off_resyncs += o.seq_off_resyncs;
  d.frames_lost += o.frames_lost;
  d.windows_discarded_impaired += o.windows_discarded_impaired;
  if (o.has_sample) ++d.samples;
  if (o.single_shot) {
    WindowResult result;
    result.at = hub_.simulator().now();
    result.p_less = 1.0;
    result.deterministic_flag = true;
    for (const std::size_t lane : group.lanes_) {
      if (lane_active_[lane] != 0) record_window(lane, result, /*single_shot=*/true);
    }
  }
  if (o.has_record) {
    for (const std::size_t lane : group.record_lanes_) {
      if (lane_active_[lane] != 0) lane_samples_[lane].push_back(o.record);
    }
  }
  if (!o.deterministic_violation && !o.has_sample) return;
  for (const std::size_t w : group.windows_) {
    Window& window = windows_[w];
    if (lane_active_[window.lanes.front()] == 0) continue;
    if (o.deterministic_violation) window.flag = true;
    if (!o.has_sample) continue;
    double expected = o.expected_norm;
    if (!group.config_.prs_aware) {
      // Baseline: no dictated values — compare against evenly spaced
      // uniform quantiles, the protocol's marginal back-off distribution.
      // The quantile is the sample's position in the window's sequence
      // (samples % sample_size), which differs across sample sizes.
      const double k = static_cast<double>(window.samples % window.size);
      expected = (k + 0.5) / static_cast<double>(window.size);
    }
    add_sample(window, expected, o.observed_norm);
  }
}

void MonitorBatch::add_sample(Window& window, double expected, double observed) {
  ++window.samples;
  ++window.fill;
  if (window.seq_slot != kNoSeqSlot) {
    // Sequential path: the running score absorbs the sample immediately;
    // the margin shift makes an honest deficit negative on average, the
    // same H0 the Wilcoxon path tests.
    const double deficit = expected - observed - lane_margin_[window.lanes.front()];
    const SequentialBank::Step step = seq_bank_.update(window.seq_slot, deficit);
    if (step.flag) {
      close_sequential(window, /*crossed=*/true, step.score);
      seq_bank_.reset(window.seq_slot);
    } else if (window.fill >= window.size) {
      // Checkpoint: an unflagged window carrying the current score, so
      // honest runs still produce ROC denominators and latched
      // deterministic flags surface no later than under Wilcoxon.
      close_sequential(window, /*crossed=*/false, step.score);
    }
    return;
  }
  xs_arena_[window.off + window.fill - 1] = expected;
  ys_arena_[window.off + window.fill - 1] = observed;
  if (window.fill >= window.size) close_window(window);
}

void MonitorBatch::close_sequential(Window& window, bool crossed, double score) {
  WindowResult result;
  result.at = hub_.simulator().now();
  result.deterministic_flag = window.flag;
  result.p_less = std::exp(-(score > 0.0 ? score : 0.0));
  result.statistical_flag = crossed;
  record_window(window.lanes.front(), result);
  window.fill = 0;
  window.flag = false;
}

void MonitorBatch::close_window(Window& window) {
  const SimTime now = hub_.simulator().now();
  wilcoxon_load(std::span<const double>(xs_arena_.data() + window.off, window.fill),
                std::span<const double>(ys_arena_.data() + window.off, window.fill),
                wilcoxon_scratch_);
  for (const std::size_t lane : window.lanes) {
    WindowResult result;
    result.at = now;
    result.deterministic_flag = window.flag;
    // The observed sample is shifted up by the permissible margin before
    // the one-sided test: only a deficit beyond the margin (a plain
    // fraction of the CW-normalized samples) counts as evidence.
    result.p_less =
        wilcoxon_shifted(lane_margin_[lane], lane_wilcoxon_[lane], wilcoxon_scratch_)
            .p_less;
    result.statistical_flag = result.p_less < lane_alpha_[lane];
    record_window(lane, result);
  }
  window.fill = 0;
  window.flag = false;
}

void MonitorBatch::record_window(std::size_t lane, const WindowResult& result,
                                 bool single_shot) {
  MonitorStats& st = lane_stats_[lane];
  ++st.windows;
  if (result.flagged()) {
    ++st.flagged_windows;
    if (st.first_flag_time == kTimeNever) {
      st.first_flag_time = result.at;
      // A single-shot rts_gap_bound verdict closes no sample window: its
      // position in the window sequence is an artifact of when unrelated
      // traffic anchored, so it gets no ordinal (stays 0; see report.hpp).
      st.windows_to_first_flag = single_shot ? 0 : st.windows;
    }
  }
  lane_windows_[lane].push_back(result);
}

}  // namespace manet::detect
