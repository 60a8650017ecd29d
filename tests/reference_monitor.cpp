#include "reference_monitor.hpp"

#include <cmath>
#include <numbers>

#include "detect/replay.hpp"

namespace manet::detect {

ReferenceMonitor::ReferenceMonitor(ObservationHub& hub, NodeId tagged,
                                   const MonitorConfig& config)
    : hub_(hub),
      sim_(hub.simulator()),
      timeline_(hub.timeline()),
      tagged_(tagged),
      config_(config),
      tagged_prs_(tagged, hub.params()),
      model_(geom::RegionModel(config.separation_m, config.sensing_range_m)),
      ring_(&hub.frame_ring(*this, config.decoded_retention,
                            config.max_decoded_frames)),
      arma_(&hub.intensity_tracker(config.arma_alpha, config.arma_batch_slots)),
      density_(&hub.density(*this, config.density_window, config.tx_range_m)),
      seq_test_(make_sequential_test(config.detector, config.cusum, config.sprt)) {
  hub_.attach(this);
}

ReferenceMonitor::~ReferenceMonitor() { hub_.detach(this); }

void ReferenceMonitor::set_active(bool active) {
  if (active == active_) return;
  active_ = active;
  if (active_) {
    // Fresh start: discard the partial window and the stale anchor.
    xs_.clear();
    ys_.clear();
    window_deterministic_flag_ = false;
    if (seq_test_) {
      seq_test_->reset();
      seq_samples_ = 0;
    }
    anchor_.reset();
    own_cts_pending_ = false;
    last_seq_off_.reset();
    last_rts_heard_.reset();
    last_digest_.reset();
    last_attempt_ = 0;
  }
}

SystemStateParams ReferenceMonitor::current_state() const {
  SystemStateParams p;
  p.rho = arma_->intensity();
  p.mapping = config_.mapping;

  const double dens = density_->density(sim_.now());
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

void ReferenceMonitor::on_hub_frame(const mac::Frame& frame, SimTime start,
                                    SimTime end) {
  if (!active_) return;

  const bool from_tagged = frame.transmitter == tagged_;
  const bool to_tagged = frame.receiver == tagged_;
  if (!from_tagged && !to_tagged) return;

  const auto& params = hub_.params();
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
      if (to_tagged && frame.transmitter == hub_.self()) own_cts_pending_ = true;
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
      if (to_tagged) {
        // Our own (or an overheard) ACK to S: exact exchange end.
        note_exchange_end(end);
      }
      break;
  }
}

void ReferenceMonitor::note_exchange_end(SimTime at) { anchor_ = at; }

std::uint64_t ReferenceMonitor::unwrap_seq_off(std::uint32_t announced) {
  const std::uint64_t modulo = hub_.params().seq_off_modulo;
  if (!last_seq_off_) return announced;
  const std::uint64_t base = *last_seq_off_;
  // Choose the smallest value >= base whose residue matches `announced`
  // (offsets only move forward).
  const std::uint64_t base_res = base % modulo;
  std::uint64_t candidate = base - base_res + announced;
  if (candidate < base) candidate += modulo;
  return candidate;
}

void ReferenceMonitor::handle_tagged_rts(const mac::Frame& rts,
                                         SimTime start) {
  ++stats_.rts_observed;
  const auto& params = hub_.params();

  bool deterministic_violation = false;
  bool resynced = false;

  const std::uint64_t seq = unwrap_seq_off(rts.seq_off);
  if (config_.deterministic_checks && config_.prs_aware && last_seq_off_) {
    // SeqOff continuity: an honest stream advances by exactly one per RTS.
    if (seq <= *last_seq_off_) {
      // Replayed / non-advancing offset: blatant violation.
      ++stats_.seq_off_violations;
      deterministic_violation = true;
    } else if (const std::uint64_t gap = seq - *last_seq_off_ - 1; gap > 0) {
      // Offsets were consumed that we never decoded. A bounded gap — or
      // any gap across a recorded outage of our own radio — is lossy
      // observation, not evidence: resynchronize the PRS position and
      // write off the missed frames. Beyond the bound (with no outage to
      // blame) the sender is skipping ahead in its PRS, which only pays
      // off when cherry-picking small dictated values.
      const bool outage_spanned =
          last_rts_heard_ && timeline_.outage_time(*last_rts_heard_, start) > 0;
      if (gap <= config_.max_seq_off_gap || outage_spanned) {
        ++stats_.seq_off_resyncs;
        stats_.frames_lost += gap;
        resynced = true;
      } else {
        ++stats_.seq_off_violations;
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
      ++stats_.attempt_violations;
      deterministic_violation = true;
    }
  }

  // Expected (dictated) back-off for the announced offset and attempt.
  const double expected = tagged_prs_.dictated_slots(seq, rts.attempt);

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
        ++stats_.impossible_backoff;
        // There may never be Wilcoxon samples to latch this onto (a pure
        // flood completes no exchanges): emit the verdict immediately.
        WindowResult result;
        result.at = sim_.now();
        result.p_less = 1.0;
        result.deterministic_flag = true;
        record_window(result, /*single_shot=*/true);
      }
    }
    ++stats_.skipped_no_anchor;
    if (resynced) anchor_.reset();
    if (deterministic_violation) window_deterministic_flag_ = true;
    return;
  }
  const SimTime window_start = *anchor_;
  const SimDuration window = start - window_start;

  if (resynced) {
    // The anchor predates exchanges we never decoded, so the window spans
    // S's unseen transmissions: as a Wilcoxon sample it is biased high and
    // must be discarded. The impossible-back-off lower bound survives the
    // bias — the whole window still caps how many slots S could have
    // counted for the current attempt, missed frames included.
    if (config_.deterministic_checks && config_.prs_aware) {
      const double max_slots = static_cast<double>(window - params.difs) /
                               static_cast<double>(params.slot_time);
      if (expected > max_slots + 1.0) {
        ++stats_.impossible_backoff;
        deterministic_violation = true;
      }
    }
    ++stats_.windows_discarded_impaired;
    anchor_.reset();
    if (deterministic_violation) window_deterministic_flag_ = true;
    return;
  }

  if (config_.max_window > 0 && window > config_.max_window) {
    ++stats_.skipped_long_window;
    if (deterministic_violation) window_deterministic_flag_ = true;
    return;
  }

  // A window overlapping an outage of our own radio measures deafness,
  // not back-off (the timeline records silence we did not actually
  // observe): discard it before any countdown accounting.
  if (timeline_.outage_time(window_start, start) > 0) {
    ++stats_.windows_discarded_impaired;
    if (deterministic_violation) window_deterministic_flag_ = true;
    return;
  }

  // Impossible-back-off check: even if S had counted every slot of the
  // window (minus one DIFS), the dictated value would not have finished.
  if (config_.deterministic_checks && config_.prs_aware) {
    const double max_slots =
        static_cast<double>(window - params.difs) /
        static_cast<double>(params.slot_time);
    if (expected > max_slots + 1.0) {
      ++stats_.impossible_backoff;
      deterministic_violation = true;
    }
  }

  // Translate our own view of the window into S's estimated countdown.
  // The hub's frame ring does the three-way split (memoized across the
  // node's views): certainly blocked / anonymous busy / free idle.
  const WindowAccounting& acct =
      ring_->window_accounting(window_start, start, tagged_);

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

  if (config_.record_samples) {
    SampleRecord rec;
    rec.expected = expected;
    rec.observed = observed;
    rec.idle_slots = idle_slots;
    rec.busy_unc_slots = busy_slots;
    rec.blocked_slots = static_cast<double>(acct.blocked) /
                        static_cast<double>(params.slot_time);
    rec.attempt = rts.attempt;
    rec.accepted = accepted;
    sample_log_.push_back(rec);
  }

  if (!accepted) {
    ++stats_.skipped_queue_gap;
    if (deterministic_violation) window_deterministic_flag_ = true;
    return;
  }

  // Samples are normalized by their contention window so first attempts
  // (CW 31) and deep retries (CW up to 1023) form one homogeneous
  // population: under H0 the normalized dictated value is uniform on
  // [0, 1) regardless of attempt.
  const double norm = static_cast<double>(params.cw_for_attempt(rts.attempt)) + 1.0;
  double expected_norm = expected / norm;
  if (!config_.prs_aware) {
    // Baseline: no dictated values — compare against evenly spaced uniform
    // quantiles, the protocol's marginal back-off distribution.
    const double k = static_cast<double>(stats_.samples % config_.sample_size);
    expected_norm = (k + 0.5) / static_cast<double>(config_.sample_size);
  }
  add_sample(expected_norm, observed / norm, deterministic_violation);
}

void ReferenceMonitor::add_sample(double expected, double observed,
                         bool deterministic_violation) {
  ++stats_.samples;
  if (deterministic_violation) window_deterministic_flag_ = true;

  if (seq_test_) {
    // Sequential path: the running score absorbs the sample immediately;
    // the margin shift makes an honest deficit negative on average, the
    // same H0 the Wilcoxon path tests.
    const double deficit = expected - observed - config_.margin_fraction;
    const SequentialTest::Step step = seq_test_->update(deficit);
    ++seq_samples_;
    if (step.flag) {
      close_sequential(/*crossed=*/true, step.score);
      seq_test_->reset();
    } else if (seq_samples_ >= config_.sample_size) {
      // Checkpoint: an unflagged window carrying the current score, so
      // honest runs still produce ROC denominators and latched
      // deterministic flags surface no later than under Wilcoxon.
      close_sequential(/*crossed=*/false, step.score);
    }
    return;
  }

  xs_.push_back(expected);
  ys_.push_back(observed);
  if (xs_.size() >= config_.sample_size) close_window();
}

void ReferenceMonitor::close_sequential(bool crossed, double score) {
  WindowResult result;
  result.at = sim_.now();
  result.deterministic_flag = window_deterministic_flag_;
  result.p_less = std::exp(-(score > 0.0 ? score : 0.0));
  result.statistical_flag = crossed;
  record_window(result);
  seq_samples_ = 0;
  window_deterministic_flag_ = false;
}

void ReferenceMonitor::close_window() {
  WindowResult result;
  result.at = sim_.now();
  result.deterministic_flag = window_deterministic_flag_;

  // Shift the observed sample up by the permissible margin before the
  // one-sided test: only a deficit beyond the margin counts as evidence.
  // Samples are CW-normalized, so the margin is a plain fraction of the
  // contention window.
  shifted_.assign(ys_.begin(), ys_.end());
  for (double& v : shifted_) v += config_.margin_fraction;

  const RankSumResult test =
      wilcoxon_rank_sum(xs_, shifted_, config_.wilcoxon, wilcoxon_scratch_);
  result.p_less = test.p_less;
  result.statistical_flag = test.p_less < config_.alpha;

  record_window(result);

  xs_.clear();
  ys_.clear();
  window_deterministic_flag_ = false;
}

void ReferenceMonitor::record_window(const WindowResult& result, bool single_shot) {
  ++stats_.windows;
  if (result.flagged()) {
    ++stats_.flagged_windows;
    if (stats_.first_flag_time == kTimeNever) {
      stats_.first_flag_time = result.at;
      // A single-shot rts_gap_bound verdict closes no sample window: its
      // position in the window sequence is an artifact of when unrelated
      // traffic anchored, so it gets no ordinal (stays 0; see report.hpp).
      stats_.windows_to_first_flag = single_shot ? 0 : stats_.windows;
    }
  }
  windows_.push_back(result);
}


namespace {

/// One private replay world for one reference monitor: the same
/// reconstruction ReplaySession performs, with a hub nobody else shares.
struct ReferenceWorld {
  ReferenceWorld(const TraceHeader& header, NodeId target,
                 const MonitorConfig& config) {
    timeline.restore(header.timeline);
    sim.run_until(header.start_time);
    hub = std::make_unique<ObservationHub>(sim, header.node, header.params,
                                           timeline);
    monitor = std::make_unique<ReferenceMonitor>(*hub, target, config);
  }

  void run(const MemoryTraceReader& trace) {
    hub->consume(trace, [this](const ObservationEvent& ev) {
      if (ev.marker_code == static_cast<std::uint32_t>(MarkerCode::kActivity)) {
        monitor->set_active(ev.marker_value != 0);
      }
    });
  }

  sim::Simulator sim;
  phy::CsTimeline timeline;
  std::unique_ptr<ObservationHub> hub;
  std::unique_ptr<ReferenceMonitor> monitor;
};

}  // namespace

MultiDetectionResult reference_replay(const TraceRecorder& recorder,
                                      const std::vector<MonitorConfig>& monitors,
                                      double warmup_s) {
  MultiDetectionResult result;
  result.per_config.resize(monitors.size());
  result.monitor_nodes = recorder.writers().size();
  const SimTime warmup = seconds_to_time(warmup_s);

  for (const auto& writer : recorder.writers()) {
    MemoryTraceReader trace(writer->serialize());
    for (const ObservationEvent& ev : trace.events()) {
      if (ev.kind == ObservationKind::kMarker &&
          ev.marker_code == static_cast<std::uint32_t>(MarkerCode::kActivity) &&
          ev.marker_value == 0) {
        ++result.handoffs;
      }
    }
    for (std::size_t ci = 0; ci < monitors.size(); ++ci) {
      DetectionResult& out = result.per_config[ci];
      for (const NodeId target : trace.header().targets) {
        ReferenceWorld world(trace.header(), target, monitors[ci]);
        world.run(trace);
        for (const WindowResult& w : world.monitor->windows()) {
          if (w.at < warmup) continue;
          ++out.windows;
          if (w.flagged()) ++out.flagged;
          if (w.statistical_flag) ++out.flagged_statistical;
          out.window_log.push_back(w);
        }
        accumulate_stats(out.stats, world.monitor->stats());
      }
    }
  }
  result.compute_rates();
  return result;
}

}  // namespace manet::detect
