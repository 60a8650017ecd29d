// Adversary zoo v2 (src/mac/attackers.*) unit tests plus the experiment
// harness guarantees the ROC scoring relies on: every attacker is
// deterministic given the scenario seed, bit-identical between the live
// batched pipeline and the scalar reference replayed over the recorded
// traces, and the first-flag counters / RTS-gap bound behave as documented.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/trace.hpp"
#include "mac/attackers.hpp"
#include "mac/backoff.hpp"
#include "mac/frame.hpp"
#include "mac/params.hpp"
#include "reference_monitor.hpp"

namespace manet::mac {
namespace {

TEST(CollusionSchedule, RotatesRoundRobinByPhase) {
  CollusionSchedule schedule;
  schedule.group_size = 3;
  schedule.phase = 2 * kSecond;
  EXPECT_EQ(schedule.cheater_at(0), 0u);
  EXPECT_EQ(schedule.cheater_at(2 * kSecond - 1), 0u);
  EXPECT_EQ(schedule.cheater_at(2 * kSecond), 1u);
  EXPECT_EQ(schedule.cheater_at(4 * kSecond), 2u);
  EXPECT_EQ(schedule.cheater_at(6 * kSecond), 0u);  // wraps
  EXPECT_EQ(schedule.cheater_at(-5), 0u);           // clamped, no UB

  schedule.group_size = 1;
  EXPECT_EQ(schedule.cheater_at(17 * kSecond), 0u);
}

TEST(ColludingBackoff, CheatsOnlyDuringOwnTurn) {
  auto schedule = std::make_shared<CollusionSchedule>();
  schedule->group_size = 2;
  schedule->phase = 2 * kSecond;
  ColludingBackoff member0(schedule, 0, /*percent=*/100);
  ColludingBackoff member1(schedule, 1, /*percent=*/100);

  BackoffContext ctx;
  ctx.dictated_slots = 20;
  ctx.now = kSecond;  // member 0's turn
  EXPECT_TRUE(member0.aggressive_at(ctx.now));
  EXPECT_EQ(member0.used_slots(ctx), 0u);
  EXPECT_FALSE(member1.aggressive_at(ctx.now));
  EXPECT_EQ(member1.used_slots(ctx), 20u);

  ctx.now = 3 * kSecond;  // member 1's turn
  EXPECT_EQ(member0.used_slots(ctx), 20u);
  EXPECT_EQ(member1.used_slots(ctx), 0u);
}

TEST(AdaptiveBackoff, HonestDuringProbationThenCheats) {
  AdaptiveBackoff policy(/*percent=*/100,
                         /*probation_until=*/seconds_to_time(10),
                         /*vigilance=*/0);
  BackoffContext ctx;
  ctx.dictated_slots = 16;
  ctx.now = seconds_to_time(5);
  EXPECT_TRUE(policy.lying_low(ctx.now));
  EXPECT_EQ(policy.used_slots(ctx), 16u);

  ctx.now = seconds_to_time(15);
  EXPECT_FALSE(policy.lying_low(ctx.now));
  EXPECT_EQ(policy.used_slots(ctx), 0u);
}

TEST(AdaptiveBackoff, VigilanceRestartsOnSuspectFrames) {
  const NodeId suspect = 7;
  AdaptiveBackoff policy(/*percent=*/100, /*probation_until=*/0,
                         /*vigilance=*/seconds_to_time(5), {suspect});
  BackoffContext ctx;
  ctx.dictated_slots = 16;
  ctx.now = seconds_to_time(1);
  EXPECT_EQ(policy.used_slots(ctx), 0u);  // probation over, nothing heard

  Frame heard;
  heard.transmitter = suspect;
  policy.on_frame(heard, seconds_to_time(2), seconds_to_time(2));
  ctx.now = seconds_to_time(4);
  EXPECT_TRUE(policy.lying_low(ctx.now));
  EXPECT_EQ(policy.used_slots(ctx), 16u);  // within vigilance
  ctx.now = seconds_to_time(8);
  EXPECT_EQ(policy.used_slots(ctx), 0u);   // vigilance expired

  Frame stranger;
  stranger.transmitter = 9;  // not a suspect: must not restart vigilance
  policy.on_frame(stranger, seconds_to_time(9), seconds_to_time(9));
  ctx.now = seconds_to_time(10);
  EXPECT_EQ(policy.used_slots(ctx), 0u);
}

TEST(SybilState, RotatesIdentityPerPacketKeepsPerIdentitySeqContinuous) {
  const DcfParams params;
  const std::vector<NodeId> aliases = {kSybilAliasBase, kSybilAliasBase + 1,
                                       kSybilAliasBase + 2};
  SybilState state(aliases, params);

  // Packet 1: the first packet stays on identity 0; retries stay with it
  // and keep consuming its sequence stream.
  state.begin_attempt(1);
  EXPECT_EQ(state.current_identity(), aliases[0]);
  EXPECT_EQ(state.current_seq(), 0u);
  state.begin_attempt(1);  // idempotent until consumed
  EXPECT_EQ(state.current_seq(), 0u);
  state.consume();
  state.begin_attempt(2);  // retry: same identity, next offset
  EXPECT_EQ(state.current_identity(), aliases[0]);
  EXPECT_EQ(state.current_seq(), 1u);
  state.consume();

  // Packets 2 and 3 rotate; packet 4 wraps back to identity 0 and resumes
  // its stream at offset 2.
  state.begin_attempt(1);
  EXPECT_EQ(state.current_identity(), aliases[1]);
  EXPECT_EQ(state.current_seq(), 0u);
  state.consume();
  state.begin_attempt(1);
  EXPECT_EQ(state.current_identity(), aliases[2]);
  state.consume();
  state.begin_attempt(1);
  EXPECT_EQ(state.current_identity(), aliases[0]);
  EXPECT_EQ(state.current_seq(), 2u);
  state.consume();
}

TEST(SybilState, DictatedMatchesTheClaimedIdentitysPublicPrs) {
  const DcfParams params;
  const std::vector<NodeId> aliases = {kSybilAliasBase, kSybilAliasBase + 1};
  SybilState state(aliases, params);

  state.begin_attempt(1);
  const VerifiableBackoff prs0(aliases[0], params);
  EXPECT_EQ(state.dictated_slots(), prs0.dictated_slots(0, 1));
  state.consume();
  state.begin_attempt(2);
  EXPECT_EQ(state.dictated_slots(), prs0.dictated_slots(1, 2));
  state.consume();

  state.begin_attempt(1);
  const VerifiableBackoff prs1(aliases[1], params);
  EXPECT_EQ(state.dictated_slots(), prs1.dictated_slots(0, 1));
}

TEST(SybilState, RejectsEmptyIdentityList) {
  const DcfParams params;
  EXPECT_THROW(SybilState({}, params), std::invalid_argument);
}

TEST(PmScaledSlots, ScalesAndRounds) {
  EXPECT_EQ(pm_scaled_slots(20, 0), 20u);
  EXPECT_EQ(pm_scaled_slots(20, 100), 0u);
  EXPECT_EQ(pm_scaled_slots(20, 50), 10u);
  EXPECT_EQ(pm_scaled_slots(21, 50), 11u);  // 10.5 rounds up
  EXPECT_EQ(pm_scaled_slots(0, 50), 0u);
}

}  // namespace
}  // namespace manet::mac

namespace manet::detect {
namespace {

net::ScenarioConfig tiny_grid(double seconds, std::uint64_t seed) {
  net::ScenarioConfig cfg;
  cfg.grid_rows = 3;
  cfg.grid_cols = 4;
  cfg.num_flows = 5;
  cfg.sim_seconds = seconds;
  cfg.seed = seed;
  return cfg;
}

MonitorConfig small_monitor(std::size_t ss = 10) {
  MonitorConfig m;
  m.sample_size = ss;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 3.0;
  m.fixed_contenders = 8.0;
  return m;
}

AttackerSpec spec_of(AttackerKind kind) {
  AttackerSpec spec;
  spec.kind = kind;
  spec.pm = 90;
  spec.group = 3;
  spec.collude_phase_s = 1.0;
  spec.probation_s = 2.0;
  // Dense enough that typical inter-RTS gaps cannot fit a dictated
  // back-off — the regime the gap bound is built for.
  spec.flood_pps = 2000.0;
  return spec;
}

MultiDetectionConfig zoo_config(AttackerKind kind, std::uint64_t seed) {
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(10.0, seed);
  cfg.rate_pps = 25;
  cfg.attacker = spec_of(kind);
  cfg.monitors = {small_monitor(10)};
  if (kind == AttackerKind::kRtsFlood) {
    cfg.monitors[0].rts_gap_bound = true;  // floods anchor no windows otherwise
  }
  cfg.collect_windows = true;
  return cfg;
}

const AttackerKind kZooKinds[] = {AttackerKind::kPm, AttackerKind::kColluding,
                                  AttackerKind::kAdaptive, AttackerKind::kSybil,
                                  AttackerKind::kRtsFlood};

void expect_identical(const MultiDetectionResult& a, const MultiDetectionResult& b,
                      AttackerKind kind) {
  const int k = static_cast<int>(kind);
  EXPECT_EQ(a.measured_rho, b.measured_rho) << "kind " << k;
  ASSERT_EQ(a.per_config.size(), b.per_config.size()) << "kind " << k;
  for (std::size_t i = 0; i < a.per_config.size(); ++i) {
    const auto& x = a.per_config[i];
    const auto& y = b.per_config[i];
    EXPECT_EQ(x.windows, y.windows) << "kind " << k;
    EXPECT_EQ(x.flagged, y.flagged) << "kind " << k;
    EXPECT_EQ(x.flagged_statistical, y.flagged_statistical) << "kind " << k;
    EXPECT_EQ(x.stats, y.stats) << "kind " << k;
    ASSERT_EQ(x.window_log.size(), y.window_log.size()) << "kind " << k;
    for (std::size_t w = 0; w < x.window_log.size(); ++w) {
      EXPECT_EQ(x.window_log[w], y.window_log[w]) << "kind " << k << " window " << w;
    }
  }
}

TEST(AttackerExperiments, SameSeedSameTracePerAttacker) {
  for (AttackerKind kind : kZooKinds) {
    const auto cfg = zoo_config(kind, 11);
    expect_identical(run_multi_detection_experiment(cfg),
                     run_multi_detection_experiment(cfg), kind);
  }
}

TEST(AttackerExperiments, AllPipelinesMatchPerAttacker) {
  // The live batched run against its recorded traces replayed into the
  // scalar reference monitors (private hub each, tests/reference_monitor).
  for (AttackerKind kind : kZooKinds) {
    auto cfg = zoo_config(kind, 23);
    TraceRecorder recorder;
    cfg.trace = &recorder;
    auto live = run_multi_detection_experiment(cfg);
    live.measured_rho = 0.0;  // live-only; replay leaves it 0
    expect_identical(live, reference_replay(recorder, cfg.monitors, cfg.warmup_s),
                     kind);
  }
}

TEST(AttackerExperiments, FirstFlagCountersTrackTheFirstFlaggedWindow) {
  auto cheat = zoo_config(AttackerKind::kPm, 31);
  cheat.scenario.sim_seconds = 15.0;
  const auto flagged = run_multi_detection_experiment(cheat);
  ASSERT_GT(flagged.per_config[0].flagged, 0u);
  EXPECT_NE(flagged.per_config[0].stats.first_flag_time, kTimeNever);
  EXPECT_GE(flagged.per_config[0].stats.windows_to_first_flag, 1u);
  EXPECT_LE(flagged.per_config[0].stats.windows_to_first_flag,
            flagged.per_config[0].windows);

  MultiDetectionConfig honest;
  honest.scenario = tiny_grid(8.0, 31);
  honest.rate_pps = 25;
  honest.monitors = {small_monitor(10)};
  honest.collect_windows = true;
  const auto clean = run_multi_detection_experiment(honest);
  EXPECT_EQ(clean.per_config[0].flagged, 0u);
  EXPECT_EQ(clean.per_config[0].stats.first_flag_time, kTimeNever);
  EXPECT_EQ(clean.per_config[0].stats.windows_to_first_flag, 0u);
}

TEST(AttackerExperiments, RtsFloodOnlyVisibleThroughTheGapBound) {
  auto cfg = zoo_config(AttackerKind::kRtsFlood, 41);
  cfg.monitors[0].rts_gap_bound = false;
  const auto blind = run_multi_detection_experiment(cfg);
  // A pure flood never completes an exchange of its own, so the paper's
  // pipeline only ever judges the handful of flood RTSes that happen to
  // land right after somebody else's exchange (the anchor); nearly every
  // observed RTS is skipped unjudged.
  EXPECT_GT(blind.per_config[0].stats.rts_observed, 0u);
  EXPECT_GT(blind.per_config[0].stats.skipped_no_anchor,
            10 * blind.per_config[0].windows);

  cfg.monitors[0].rts_gap_bound = true;
  const auto armed = run_multi_detection_experiment(cfg);
  EXPECT_GT(armed.per_config[0].windows, 10 * blind.per_config[0].windows);
  EXPECT_GT(armed.per_config[0].flagged, 0u);
  EXPECT_GT(armed.per_config[0].stats.impossible_backoff, 0u);
  // The flood is caught by single-shot gap-bound verdicts: first_flag_time
  // is valid but the window ordinal is reported as 0 / "absent" because a
  // gap-bound flag closes no sample window (see report.hpp).
  EXPECT_NE(armed.per_config[0].stats.first_flag_time, kTimeNever);
  EXPECT_EQ(armed.per_config[0].stats.windows_to_first_flag, 0u);
}

TEST(AttackerExperiments, MobileHandoffRejectsMultiIdentityAttackers) {
  for (AttackerKind kind :
       {AttackerKind::kColluding, AttackerKind::kSybil, AttackerKind::kRtsFlood}) {
    auto cfg = zoo_config(kind, 5);
    cfg.mobile_handoff = true;
    EXPECT_THROW(run_multi_detection_experiment(cfg), std::invalid_argument);
  }
}

}  // namespace
}  // namespace manet::detect
