// Parameterized property suites: invariants swept across configuration
// space with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "detect/wilcoxon.hpp"
#include "geom/region_model.hpp"
#include "mac/backoff.hpp"
#include "mac/dcf.hpp"
#include "net/mobility.hpp"
#include "phy/channel.hpp"
#include "phy/cs_timeline.hpp"
#include "reference_cs_timeline.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace manet {
namespace {

// --- Wilcoxon: validity and power across sample sizes -----------------------

class WilcoxonSampleSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WilcoxonSampleSize, PValueValidUnderNull) {
  const std::size_t n = GetParam();
  util::Xoshiro256ss rng(1000 + n);
  int rejections = 0;
  const int trials = 1500;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x(n), y(n);
    for (auto& v : x) v = rng.uniform();
    for (auto& v : y) v = rng.uniform();
    if (detect::wilcoxon_rank_sum(x, y).p_less <= 0.05) ++rejections;
  }
  // A valid (possibly conservative) test: rejection rate <= alpha + noise.
  EXPECT_LE(rejections / static_cast<double>(trials), 0.05 + 0.02);
}

TEST_P(WilcoxonSampleSize, DetectsAHalvedPopulation) {
  const std::size_t n = GetParam();
  util::Xoshiro256ss rng(2000 + n);
  int rejections = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x(n), y(n);
    for (auto& v : x) v = rng.uniform();
    for (auto& v : y) v = rng.uniform() * 0.5;
    if (detect::wilcoxon_rank_sum(x, y).p_less <= 0.05) ++rejections;
  }
  // Power grows with n; even n=5 has nontrivial power against halving.
  const double power = rejections / static_cast<double>(trials);
  EXPECT_GT(power, n >= 25 ? 0.9 : 0.2) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, WilcoxonSampleSize,
                         ::testing::Values(5, 10, 25, 50, 100));

// --- Region model: invariants across separations ----------------------------

class RegionSeparation : public ::testing::TestWithParam<double> {};

TEST_P(RegionSeparation, AreasAndFractionsAreSane) {
  const double d = GetParam();
  const geom::RegionModel model(d, 550.0);
  const auto& a = model.areas();
  EXPECT_GT(a.a1, 0);
  EXPECT_GT(a.a2, 0);
  EXPECT_GT(a.a3, 0);
  EXPECT_GT(a.a4, 0);
  EXPECT_GT(a.a5, 0);
  EXPECT_NEAR(a.a2, a.a5, 1e-6);
  EXPECT_NEAR(model.p_tx_in_a1() + model.p_tx_in_a2(), 1.0, 1e-12);
  EXPECT_GT(model.p_tx_in_a5(), model.p_tx_in_a5_incl_a3());
  EXPECT_LT(model.p_tx_in_a5_incl_a3(), 1.0);
  // A2 + lens == full disk.
  EXPECT_NEAR(a.a2 + a.a3 + a.a4, 550 * 550 * 3.14159265358979, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Separations, RegionSeparation,
                         ::testing::Values(50.0, 120.0, 240.0, 400.0, 700.0,
                                           1000.0));

// --- PRS: uniformity for every attempt number -------------------------------

class PrsAttempt : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PrsAttempt, DictatedValuesAreUniformOverTheAttemptWindow) {
  const std::uint32_t attempt = GetParam();
  mac::DcfParams params;
  const std::uint32_t cw = params.cw_for_attempt(attempt);
  mac::VerifiableBackoff prs(0xFACE + attempt, params);

  // 16 equal-width bins over [0, cw + 1).
  constexpr std::size_t kBins = 16;
  std::vector<double> counts(kBins, 0.0);
  const std::uint64_t draws = 8000;
  for (std::uint64_t i = 0; i < draws; ++i) {
    const auto v = prs.dictated_slots(i, attempt);
    ASSERT_LE(v, cw);
    const auto bin = static_cast<std::size_t>(
        static_cast<double>(v) / (cw + 1.0) * static_cast<double>(kBins));
    ++counts[std::min(bin, kBins - 1)];
  }
  // Chi-square against uniform, 15 dof: 99.9th percentile ~ 37.7.
  const double expected = static_cast<double>(draws) / kBins;
  double chi2 = 0.0;
  for (double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 37.7) << "attempt " << attempt;
}

INSTANTIATE_TEST_SUITE_P(Attempts, PrsAttempt,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- DCF: exchanges complete for every payload size -------------------------

struct PairPositions : phy::PositionProvider {
  geom::Vec2 position(NodeId node, SimTime) const override {
    return {node * 200.0, 0.0};
  }
};

class DcfPayload : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DcfPayload, RoundTripDeliversEveryPayloadSize) {
  const std::uint32_t payload = GetParam();
  sim::Simulator sim;
  mac::DcfParams params;
  phy::Propagation prop(phy::PropagationParams{}, 1);
  PairPositions positions;
  phy::Channel channel(sim, prop, positions);
  phy::Radio r0(0, channel), r1(1, channel);
  mac::DcfMac m0(sim, r0, params), m1(sim, r1, params);

  for (int i = 0; i < 5; ++i) m0.enqueue(1, payload, 100 + i);
  sim.run_until(5 * kSecond);

  EXPECT_EQ(m1.stats().packets_delivered, 5u);
  EXPECT_EQ(m0.stats().retry_drops, 0u);
  // Airtime grows with payload.
  EXPECT_GT(params.data_airtime(payload + 100), params.data_airtime(payload));
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, DcfPayload,
                         ::testing::Values(64u, 256u, 512u, 1024u, 2048u));

// --- Random waypoint: bounds hold for every pause time ----------------------

class RwpPause : public ::testing::TestWithParam<double> {};

TEST_P(RwpPause, PositionsStayInFieldForPaperPauseTimes) {
  net::RandomWaypointParams params;
  params.width = 3000;
  params.height = 3000;
  params.pause = seconds_to_time(GetParam());
  net::RandomWaypoint rwp({{1500, 1500}, {10, 10}}, params, 99);
  for (int t = 0; t <= 300; t += 3) {
    for (NodeId n = 0; n < 2; ++n) {
      const geom::Vec2 p = rwp.position(n, t * kSecond);
      EXPECT_GE(p.x, 0);
      EXPECT_LE(p.x, 3000);
      EXPECT_GE(p.y, 0);
      EXPECT_LE(p.y, 3000);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperPauseTimes, RwpPause,
                         ::testing::Values(0.0, 50.0, 100.0, 200.0, 300.0));

// --- Misbehavior policies: monotone gain in channel access ------------------

class PmSweep : public ::testing::TestWithParam<double> {};

TEST_P(PmSweep, UsedSlotsNeverExceedDictated) {
  const double pm = GetParam();
  mac::PercentMisbehavior policy(pm);
  mac::DcfParams params;
  mac::VerifiableBackoff prs(5, params);
  for (std::uint64_t i = 0; i < 500; ++i) {
    mac::BackoffContext ctx;
    ctx.dictated_slots = prs.dictated_slots(i, 1 + (i % 7));
    const auto used = policy.used_slots(ctx);
    EXPECT_LE(used, ctx.dictated_slots);
    // Within rounding of the definition: used ~= dictated * (100-pm)/100.
    EXPECT_NEAR(used, ctx.dictated_slots * (100.0 - pm) / 100.0, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(PmValues, PmSweep,
                         ::testing::Values(10.0, 25.0, 50.0, 65.0, 80.0, 90.0,
                                           100.0));

// --- CsTimeline: single-sweep queries agree with the reference oracle --------
//
// The optimized busy_time / countable_idle_time / count_slots / outage_time
// share one merged cursor walk; the *_reference functions
// (tests/reference_cs_timeline.hpp) are the verbatim pre-optimization
// implementations. Random transition histories — redundant
// edges, outage overlap, short retention so windows straddle the pruning
// horizon — must produce identical answers from both.

class CsTimelineOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsTimelineOracle, SweepQueriesMatchReference) {
  util::Xoshiro256ss rng(GetParam());
  phy::CsTimeline tl(2 * kSecond);  // short retention exercises pruning
  SimTime t = 0;
  bool busy = false;
  bool deaf = false;
  int queries = 0;
  for (int step = 0; step < 6000; ++step) {
    t += 1 + static_cast<SimTime>(rng.uniform_int(3 * kMillisecond));
    const double r = rng.uniform();
    if (r < 0.40) {
      busy = !busy;
      tl.on_carrier(busy, t);
    } else if (r < 0.50) {
      deaf = !deaf;
      tl.on_outage(deaf, t);
    } else if (r < 0.58) {
      tl.on_carrier(busy, t);  // redundant edge: must be a no-op
    } else {
      // Query windows deliberately straddle the pruning horizon, the live
      // edge, and empty ranges.
      SimTime from = t > 3 * kSecond ? t - 3 * kSecond : 0;
      from += static_cast<SimTime>(rng.uniform_int(3 * kSecond));
      const SimTime to = from + static_cast<SimTime>(rng.uniform_int(60 * kMillisecond));
      const phy::CsTimelineSnapshot snap = tl.snapshot();
      EXPECT_EQ(tl.busy_time(from, to), phy::busy_time_reference(snap, from, to));
      EXPECT_EQ(tl.outage_time(from, to), phy::outage_time_reference(snap, from, to));
      const SimDuration difs = 10 + static_cast<SimDuration>(rng.uniform_int(100));
      EXPECT_EQ(tl.countable_idle_time(from, to, difs),
                phy::countable_idle_time_reference(snap, from, to, difs));
      const SimDuration slot = 20 * (1 + static_cast<SimDuration>(rng.uniform_int(1000)));
      const phy::SlotCounts a = tl.count_slots(from, to, slot);
      const phy::SlotCounts b = phy::count_slots_reference(snap, from, to, slot);
      EXPECT_EQ(a.busy, b.busy) << "from=" << from << " to=" << to << " slot=" << slot;
      EXPECT_EQ(a.idle, b.idle);
      EXPECT_EQ(a.idle_periods, b.idle_periods);
      ++queries;
    }
  }
  EXPECT_GT(queries, 1000);  // the trial actually exercised the queries
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsTimelineOracle,
                         ::testing::Values(11u, 12u, 13u, 14u));

}  // namespace
}  // namespace manet
