#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "detect/arma.hpp"
#include "detect/density.hpp"
#include "detect/monitor.hpp"
#include "detect/report.hpp"
#include "detect/system_state.hpp"
#include "detect/wilcoxon.hpp"
#include "geom/region_model.hpp"
#include "mac/dcf.hpp"
#include "phy/channel.hpp"
#include "reference_wilcoxon.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace manet::detect {
namespace {

// --- ARMA (Eq. 6) -----------------------------------------------------------

TEST(Arma, FirstBatchPrimesFilter) {
  ArmaIntensityFilter f(0.995);
  EXPECT_FALSE(f.primed());
  EXPECT_DOUBLE_EQ(f.intensity(), 0.0);
  f.add_batch(0.4);
  EXPECT_TRUE(f.primed());
  EXPECT_DOUBLE_EQ(f.intensity(), 0.4);
}

TEST(Arma, ConvergesToStationaryBusyFraction) {
  ArmaIntensityFilter f(0.995);
  util::Xoshiro256ss rng(1);
  for (int i = 0; i < 5000; ++i) f.add_batch(rng.bernoulli(0.6) ? 1.0 : 0.0);
  EXPECT_NEAR(f.intensity(), 0.6, 0.05);
}

TEST(Arma, TracksLoadChanges) {
  ArmaIntensityFilter f(0.99);
  for (int i = 0; i < 2000; ++i) f.add_batch(0.2);
  EXPECT_NEAR(f.intensity(), 0.2, 1e-6);
  for (int i = 0; i < 2000; ++i) f.add_batch(0.8);
  EXPECT_NEAR(f.intensity(), 0.8, 1e-6);
}

TEST(Arma, InsensitiveToAlphaNearOne) {
  // The paper: "results are not very sensitive to alpha as long as it is
  // close to 1."
  for (double alpha : {0.99, 0.995, 0.999}) {
    ArmaIntensityFilter f(alpha);
    util::Xoshiro256ss rng(2);
    for (int i = 0; i < 20000; ++i) f.add_batch(rng.bernoulli(0.5) ? 1.0 : 0.0);
    EXPECT_NEAR(f.intensity(), 0.5, 0.05) << "alpha=" << alpha;
  }
}

TEST(Arma, ClampsOutOfRangeBatches) {
  ArmaIntensityFilter f(0.9);
  f.add_batch(7.0);
  EXPECT_DOUBLE_EQ(f.intensity(), 1.0);
  ArmaIntensityFilter g(0.9);
  g.add_batch(-3.0);
  EXPECT_DOUBLE_EQ(g.intensity(), 0.0);
}

TEST(Arma, AddSlotsAggregatesBatch) {
  ArmaIntensityFilter f(0.995);
  f.add_slots(30, 100);
  EXPECT_DOUBLE_EQ(f.intensity(), 0.3);
  f.add_slots(0, 0);  // ignored
  EXPECT_DOUBLE_EQ(f.intensity(), 0.3);
}

// --- Density -----------------------------------------------------------------

TEST(Density, CountsDistinctTransmittersInWindow) {
  HeardTransmitterDensity d(1 * kSecond, 250.0);
  d.heard(1, 0);
  d.heard(2, 100 * kMillisecond);
  d.heard(1, 200 * kMillisecond);  // repeat
  EXPECT_EQ(d.competitors(300 * kMillisecond), 2u);
  // Node 1 last heard at 0.2 s: expires after 1.2 s.
  EXPECT_EQ(d.competitors(1300 * kMillisecond), 0u);
}

TEST(Density, DensityScalesWithCount) {
  HeardTransmitterDensity d(10 * kSecond, 250.0);
  for (NodeId i = 0; i < 10; ++i) d.heard(i, 0);
  const double area = std::numbers::pi * 250.0 * 250.0;
  EXPECT_NEAR(d.density(1 * kSecond), 10.0 / area, 1e-12);
}

TEST(Density, BianchiInversionIsMonotone) {
  // More competitors -> higher collision probability -> the inversion must
  // recover larger n from larger p.
  const auto n_low = estimate_competitors_from_collisions(0.05, 31);
  const auto n_mid = estimate_competitors_from_collisions(0.20, 31);
  const auto n_high = estimate_competitors_from_collisions(0.45, 31);
  EXPECT_LE(n_low, n_mid);
  EXPECT_LE(n_mid, n_high);
  EXPECT_GE(n_high, 10u);
  EXPECT_LE(n_low, 4u);
}

// --- System state (Eqs. 1-5) --------------------------------------------------

SystemStateParams paper_params(double rho, ActivityMapping mapping) {
  SystemStateParams p;
  p.rho = rho;
  p.mapping = mapping;
  p.k = p.n = p.m = p.j = 5;  // the paper's grid setting
  p.contenders = 20;
  return p;
}

TEST(SystemState, PBusyGivenIdleIncreasesWithIntensity) {
  const geom::RegionModel regions(240, 550);
  const SystemStateModel model(regions);
  double prev = -1;
  for (double rho = 0.1; rho <= 0.85; rho += 0.1) {
    const double p = model.p_busy_given_idle(paper_params(rho, ActivityMapping::kPerSlot));
    EXPECT_GT(p, prev);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
}

TEST(SystemState, PIdleGivenBusyDecreasesWithIntensity) {
  const geom::RegionModel regions(240, 550);
  const SystemStateModel model(regions);
  double prev = 2;
  for (double rho = 0.1; rho <= 0.85; rho += 0.1) {
    const double p = model.p_idle_given_busy(paper_params(rho, ActivityMapping::kPerSlot));
    EXPECT_LT(p, prev);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
}

TEST(SystemState, Equation5Complement) {
  const geom::RegionModel regions(240, 550);
  const SystemStateModel model(regions);
  const auto p = paper_params(0.5, ActivityMapping::kPerSlot);
  EXPECT_DOUBLE_EQ(model.p_idle_given_idle(p), 1.0 - model.p_busy_given_idle(p));
}

TEST(SystemState, EstimatedSlotsPartitionTheWindow) {
  const geom::RegionModel regions(240, 550);
  const SystemStateModel model(regions);
  const auto p = paper_params(0.4, ActivityMapping::kPerSlot);
  const double idle = 70, busy = 30;
  const double iest = model.estimated_idle(p, idle, busy);
  const double best = model.estimated_busy(p, idle, busy);
  EXPECT_NEAR(iest + best, idle + busy, 1e-9);  // Eq. 2
  EXPECT_GE(iest, 0);
  EXPECT_LE(iest, idle + busy);
}

TEST(SystemState, ActivityMappingsAgreeAtExtremes) {
  const geom::RegionModel regions(240, 550);
  const SystemStateModel model(regions);
  for (auto mapping : {ActivityMapping::kIdentity, ActivityMapping::kPerSlot}) {
    auto p = paper_params(0.0, mapping);
    EXPECT_DOUBLE_EQ(model.activity(p), 0.0);
    p.rho = 1.0;
    EXPECT_NEAR(model.activity(p), 1.0, 1e-9);
  }
}

TEST(SystemState, PerSlotMappingDampensMidRangeActivity) {
  const geom::RegionModel regions(240, 550);
  const SystemStateModel model(regions);
  const auto ident = paper_params(0.5, ActivityMapping::kIdentity);
  const auto per_slot = paper_params(0.5, ActivityMapping::kPerSlot);
  EXPECT_LT(model.activity(per_slot), model.activity(ident));
}

TEST(SystemState, MoreNeighborsRaiseBusyProbability) {
  const geom::RegionModel regions(240, 550);
  const SystemStateModel model(regions);
  auto sparse = paper_params(0.5, ActivityMapping::kPerSlot);
  auto dense = sparse;
  dense.n = dense.k = 15;
  EXPECT_GT(model.p_busy_given_idle(dense), model.p_busy_given_idle(sparse));
}

TEST(SystemState, SharedModelMemoMatchesPrivateModelsBitForBit) {
  // The batched pipeline evaluates Eq. 1-5 through ONE model per
  // config-group where the scalar pipeline owned one model per monitor.
  // The memo keys on exact parameter equality, so interleaving several
  // lanes' (identical or differing) parameter streams through a shared
  // instance must return the identical doubles each private instance
  // produces — hits and misses alike.
  const geom::RegionModel regions(240, 550);
  const SystemStateModel shared(regions);
  const SystemStateModel private_a(regions);
  const SystemStateModel private_b(regions);
  for (double rho = 0.05; rho <= 0.9; rho += 0.07) {
    auto pa = paper_params(rho, ActivityMapping::kPerSlot);
    auto pb = paper_params(rho, ActivityMapping::kPerSlot);
    pb.contenders = 8;  // lane B keys a different point at the same rho
    for (int repeat = 0; repeat < 3; ++repeat) {  // memo hits on 2nd/3rd
      const auto& sa = shared.conditional_probs(pa);
      const auto& ra = private_a.conditional_probs(pa);
      EXPECT_EQ(sa.p_busy_given_idle, ra.p_busy_given_idle);
      EXPECT_EQ(sa.p_idle_given_busy, ra.p_idle_given_busy);
      EXPECT_EQ(sa.p_idle_given_idle, ra.p_idle_given_idle);
      const auto& sb = shared.conditional_probs(pb);
      const auto& rb = private_b.conditional_probs(pb);
      EXPECT_EQ(sb.p_busy_given_idle, rb.p_busy_given_idle);
      EXPECT_EQ(sb.p_idle_given_busy, rb.p_idle_given_busy);
      EXPECT_EQ(sb.p_idle_given_idle, rb.p_idle_given_idle);
    }
  }
}

// --- Wilcoxon rank sum ---------------------------------------------------------

TEST(Wilcoxon, ExactExtremeSeparationSmallSample) {
  // x = {4,5,6}, y = {1,2,3}: y holds the three smallest ranks.
  // P(W_y <= 6) = 1 / C(6,3) = 0.05.
  const std::vector<double> x{4, 5, 6}, y{1, 2, 3};
  const auto r = wilcoxon_rank_sum(x, y);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.w_y, 6.0);
  EXPECT_NEAR(r.p_less, 0.05, 1e-12);

  // Swapped: y holds the three largest ranks, P(W <= 15) = 1. This is
  // also P(W_y >= 6) of the unswapped test, and with the 0.05 above (the
  // swapped test's P(W >= 15)) the two-sided p-value is 0.1.
  const auto r2 = wilcoxon_rank_sum(y, x);
  EXPECT_NEAR(r2.p_less, 1.0, 1e-12);
  EXPECT_NEAR(std::min(1.0, 2.0 * std::min(r.p_less, r2.p_less)), 0.1, 1e-12);
}

TEST(Wilcoxon, ExactMatchesHandComputedDistribution) {
  // nx = ny = 2, ranks {1,2,3,4}, C(4,2)=6 subsets with sums
  // 3,4,5,5,6,7. For y = {10,20} vs x = {30,40}: W_y = 3.
  const std::vector<double> x{30, 40}, y{10, 20};
  const auto r = wilcoxon_rank_sum(x, y);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.p_less, 1.0 / 6.0, 1e-12);   // P(W <= 3)
  // For y={10,30} vs x={20,40}: ranks y={1,3}, W=4, P(W<=4)=2/6.
  const std::vector<double> x2{20, 40}, y2{10, 30};
  const auto r2 = wilcoxon_rank_sum(x2, y2);
  EXPECT_NEAR(r2.p_less, 2.0 / 6.0, 1e-12);
}

TEST(Wilcoxon, IdenticalSamplesAreNotSignificant) {
  const std::vector<double> x{5, 5, 5, 5, 5};
  const std::vector<double> y{5, 5, 5, 5, 5};
  EXPECT_GT(wilcoxon_rank_sum(x, y).p_less, 0.4);
  EXPECT_GT(wilcoxon_rank_sum(y, x).p_less, 0.4);
}

TEST(Wilcoxon, HandlesTiesViaMidranks) {
  const std::vector<double> x{1, 2, 2, 3}, y{2, 2, 2, 4};
  const auto r = wilcoxon_rank_sum(x, y);
  EXPECT_GT(r.p_less, 0.05);  // no real separation
  EXPECT_LE(r.p_less, 1.0);
  EXPECT_GE(wilcoxon_rank_sum(y, x).p_less, 0.0);
}

TEST(Wilcoxon, ApproxAndExactAgreeOnMediumSamples) {
  util::Xoshiro256ss rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 15; ++i) x.push_back(rng.normal(0, 1));
  for (int i = 0; i < 15; ++i) y.push_back(rng.normal(-0.8, 1));

  WilcoxonOptions exact_opts;
  exact_opts.exact_max_total = 40;
  WilcoxonOptions approx_opts;
  approx_opts.exact_max_total = 0;

  const auto ex = wilcoxon_rank_sum(x, y, exact_opts);
  const auto ap = wilcoxon_rank_sum(x, y, approx_opts);
  EXPECT_TRUE(ex.exact);
  EXPECT_FALSE(ap.exact);
  EXPECT_NEAR(ex.p_less, ap.p_less, 0.02);
}

TEST(Wilcoxon, DetectsStochasticallySmallerSample) {
  util::Xoshiro256ss rng(4);
  std::vector<double> x, y;
  for (int i = 0; i < 25; ++i) {
    x.push_back(rng.uniform(0, 32));
    y.push_back(rng.uniform(0, 32) * 0.3);  // strongly reduced back-offs
  }
  const auto r = wilcoxon_rank_sum(x, y);
  EXPECT_LT(r.p_less, 0.001);
  EXPECT_GT(wilcoxon_rank_sum(y, x).p_less, 0.5);
}

TEST(Wilcoxon, PValuesValidUnderNullHypothesis) {
  // Under H0 (identical continuous populations), P(p_less <= 0.05) <= ~0.05.
  util::Xoshiro256ss rng(5);
  int rejections = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x, y;
    for (int i = 0; i < 10; ++i) x.push_back(rng.uniform());
    for (int i = 0; i < 10; ++i) y.push_back(rng.uniform());
    if (wilcoxon_rank_sum(x, y).p_less <= 0.05) ++rejections;
  }
  const double rate = rejections / static_cast<double>(trials);
  EXPECT_LE(rate, 0.065);
  EXPECT_GE(rate, 0.02);
}

TEST(Wilcoxon, PowerGrowsWithSampleSize) {
  util::Xoshiro256ss rng(6);
  auto power = [&](int n) {
    int hits = 0;
    for (int t = 0; t < 300; ++t) {
      std::vector<double> x, y;
      for (int i = 0; i < n; ++i) {
        x.push_back(rng.uniform(0, 32));
        y.push_back(rng.uniform(0, 32) * 0.7);
      }
      if (wilcoxon_rank_sum(x, y).p_less < 0.01) ++hits;
    }
    return hits / 300.0;
  };
  const double p10 = power(10);
  const double p50 = power(50);
  EXPECT_GT(p50, p10);
  EXPECT_GT(p50, 0.55);
}

TEST(Wilcoxon, ThrowsOnEmptySample) {
  const std::vector<double> x{1, 2, 3}, empty;
  EXPECT_THROW(wilcoxon_rank_sum(x, empty), std::invalid_argument);
  EXPECT_THROW(wilcoxon_rank_sum(empty, x), std::invalid_argument);
}

TEST(Wilcoxon, AllValuesTiedDegenerateVariance) {
  // Large tied samples fall through to the approx path with zero variance.
  const std::vector<double> x(30, 7.0), y(30, 7.0);
  const auto r = wilcoxon_rank_sum(x, y);
  EXPECT_FALSE(r.exact);
  EXPECT_DOUBLE_EQ(r.p_less, 1.0);
  EXPECT_DOUBLE_EQ(wilcoxon_rank_sum(y, x).p_less, 1.0);
}

TEST(Wilcoxon, ScratchReuseMatchesReferenceBitForBit) {
  // The allocation-free path (reused scratch, tail-only integer counts,
  // single-pass midranks) must reproduce the pre-optimization oracle
  // exactly — every field it still carries, exact and approximate
  // branches, heavy ties included. The scratch is deliberately reused
  // across wildly different sample sizes to catch stale-buffer bugs.
  util::Xoshiro256ss rng(99);
  WilcoxonScratch scratch;
  const std::size_t sizes[][2] = {{1, 1},  {3, 5},   {10, 10}, {20, 20},
                                  {7, 33}, {25, 25}, {50, 50}, {4, 4}};
  for (int round = 0; round < 20; ++round) {
    for (const auto& s : sizes) {
      std::vector<double> x, y;
      // Quantized values force tie groups (back-off slot counts are
      // integers in practice); occasionally use continuous values.
      const bool quantize = (round % 3) != 0;
      for (std::size_t i = 0; i < s[0]; ++i) {
        const double v = rng.uniform(0, 16);
        x.push_back(quantize ? std::floor(v) : v);
      }
      for (std::size_t i = 0; i < s[1]; ++i) {
        const double v = rng.uniform(0, 16) * 0.8;
        y.push_back(quantize ? std::floor(v) : v);
      }
      const auto fast = wilcoxon_rank_sum(x, y, WilcoxonOptions{}, scratch);
      const auto ref = wilcoxon_rank_sum_reference(x, y);
      EXPECT_EQ(fast.exact, ref.exact);
      EXPECT_EQ(fast.w_y, ref.w_y);
      EXPECT_EQ(fast.p_less, ref.p_less);
      EXPECT_EQ(fast.z, ref.z);
      // The upper tail is the lower tail of the swapped test: the same
      // count over the same total on the exact path.
      if (ref.exact) {
        EXPECT_EQ(wilcoxon_rank_sum(y, x, WilcoxonOptions{}, scratch).p_less,
                  ref.p_greater);
      }
    }
  }
}

TEST(Wilcoxon, BatchMatchesScalarBitForBit) {
  // wilcoxon_rank_sum_batch applies the margin shift into shared scratch,
  // but each item is an independent test: results[i] must equal the
  // scalar wilcoxon_rank_sum(x_i, y_i + shift_i) call it replaces, field
  // for field, under heavy scratch reuse across mixed exact/approx sizes.
  util::Xoshiro256ss rng(123);
  WilcoxonScratch batch_scratch;
  WilcoxonScratch scalar_scratch;
  for (int round = 0; round < 10; ++round) {
    const std::size_t sizes[][2] = {{25, 25}, {3, 5},  {10, 10}, {1, 1},
                                    {50, 50}, {7, 33}, {20, 20}};
    std::vector<std::vector<double>> xs, ys;
    std::vector<WilcoxonBatchItem> items;
    std::vector<double> shifts;
    for (const auto& s : sizes) {
      std::vector<double> x, y;
      const bool quantize = (round % 3) != 0;
      for (std::size_t i = 0; i < s[0]; ++i) {
        const double v = rng.uniform(0, 16);
        x.push_back(quantize ? std::floor(v) : v);
      }
      for (std::size_t i = 0; i < s[1]; ++i) {
        const double v = rng.uniform(0, 16) * 0.8;
        y.push_back(quantize ? std::floor(v) : v);
      }
      xs.push_back(std::move(x));
      ys.push_back(std::move(y));
      shifts.push_back(rng.uniform(0, 0.25));
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
      WilcoxonBatchItem item;
      item.x = xs[i];
      item.y = ys[i];
      item.shift = shifts[i];
      items.push_back(item);
    }
    std::vector<RankSumResult> results(items.size());
    wilcoxon_rank_sum_batch(items, results, batch_scratch);
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::vector<double> shifted(ys[i]);
      for (double& v : shifted) v += shifts[i];
      const auto ref =
          wilcoxon_rank_sum(xs[i], shifted, WilcoxonOptions{}, scalar_scratch);
      EXPECT_EQ(results[i].exact, ref.exact) << "item " << i;
      EXPECT_EQ(results[i].w_y, ref.w_y) << "item " << i;
      EXPECT_EQ(results[i].p_less, ref.p_less) << "item " << i;
      EXPECT_EQ(results[i].z, ref.z) << "item " << i;
    }
  }
}

/// y whose midranks sum to exactly ny (n + 1) / 2, the middle of the null
/// distribution: rank pairs (k, n + 1 - k), plus the middle rank (n + 1) / 2
/// when ny is odd (for even n, two tied middle values split across x and y).
void fill_middle_rank_sum(std::size_t nx, std::size_t ny, std::vector<double>& x,
                          std::vector<double>& y) {
  const std::size_t n = nx + ny;
  std::vector<double> values(n);
  for (std::size_t k = 0; k < n; ++k) values[k] = static_cast<double>(k + 1);
  if (n % 2 == 0) values[n / 2] = values[n / 2 - 1];  // tie the middle pair
  std::vector<char> in_y(n, 0);
  for (std::size_t k = 0; k < ny / 2; ++k) in_y[k] = in_y[n - 1 - k] = 1;
  if (ny % 2 == 1) in_y[(n - 1) / 2] = 1;
  x.clear();
  y.clear();
  for (std::size_t k = 0; k < n; ++k) (in_y[k] ? y : x).push_back(values[k]);
}

TEST(Wilcoxon, ExactTailMatchesFullDistributionForEverySize) {
  // The tail-only integer count must give p_less bit-equal to the oracle's
  // full double-precision null distribution, for every exact size
  // nx + ny <= 40 (nx != ny included) and every shape of input: untied,
  // quantized (tied), all tied, an observed sum exactly at the middle, and
  // both extreme tails. One scratch serves every size.
  util::Xoshiro256ss rng(2024);
  WilcoxonScratch scratch;
  const WilcoxonOptions options;
  std::vector<double> x, y;
  const auto check = [&](const char* shape) {
    ASSERT_LE(x.size() + y.size(), options.exact_max_total);
    const auto fast = wilcoxon_rank_sum(x, y, options, scratch);
    const auto ref = wilcoxon_rank_sum_reference(x, y, options);
    ASSERT_TRUE(fast.exact);
    EXPECT_EQ(fast.w_y, ref.w_y) << shape << " nx=" << x.size() << " ny=" << y.size();
    EXPECT_EQ(fast.p_less, ref.p_less)
        << shape << " nx=" << x.size() << " ny=" << y.size();
  };
  for (std::size_t n = 2; n <= options.exact_max_total; ++n) {
    for (std::size_t nx = 1; nx < n; ++nx) {
      const std::size_t ny = n - nx;
      x.clear();
      y.clear();
      for (std::size_t i = 0; i < nx; ++i) x.push_back(rng.uniform(0, 32));
      for (std::size_t i = 0; i < ny; ++i) y.push_back(rng.uniform(0, 32) * 0.8);
      check("untied");

      for (double& v : x) v = std::floor(v / 6.0);
      for (double& v : y) v = std::floor(v / 6.0);
      check("quantized");

      std::fill(x.begin(), x.end(), 3.0);
      std::fill(y.begin(), y.end(), 3.0);
      check("all tied");

      fill_middle_rank_sum(nx, ny, x, y);
      ASSERT_EQ(wilcoxon_rank_sum(x, y, options, scratch).w_y * 2.0,
                static_cast<double>(ny * (n + 1)));
      check("middle");

      for (std::size_t i = 0; i < nx; ++i) x[i] = static_cast<double>(100 + i);
      for (std::size_t i = 0; i < ny; ++i) y[i] = static_cast<double>(i);
      check("lowest y");
      for (std::size_t i = 0; i < nx; ++i) x[i] = static_cast<double>(i);
      for (std::size_t i = 0; i < ny; ++i) y[i] = static_cast<double>(100 + i);
      check("highest y");
    }
  }
}

TEST(Wilcoxon, RejectsExactLimitAboveExactCounts) {
  // C(56, 28) < 2^53 <= C(57, 28): above 56 the tail counts could stop
  // matching a double-precision distribution, so the option is refused.
  const std::vector<double> x{1, 2, 3}, y{4, 5, 6};
  WilcoxonOptions options;
  options.exact_max_total = kMaxExactTotal + 1;
  EXPECT_THROW(wilcoxon_rank_sum(x, y, options), std::invalid_argument);

  // At the limit itself the largest exact test still matches the oracle.
  options.exact_max_total = kMaxExactTotal;
  util::Xoshiro256ss rng(56);
  std::vector<double> big_x, big_y;
  for (int i = 0; i < 28; ++i) {
    big_x.push_back(std::floor(rng.uniform(0, 20)));
    big_y.push_back(std::floor(rng.uniform(0, 20) * 0.9));
  }
  const auto fast = wilcoxon_rank_sum(big_x, big_y, options);
  const auto ref = wilcoxon_rank_sum_reference(big_x, big_y, options);
  EXPECT_TRUE(fast.exact);
  EXPECT_EQ(fast.p_less, ref.p_less);
  EXPECT_EQ(wilcoxon_rank_sum(big_y, big_x, options).p_less, ref.p_greater);
}

// --- Monitor end-to-end on a bare PHY -----------------------------------------

struct FixedPositions : phy::PositionProvider {
  explicit FixedPositions(std::vector<geom::Vec2> p) : pos(std::move(p)) {}
  std::vector<geom::Vec2> pos;
  geom::Vec2 position(NodeId node, SimTime) const override { return pos.at(node); }
};

struct MonitorFixture {
  // S at node 0, monitor R at node 1, 200 m apart, clean channel.
  MonitorFixture() : prop(phy::PropagationParams{}, 3),
                     positions({{0, 0}, {200, 0}}),
                     channel(sim, prop, positions) {
    for (NodeId i = 0; i < 2; ++i) {
      radios.push_back(std::make_unique<phy::Radio>(i, channel));
      macs.push_back(std::make_unique<mac::DcfMac>(sim, *radios.back(), params));
      timelines.push_back(std::make_unique<phy::CsTimeline>());
      radios.back()->add_listener(timelines.back().get());
    }
  }

  Monitor& attach_monitor(MonitorConfig cfg) {
    cfg.separation_m = 200;
    monitor = MonitorFactory(sim, *macs[1], *timelines[1]).watch(0, cfg);
    return *monitor;
  }

  /// Keeps the sender's queue topped up until `until`.
  void keep_feeding(SimTime until, std::uint64_t base) {
    next_id = base;
    feeder = [this, until] {
      for (int i = 0; i < 10; ++i) macs[0]->enqueue(1, 512, next_id++);
      if (sim.now() < until) sim.after(100 * kMillisecond, feeder);
    };
    sim.at(sim.now(), feeder);
  }

  sim::Simulator sim;
  mac::DcfParams params;
  phy::Propagation prop;
  FixedPositions positions;
  phy::Channel channel;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<phy::CsTimeline>> timelines;
  std::unique_ptr<Monitor> monitor;
  std::function<void()> feeder;
  std::uint64_t next_id = 1;
};

TEST(Monitor, HonestSenderProducesNoFlags) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.sample_size = 10;
  Monitor& mon = f.attach_monitor(cfg);
  f.keep_feeding(10 * kSecond, 1);
  f.sim.run_until(10 * kSecond);

  EXPECT_GT(mon.stats().samples, 50u);
  EXPECT_GT(mon.stats().windows, 4u);
  EXPECT_EQ(mon.stats().flagged_windows, 0u);
  EXPECT_EQ(mon.stats().seq_off_violations, 0u);
  EXPECT_EQ(mon.stats().attempt_violations, 0u);
  EXPECT_EQ(mon.stats().impossible_backoff, 0u);
}

TEST(Monitor, FullMisbehaviorIsFlaggedFast) {
  MonitorFixture f;
  f.macs[0]->set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(90.0));
  MonitorConfig cfg;
  cfg.sample_size = 10;
  Monitor& mon = f.attach_monitor(cfg);
  f.keep_feeding(10 * kSecond, 1);
  f.sim.run_until(10 * kSecond);

  EXPECT_GT(mon.stats().windows, 4u);
  EXPECT_EQ(mon.stats().flagged_windows, mon.stats().windows);
  EXPECT_GT(mon.stats().impossible_backoff, 0u);  // blatant at PM=90
  EXPECT_NEAR(mon.flag_rate(), 1.0, 1e-9);
}

TEST(Monitor, FrozenSeqOffsetIsDeterministicallyCaught) {
  MonitorFixture f;
  f.macs[0]->set_announce_policy(std::make_unique<mac::FrozenSeqOffAnnounce>(3));
  MonitorConfig cfg;
  Monitor& mon = f.attach_monitor(cfg);
  f.keep_feeding(5 * kSecond, 1);
  f.sim.run_until(5 * kSecond);

  EXPECT_GT(mon.stats().rts_observed, 10u);
  EXPECT_GT(mon.stats().seq_off_violations, 8u);
}

TEST(Monitor, InactiveMonitorIgnoresTraffic) {
  MonitorFixture f;
  MonitorConfig cfg;
  Monitor& mon = f.attach_monitor(cfg);
  mon.set_active(false);
  f.keep_feeding(3 * kSecond, 1);
  f.sim.run_until(3 * kSecond);
  EXPECT_EQ(mon.stats().rts_observed, 0u);
  EXPECT_EQ(mon.stats().samples, 0u);

  mon.set_active(true);
  f.keep_feeding(6 * kSecond, 100000);
  f.sim.run_until(6 * kSecond);
  EXPECT_GT(mon.stats().rts_observed, 0u);
}

TEST(Monitor, TracksTrafficIntensityOnline) {
  MonitorFixture f;
  MonitorConfig cfg;
  Monitor& mon = f.attach_monitor(cfg);
  f.keep_feeding(10 * kSecond, 1);
  f.sim.run_until(10 * kSecond);
  // Saturated two-node link: the channel is busy most of the time.
  const double direct = f.timelines[1]->busy_fraction(5 * kSecond, 10 * kSecond);
  EXPECT_NEAR(mon.traffic_intensity(), direct, 0.15);
  EXPECT_GT(mon.traffic_intensity(), 0.3);
}


TEST(Monitor, CleanWindowFilterRejectsQueueGaps) {
  // A slow source (queue empty between packets) produces mostly gap
  // windows; the filter must reject them rather than let them pollute the
  // sample population.
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.record_samples = true;
  Monitor& mon = f.attach_monitor(cfg);
  // ~20 packets/s: inter-arrival 50 ms >> CW, so first-attempt windows
  // after an idle queue are gap windows.
  std::function<void()> slow = [&] {
    f.macs[0]->enqueue(1, 512, f.next_id++);
    if (f.sim.now() < 10 * kSecond) f.sim.after(50 * kMillisecond, slow);
  };
  f.sim.at(0, slow);
  f.sim.run_until(10 * kSecond);

  EXPECT_GT(mon.stats().skipped_queue_gap, 100u);
  // Accepted samples (if any) stayed within CW + slack.
  for (const auto& rec : mon.sample_log()) {
    if (!rec.accepted) continue;
    EXPECT_LE(rec.observed, 31.0 + cfg.queue_gap_slack_slots + 1e-9);
  }
  EXPECT_EQ(mon.stats().flagged_windows, 0u);
}

TEST(Monitor, SaturatedHonestSamplesMatchDictatedExactly) {
  // Clean channel + backlogged sender: every accepted sample must satisfy
  // y == x exactly (the estimator accounting is exact; see also the
  // two-node harness in bench/ablation_estimator).
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.record_samples = true;
  Monitor& mon = f.attach_monitor(cfg);
  f.keep_feeding(10 * kSecond, 1);
  f.sim.run_until(10 * kSecond);

  std::size_t accepted = 0;
  for (const auto& rec : mon.sample_log()) {
    if (!rec.accepted) continue;
    ++accepted;
    EXPECT_NEAR(rec.observed, rec.expected, 1e-6);
  }
  EXPECT_GT(accepted, 100u);
}

TEST(Monitor, RetryCheaterCaughtByAttemptCheck) {
  // Hidden-terminal line (see examples/misbehavior_zoo): S's collisions at
  // R force retransmissions; the stuck-Attempt# cheater is then caught by
  // the MD5/Attempt check even though its timing matches its announcement.
  sim::Simulator sim;
  mac::DcfParams params;
  phy::Propagation prop(phy::PropagationParams{}, 1);
  struct Line : phy::PositionProvider {
    geom::Vec2 position(NodeId n, SimTime) const override {
      static constexpr double xs[] = {0, 200, 600, 800};
      return {xs[n], 0};
    }
  } positions;
  phy::Channel channel(sim, prop, positions);
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<phy::CsTimeline>> timelines;
  for (NodeId i = 0; i < 4; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(i, channel));
    macs.push_back(std::make_unique<mac::DcfMac>(sim, *radios.back(), params));
    timelines.push_back(std::make_unique<phy::CsTimeline>());
    radios.back()->add_listener(timelines.back().get());
  }
  macs[0]->set_backoff_policy(std::make_unique<mac::NoExponentialBackoff>(31));
  macs[0]->set_announce_policy(std::make_unique<mac::StuckAttemptAnnounce>());

  MonitorConfig mc;
  mc.separation_m = 200;
  const auto mon_ptr = MonitorFactory(sim, *macs[1], *timelines[1]).watch(0, mc);
  Monitor& mon = *mon_ptr;

  const SimTime stop = 30 * kSecond;
  std::uint64_t id = 1;
  std::function<void()> feeder = [&] {
    while (macs[0]->queue_length() < 20) macs[0]->enqueue(1, 512, id++);
    macs[2]->enqueue(3, 512, id++);
    if (sim.now() < stop) sim.after(25 * kMillisecond, feeder);
  };
  sim.at(0, feeder);
  sim.run_until(stop);

  EXPECT_GT(macs[0]->stats().retries, 100u);
  EXPECT_GT(mon.stats().attempt_violations, 50u);
  EXPECT_GT(mon.flag_rate(), 0.5);
}

TEST(Monitor, ThirdPartyMonitorCollectsSamples) {
  // The monitor need not be the flow's receiver: a third node overhearing
  // S's frames anchors windows from DATA durations and overheard ACKs.
  sim::Simulator sim;
  mac::DcfParams params;
  phy::Propagation prop(phy::PropagationParams{}, 1);
  struct Tri : phy::PositionProvider {
    geom::Vec2 position(NodeId n, SimTime) const override {
      static constexpr double xs[] = {0, 200, 100};
      static constexpr double ys[] = {0, 0, 170};
      return {xs[n], ys[n]};
    }
  } positions;
  phy::Channel channel(sim, prop, positions);
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<phy::CsTimeline>> timelines;
  for (NodeId i = 0; i < 3; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(i, channel));
    macs.push_back(std::make_unique<mac::DcfMac>(sim, *radios.back(), params));
    timelines.push_back(std::make_unique<phy::CsTimeline>());
    radios.back()->add_listener(timelines.back().get());
  }
  macs[0]->set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(85));

  MonitorConfig mc;
  mc.separation_m = 200;
  // Node 2 is the third party.
  const auto mon_ptr = MonitorFactory(sim, *macs[2], *timelines[2]).watch(0, mc);
  Monitor& mon = *mon_ptr;

  const SimTime stop = 20 * kSecond;
  std::uint64_t id = 1;
  std::function<void()> feeder = [&] {
    while (macs[0]->queue_length() < 20) macs[0]->enqueue(1, 512, id++);
    if (sim.now() < stop) sim.after(50 * kMillisecond, feeder);
  };
  sim.at(0, feeder);
  sim.run_until(stop);

  EXPECT_GT(mon.stats().samples, 100u);
  EXPECT_GT(mon.flag_rate(), 0.8);
}

TEST(Monitor, BusyCreditAndIdleCorrectionKnobs) {
  // The literal-Eq.1 variant must still never flag a saturated honest
  // sender on a clean channel (no busy time, p(I|I) < 1 only shrinks y
  // within the margin? No: on a clean channel rho ~ 1 -> check it holds).
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.apply_idle_correction = true;
  cfg.busy_credit_factor = 1.0;
  cfg.record_samples = true;
  Monitor& mon = f.attach_monitor(cfg);
  f.keep_feeding(10 * kSecond, 1);
  f.sim.run_until(10 * kSecond);
  EXPECT_GT(mon.stats().windows, 10u);
  // The two-station channel has rho ~ 0.9; Eq. 3 with n=k=5 keeps p(I|I)
  // high enough that the margin absorbs the discount.
  EXPECT_LT(mon.flag_rate(), 0.2);
}


TEST(Wilcoxon, MatchesPublishedCriticalValue) {
  // Published one-tailed 5% critical value for n1 = n2 = 10:
  // Mann-Whitney U <= 27, i.e. rank sum W <= 82 (W = U + n(n+1)/2).
  // Verify the exact DP reproduces the table: P(W <= 82) <= 0.05 < P(W <= 83).
  // Construct samples with arbitrary distinct values achieving given W.
  auto p_for_w = [](double target_w) {
    // y gets ranks that sum to target_w using 10 distinct values.
    // Start from ranks {1..10} (W=55) and bump the largest rank upward.
    std::vector<double> combined(20);
    for (int i = 0; i < 20; ++i) combined[i] = i + 1;
    // Choose y-ranks greedily.
    std::vector<int> y_ranks{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    double w = 55;
    for (int i = 9; i >= 0 && w < target_w; --i) {
      const int max_rank = 20 - (9 - i);
      const double room = max_rank - y_ranks[i];
      const double need = target_w - w;
      const int bump = static_cast<int>(std::min(room, need));
      y_ranks[i] += bump;
      w += bump;
    }
    std::vector<double> x, y;
    std::vector<bool> used(21, false);
    for (int r : y_ranks) {
      y.push_back(r);
      used[r] = true;
    }
    for (int r = 1; r <= 20 && x.size() < 10; ++r) {
      if (!used[r]) x.push_back(r);
    }
    return wilcoxon_rank_sum(x, y).p_less;
  };
  EXPECT_LE(p_for_w(82), 0.05);
  EXPECT_GT(p_for_w(83), 0.05);
}

TEST(Monitor, PrsUnawareBaselineCannotProveViolations) {
  // Baseline mode: the monitor does not know the dictated values, so no
  // deterministic checks can fire and even a blatant attacker survives a
  // clean two-node channel (where its shortened back-offs still look like
  // plausible draws from [0, CW]).
  MonitorFixture f;
  f.macs[0]->set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(50));
  MonitorConfig cfg;
  cfg.prs_aware = false;
  Monitor& mon = f.attach_monitor(cfg);
  f.keep_feeding(10 * kSecond, 1);
  f.sim.run_until(10 * kSecond);

  EXPECT_EQ(mon.stats().impossible_backoff, 0u);
  EXPECT_EQ(mon.stats().seq_off_violations, 0u);
  EXPECT_GT(mon.stats().windows, 10u);
  // PM=50 halves a uniform: statistically visible in principle, but at
  // sample size 10 with the margin the baseline has little power.
  // The full monitor on the same setup flags everything (see
  // Monitor.FullMisbehaviorIsFlaggedFast).
}

TEST(Monitor, DecodedRetentionBoundsTheFrameRing) {
  // The prune horizon is a config knob now; a short retention keeps the
  // ring small while the default (4 s) retains everything a max-window
  // verification can ask for. Shortening retention must not disturb the
  // monitor's verdict stream on this clean saturated link (every window
  // closes long before frames age out of even the short ring).
  MonitorConfig short_cfg;
  short_cfg.sample_size = 10;
  short_cfg.decoded_retention = 500 * kMillisecond;
  MonitorConfig default_cfg;
  default_cfg.sample_size = 10;

  std::size_t short_retained = 0, default_retained = 0;
  MonitorStats short_stats, default_stats;
  for (int which = 0; which < 2; ++which) {
    MonitorFixture f;
    Monitor& mon = f.attach_monitor(which == 0 ? short_cfg : default_cfg);
    f.keep_feeding(10 * kSecond, 1);
    f.sim.run_until(10 * kSecond);
    (which == 0 ? short_retained : default_retained) = mon.decoded_retained();
    (which == 0 ? short_stats : default_stats) = mon.stats();
  }
  EXPECT_GT(short_retained, 0u);
  EXPECT_LT(short_retained, default_retained);
  EXPECT_EQ(short_stats, default_stats);
}

TEST(Report, RendersVerdictAndCounters) {
  MonitorFixture f;
  f.macs[0]->set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(85));
  MonitorConfig cfg;
  Monitor& mon = f.attach_monitor(cfg);
  f.keep_feeding(8 * kSecond, 1);
  f.sim.run_until(8 * kSecond);

  const std::string verdict = render_verdict(mon);
  EXPECT_NE(verdict.find("MISBEHAVING"), std::string::npos);
  EXPECT_NE(verdict.find("node 0"), std::string::npos);

  const std::string report = render_report(mon);
  EXPECT_NE(report.find("impossible back-off"), std::string::npos);
  EXPECT_NE(report.find("windows"), std::string::npos);
  EXPECT_NE(report.find("MISBEHAVING"), std::string::npos);

  // An unused monitor reports insufficient data.
  MonitorFixture g;
  MonitorConfig cfg2;
  Monitor& idle_mon = g.attach_monitor(cfg2);
  EXPECT_NE(render_verdict(idle_mon).find("INSUFFICIENT DATA"),
            std::string::npos);
}


TEST(Wilcoxon, ExactTailsOverlapAtTheObservedValue) {
  // For the exact permutation distribution, P(W <= w) + P(W >= w) =
  // 1 + P(W = w) >= 1: both one-sided p-values include the point mass.
  // P(W_y >= w_y) is p_less of the swapped test, P(W_x <= w_x).
  util::Xoshiro256ss rng(91);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> x, y;
    for (int i = 0; i < 8; ++i) {
      x.push_back(rng.uniform_int(16));  // integer values: ties happen
      y.push_back(rng.uniform_int(16));
    }
    const auto r = wilcoxon_rank_sum(x, y);
    const auto swapped = wilcoxon_rank_sum(y, x);
    ASSERT_TRUE(r.exact);
    ASSERT_TRUE(swapped.exact);
    EXPECT_GE(r.p_less + swapped.p_less, 1.0 - 1e-12);
    EXPECT_GE(r.p_less, 0.0);
    EXPECT_LE(r.p_less, 1.0);
    EXPECT_GE(swapped.p_less, 0.0);
    EXPECT_LE(swapped.p_less, 1.0);
  }
}

TEST(Wilcoxon, TranslationInvariance) {
  // Adding a constant to both samples must not change any p-value.
  util::Xoshiro256ss rng(92);
  std::vector<double> x, y;
  for (int i = 0; i < 12; ++i) {
    x.push_back(rng.uniform(0, 32));
    y.push_back(rng.uniform(0, 32) * 0.6);
  }
  const auto base = wilcoxon_rank_sum(x, y);
  const auto base_swapped = wilcoxon_rank_sum(y, x);
  for (double& v : x) v += 1000;
  for (double& v : y) v += 1000;
  const auto shifted = wilcoxon_rank_sum(x, y);
  const auto shifted_swapped = wilcoxon_rank_sum(y, x);
  EXPECT_DOUBLE_EQ(base.p_less, shifted.p_less);
  EXPECT_DOUBLE_EQ(base_swapped.p_less, shifted_swapped.p_less);
}

TEST(Wilcoxon, UnequalSampleSizes) {
  // nx != ny is routine for the baseline monitor; check exact path sanity.
  const std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> y{0.1, 0.2};
  const auto r = wilcoxon_rank_sum(x, y);
  EXPECT_TRUE(r.exact);
  // y holds ranks {1,2}: P(W <= 3) = 1 / C(10,2) = 1/45.
  EXPECT_NEAR(r.p_less, 1.0 / 45.0, 1e-12);
}

}  // namespace
}  // namespace manet::detect
