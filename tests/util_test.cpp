#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "util/config.hpp"
#include "util/flat_u64_set.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace manet {
namespace {

using util::Config;
using util::CounterRng;
using util::Xoshiro256ss;

TEST(Types, TimeConversionsRoundTrip) {
  EXPECT_EQ(seconds_to_time(1.0), kSecond);
  EXPECT_EQ(seconds_to_time(0.5), 500 * kMillisecond);
  EXPECT_DOUBLE_EQ(time_to_seconds(300 * kSecond), 300.0);
  EXPECT_EQ(seconds_to_time(20e-6), 20 * kMicrosecond);
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
  Xoshiro256ss a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  Xoshiro256ss a2(42), c2(43);
  EXPECT_NE(a2(), c2());
}

TEST(Rng, UniformIsInUnitInterval) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBoundAndCoversRange) {
  Xoshiro256ss rng(9);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (int count : seen) EXPECT_GT(count, 1600);  // ~2000 each
}

TEST(Rng, NormalHasExpectedMoments) {
  Xoshiro256ss rng(11);
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialHasExpectedMean) {
  Xoshiro256ss rng(13);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, CounterRngIsRandomAccessAndStable) {
  CounterRng prs(0xABCDEF);
  const auto v5 = prs.value_at(5);
  const auto v0 = prs.value_at(0);
  EXPECT_EQ(prs.value_at(5), v5);  // re-reading any index gives same value
  EXPECT_EQ(prs.value_at(0), v0);
  EXPECT_NE(v0, v5);

  CounterRng same(0xABCDEF), other(0xABCDF0);
  EXPECT_EQ(same.value_at(17), prs.value_at(17));
  EXPECT_NE(other.value_at(17), prs.value_at(17));
}

TEST(Rng, CounterRngUniformAtIsBoundedAndWellSpread) {
  CounterRng prs(1234);
  std::vector<double> counts(32, 0.0);
  const std::uint64_t draws = 32000;
  for (std::uint64_t i = 0; i < draws; ++i) {
    const auto v = prs.uniform_at(i, 32);
    ASSERT_LT(v, 32u);
    ++counts[v];
  }
  // Chi-square against uniform, 31 dof: 99.9th percentile ~ 61.1.
  const double expected = static_cast<double>(draws) / 32.0;
  double chi2 = 0.0;
  for (double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 61.1);
}

TEST(Stats, RunningStatsMatchesClosedForm) {
  util::RunningStats s;
  const std::vector<double> xs{1, 2, 3, 4, 5, 6};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 6u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_NEAR(s.variance(), 3.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_NEAR(s.sum(), 21.0, 1e-9);
}

TEST(Stats, MergeEqualsSequential) {
  util::RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, ProportionWilsonIntervalContainsPointEstimate) {
  util::ProportionEstimator p;
  for (int i = 0; i < 100; ++i) p.add(i < 30);
  EXPECT_DOUBLE_EQ(p.proportion(), 0.3);
  EXPECT_LT(p.wilson_lower(), 0.3);
  EXPECT_GT(p.wilson_upper(), 0.3);
  EXPECT_GT(p.wilson_lower(), 0.2);
  EXPECT_LT(p.wilson_upper(), 0.42);
}

TEST(Stats, MidranksHandleTies) {
  const std::vector<double> v{3.0, 1.0, 3.0, 2.0};
  const auto r = util::midranks(v);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[3], 2.0);
  EXPECT_DOUBLE_EQ(r[0], 3.5);
  EXPECT_DOUBLE_EQ(r[2], 3.5);
}

TEST(Stats, NormalCdfAndQuantileAreInverses) {
  for (double p : {0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(util::normal_cdf(util::normal_quantile(p)), p, 1e-6);
  }
  EXPECT_NEAR(util::normal_quantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(util::normal_cdf(0.0), 0.5, 1e-12);
}

TEST(Stats, CorrelationDetectsLinearRelation) {
  std::vector<double> xs, ys, zs;
  Xoshiro256ss rng(3);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform();
    xs.push_back(x);
    ys.push_back(2 * x + 1);
    zs.push_back(rng.uniform());
  }
  EXPECT_NEAR(util::correlation(xs, ys), 1.0, 1e-9);
  EXPECT_NEAR(util::correlation(xs, zs), 0.0, 0.15);
}

TEST(Config, DeclareSetGetTyped) {
  Config c;
  c.declare("rate", "20", "packets per second");
  c.declare("name", "grid", "topology");
  c.declare("flag", "true", "a flag");
  EXPECT_EQ(c.get_int("rate"), 20);
  c.set("rate", "35.5");
  EXPECT_DOUBLE_EQ(c.get_double("rate"), 35.5);
  EXPECT_TRUE(c.get_bool("flag"));
  EXPECT_THROW(c.set("unknown", "1"), util::ConfigError);
  EXPECT_THROW((void)c.get("unknown"), util::ConfigError);
  EXPECT_THROW((void)c.get_int("name"), util::ConfigError);
  EXPECT_NE(c.render().find("rate = 35.5"), std::string::npos);
}

TEST(Flags, ParsesKeyValueAndHelp) {
  Config c;
  c.declare("rate", "20", "");
  const char* argv[] = {"prog", "--rate=42", "pos", "--help"};
  const auto parsed = util::parse_flags(4, argv, c);
  EXPECT_TRUE(parsed.help);
  ASSERT_EQ(parsed.positional.size(), 1u);
  EXPECT_EQ(parsed.positional[0], "pos");
  EXPECT_EQ(c.get_int("rate"), 42);

  const char* bad[] = {"prog", "--nope=1"};
  EXPECT_THROW(util::parse_flags(2, bad, c), util::ConfigError);
  const char* malformed[] = {"prog", "--rate"};
  EXPECT_THROW(util::parse_flags(2, malformed, c), util::ConfigError);
}

TEST(FlatU64Set, DuplicatesDetectedAcrossGrowth) {
  // AODV's RREQ keys, (origin << 32) | rreq_id with rreq_id >= 1, arriving
  // interleaved over many origins as floods do: every key must be new
  // exactly once, before and after each table growth, as in a node-based
  // set.
  util::FlatU64Set set;
  std::unordered_set<std::uint64_t> oracle;
  util::Xoshiro256ss rng(31);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t origin = rng.uniform_int(300);
    const std::uint64_t id = 1 + rng.uniform_int(120);
    const std::uint64_t key = (origin << 32) | id;
    ASSERT_EQ(set.insert(key), oracle.insert(key).second) << "insert " << i;
  }
  for (const std::uint64_t key : oracle) EXPECT_FALSE(set.insert(key));
}

}  // namespace
}  // namespace manet
