// Tests for the experiment engine layer (src/exp/): thread pool, the
// deterministic Engine::map contract, seeding, result sinks, the shared
// rate cache, and the benches' strict numeric-list parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_common.hpp"
#include "exp/engine.hpp"
#include "exp/rate_cache.hpp"
#include "exp/seeding.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"

namespace manet::exp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ThreadPool, RunsEverySubmittedJob) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(Engine, ResolveThreadsNeverReturnsZero) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
}

TEST(Engine, MapReturnsResultsInIndexOrder) {
  for (unsigned threads : {1u, 4u}) {
    Engine engine(threads);
    const auto out =
        engine.map(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(Engine, MapRethrowsTheLowestIndexException) {
  Engine engine(4);
  try {
    engine.map(10, [](std::size_t i) -> int {
      if (i >= 3) throw std::runtime_error(std::to_string(i));
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");  // deterministic: lowest failing index
  }
}

TEST(Engine, SerialEngineRunsInline) {
  // threads == 1 must execute on the calling thread (no pool).
  Engine engine(1);
  const auto caller = std::this_thread::get_id();
  engine.for_each(3, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(Seeding, TrialSeedMatchesSerialIncrement) {
  // The historical loops did `++seed` between runs.
  std::uint64_t seed = 42;
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(trial_seed(42, i), seed);
    ++seed;
  }
}

TEST(Sweep, GroupsTrialsByPointInRunOrder) {
  Engine engine(4);
  const std::vector<int> points = {10, 20, 30};
  const auto grouped = run_sweep(engine, points, 3, [](int point, int run) {
    return point + run;
  });
  ASSERT_EQ(grouped.size(), 3u);
  for (std::size_t p = 0; p < points.size(); ++p) {
    ASSERT_EQ(grouped[p].size(), 3u);
    for (int run = 0; run < 3; ++run) {
      EXPECT_EQ(grouped[p][static_cast<std::size_t>(run)], points[p] + run);
    }
  }
}

TEST(Record, RendersTypedFieldsInInsertionOrder) {
  Record r;
  r.add("name", "fig5").add("load", 0.5).add("windows", std::uint64_t{7})
      .add("runs", 2).add("ok", true);
  EXPECT_EQ(r.to_json(),
            "{\"name\": \"fig5\", \"load\": 0.5, \"windows\": 7, "
            "\"runs\": 2, \"ok\": true}");
}

TEST(Record, NonFiniteDoublesBecomeNull) {
  Record r;
  r.add("nan", std::nan("")).add("inf", HUGE_VAL);
  EXPECT_EQ(r.to_json(), "{\"nan\": null, \"inf\": null}");
}

TEST(Record, EscapesStrings) {
  Record r;
  r.add("s", "a\"b\\c\nd");
  EXPECT_EQ(r.to_json(), "{\"s\": \"a\\\"b\\\\c\\nd\"}");
}

TEST(MemorySink, KeepsEveryRecord) {
  MemorySink sink;
  Engine engine(4);
  engine.for_each(50, [&](std::size_t i) {
    Record r;
    r.add("i", static_cast<std::uint64_t>(i));
    sink.record(r);
  });
  EXPECT_EQ(sink.records().size(), 50u);
}

TEST(JsonFileSink, WritesAValidArray) {
  const std::string path = testing::TempDir() + "exp_test_sink.json";
  {
    JsonFileSink sink(path);
    Record a, b;
    a.add("x", 1);
    b.add("x", 2);
    sink.record(a);
    sink.record(b);
    sink.flush();
  }  // destructor closes the array
  const std::string text = slurp(path);
  EXPECT_EQ(text, "[\n{\"x\": 1},\n{\"x\": 2}\n]\n");
  std::remove(path.c_str());
}

TEST(JsonFileSink, EmptySweepStillYieldsAnArray) {
  const std::string path = testing::TempDir() + "exp_test_empty.json";
  { JsonFileSink sink(path); }
  EXPECT_EQ(slurp(path), "[\n\n]\n");
  std::remove(path.c_str());
}

TEST(JsonFileSink, UnwritablePathThrows) {
  EXPECT_THROW(JsonFileSink("/nonexistent-dir/out.json"), std::runtime_error);
}

TEST(RateCache, CalibratesEachLoadExactlyOnceUnderConcurrency) {
  std::atomic<int> probes{0};
  net::ScenarioConfig scenario;
  RateCache cache(scenario, "/nonexistent-dir/never-used",
                  [&probes](const net::ScenarioConfig&, double load) {
                    probes.fetch_add(1, std::memory_order_relaxed);
                    net::CalibrationResult r;
                    r.packets_per_second = 10.0 * load;
                    r.measured_busy_fraction = load;
                    return r;
                  });
  Engine engine(8);
  engine.for_each(32, [&](std::size_t i) {
    const double load = (i % 2 == 0) ? 0.3 : 0.6;
    EXPECT_DOUBLE_EQ(cache.rate_for(load), 10.0 * load);
  });
  EXPECT_EQ(probes.load(), 2);  // one calibration per distinct load
}

TEST(RateCache, FileCacheSharesCalibrationsAcrossInstances) {
  const std::string path = testing::TempDir() + "exp_test_rates.cache";
  std::remove(path.c_str());
  net::ScenarioConfig scenario;

  std::atomic<int> first_probes{0};
  RateCache first(scenario, path,
                  [&first_probes](const net::ScenarioConfig&, double load) {
                    ++first_probes;
                    net::CalibrationResult r;
                    r.packets_per_second = 7.5 * load;
                    return r;
                  });
  EXPECT_DOUBLE_EQ(first.rate_for(0.6), 4.5);
  EXPECT_EQ(first_probes.load(), 1);

  // A fresh instance (same scenario fingerprint) must hit the file, not
  // its calibrator.
  std::atomic<int> second_probes{0};
  RateCache second(scenario, path,
                   [&second_probes](const net::ScenarioConfig&, double) {
                     ++second_probes;
                     return net::CalibrationResult{};
                   });
  EXPECT_DOUBLE_EQ(second.rate_for(0.6), 4.5);
  EXPECT_EQ(second_probes.load(), 0);

  // A different scenario must NOT reuse the entry.
  net::ScenarioConfig other = scenario;
  other.seed += 1;
  std::atomic<int> other_probes{0};
  RateCache third(other, path,
                  [&other_probes](const net::ScenarioConfig&, double load) {
                    ++other_probes;
                    net::CalibrationResult r;
                    r.packets_per_second = 9.0 * load;
                    return r;
                  });
  EXPECT_DOUBLE_EQ(third.rate_for(0.6), 5.4);
  EXPECT_EQ(other_probes.load(), 1);
  std::remove(path.c_str());
}

TEST(ParseDoubleList, ParsesWellFormedLists) {
  const auto v = bench::parse_double_list(" 0.3, 0.6 ,0.9 ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 0.3);
  EXPECT_DOUBLE_EQ(v[1], 0.6);
  EXPECT_DOUBLE_EQ(v[2], 0.9);
  EXPECT_TRUE(bench::parse_double_list("").empty());
  EXPECT_TRUE(bench::parse_double_list(",,").empty());
}

TEST(ParseDoubleList, RejectsMalformedTokensWithConfigError) {
  // Regression: "--loads=0.3,x" used to terminate via an uncaught
  // std::invalid_argument out of std::stod.
  EXPECT_THROW(bench::parse_double_list("0.3,x"), util::ConfigError);
  EXPECT_THROW(bench::parse_double_list("1.2.3"), util::ConfigError);
  EXPECT_THROW(bench::parse_double_list("0.5junk"), util::ConfigError);
}

/// FlagSet::parse over "prog" plus `args`.
bool parse_flags(bench::FlagSet& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return flags.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSet, CountFlagsRejectZeroNegativeAndFractionalSizes) {
  // Regression: --sample_size=0 crashed the benches (division by zero and
  // an out-of-bounds sample slot), --sample_size=-1 aborted on an
  // uncaught std::length_error.
  for (const char* bad : {"0", "-1", "2.5", "x", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    bench::FlagSet flags("test");
    flags.add_count("sample_size", 10, "window");
    EXPECT_THROW(parse_flags(flags, {std::string("--sample_size=") + bad}),
                 util::ConfigError);
  }
  for (const char* bad : {"0", "-1", "2.5", "10,0", "10,2.5", "1e30"}) {
    SCOPED_TRACE(bad);
    bench::FlagSet flags("test");
    flags.add_count_list("sample_sizes", "10,25", "windows");
    EXPECT_THROW(parse_flags(flags, {std::string("--sample_sizes=") + bad}),
                 util::ConfigError);
  }

  bench::FlagSet flags("test");
  flags.add_count("sample_size", 10, "window");
  flags.add_count_list("sample_sizes", "10,25", "windows");
  EXPECT_FALSE(parse_flags(flags, {"--sample_size=1", "--sample_sizes=1,100"}));
  EXPECT_EQ(flags.get_int("sample_size"), 1);
  EXPECT_EQ(flags.get_double_list("sample_sizes"), (std::vector<double>{1, 100}));
}

}  // namespace
}  // namespace manet::exp
