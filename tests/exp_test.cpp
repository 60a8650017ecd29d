// Tests for the experiment engine layer (src/exp/): thread pool, the
// deterministic Engine::map contract, seeding, result sinks (JSON and the
// binary columnar codec), the shared rate cache, and the benches' strict
// numeric-list parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_common.hpp"
#include "exp/columnar.hpp"
#include "exp/engine.hpp"
#include "exp/rate_cache.hpp"
#include "exp/seeding.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace manet::exp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "exp_test_" + name;
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

Record cell_record(std::uint64_t cell) {
  Record r;
  r.add("bench", "exp_test")
      .add("cell", cell)
      .add("value", 0.25 * static_cast<double>(cell) + 0.1)
      .add("offset", static_cast<std::int64_t>(17 - 5 * (cell % 8)))
      .add("even", cell % 2 == 0);
  return r;
}

TEST(JsonFileSink, FlushRecordsTriggerMakesRecordsDurableEarly) {
  const std::string eager_path = temp_path("eager.json");
  const std::string lazy_path = temp_path("lazy.json");
  {
    JsonFileSink eager(eager_path, /*flush_records=*/2);
    JsonFileSink lazy(lazy_path);  // size-based flushing only
    for (std::uint64_t i = 0; i < 5; ++i) {
      eager.record(cell_record(i));
      lazy.record(cell_record(i));
    }
    // The count trigger has pushed the eager sink's records to disk while
    // the lazy sink still holds everything in its 64 KiB buffer.
    EXPECT_GT(slurp(eager_path).size(), 100u);
    EXPECT_EQ(slurp(lazy_path).size(), 0u);
  }
  // Same bytes once both sinks close: buffering must not change the text.
  EXPECT_EQ(slurp(eager_path), slurp(lazy_path));
  std::remove(eager_path.c_str());
  std::remove(lazy_path.c_str());
}

// ------------------------------------------------------------- columnar

// A second shape so schema registration and block switching are exercised.
Record detail_record(std::uint64_t cell) {
  Record r;
  r.add("bench", "exp_test")
      .add("cell", cell)
      .add("note", cell % 2 == 0 ? "even-cell" : "odd-cell");
  return r;
}

void emit_cells(ColumnarFileSink& sink, std::uint64_t first,
                std::uint64_t last) {
  for (std::uint64_t cell = first; cell < last; ++cell) {
    sink.begin_cell(cell);
    sink.record(cell_record(cell));
    if (cell % 3 == 0) sink.record(detail_record(cell));
  }
}

ColumnarMeta test_meta(std::uint64_t cells) {
  ColumnarMeta meta;
  meta.sweep = "sweep1|exp_test|x=1";
  meta.bench = "exp_test";
  meta.total_cells = cells;
  meta.cell_begin = 0;
  meta.cell_end = cells;
  return meta;
}

TEST(Columnar, RoundTripsRecordsExactly) {
  const std::string path = temp_path("roundtrip.mcol");
  const std::uint64_t cells = 2 * ColumnarFileSink::kBlockRecords + 37;
  {
    ColumnarFileSink sink(path, test_meta(cells));
    emit_cells(sink, 0, cells);
  }
  const ColumnarFile file = read_columnar_file(path);
  EXPECT_EQ(file.meta.sweep, "sweep1|exp_test|x=1");
  EXPECT_EQ(file.meta.bench, "exp_test");
  EXPECT_EQ(file.meta.total_cells, cells);
  EXPECT_EQ(file.meta.cell_begin, 0u);
  EXPECT_EQ(file.meta.cell_end, cells);

  std::size_t i = 0;
  for (std::uint64_t cell = 0; cell < cells; ++cell) {
    ASSERT_LT(i, file.records.size());
    EXPECT_EQ(file.records[i].first, cell);
    EXPECT_EQ(file.records[i].second.to_json(), cell_record(cell).to_json());
    ++i;
    if (cell % 3 == 0) {
      ASSERT_LT(i, file.records.size());
      EXPECT_EQ(file.records[i].first, cell);
      EXPECT_EQ(file.records[i].second.to_json(),
                detail_record(cell).to_json());
      ++i;
    }
  }
  EXPECT_EQ(i, file.records.size());
  std::remove(path.c_str());
}

TEST(Columnar, PreservesNonFiniteDoublesUnlikeJson) {
  const std::string path = temp_path("nonfinite.mcol");
  Record r;
  r.add("nan", std::nan("")).add("inf", 1.0 / 0.0);
  {
    ColumnarFileSink sink(path, test_meta(1));
    sink.begin_cell(0);
    sink.record(r);
  }
  const ColumnarFile file = read_columnar_file(path);
  ASSERT_EQ(file.records.size(), 1u);
  // JSON renders non-finite as null; the binary codec must still agree.
  EXPECT_EQ(file.records[0].second.to_json(), r.to_json());
  std::remove(path.c_str());
}

// Encoders for hand-built .mcol files, mirroring exp/columnar.hpp.
void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>(v >> shift));
  }
}

void put_varu(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_str(std::string& out, const std::string& s) {
  put_varu(out, s.size());
  out += s;
}

/// One framed block whose CRC matches its payload.
std::string block(std::uint8_t kind, const std::string& payload) {
  std::string out(1, static_cast<char>(kind));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, util::crc32(reinterpret_cast<const std::uint8_t*>(payload.data()),
                           payload.size()));
  return out + payload;
}

/// Magic plus a header block declaring cells [0, 1), with `total_cells`
/// spelled as given.
std::string header_file(const std::string& total_cells = "1") {
  std::string payload;
  put_u32(payload, 1);  // version
  put_u32(payload, 3);  // meta entries
  put_str(payload, "total_cells");
  put_str(payload, total_cells);
  put_str(payload, "cell_begin");
  put_str(payload, "0");
  put_str(payload, "cell_end");
  put_str(payload, "1");
  return "MCOL" + block(0, payload);
}

/// A schema block registering schema 0 with one field of `type`.
std::string one_field_schema(std::uint8_t type) {
  std::string payload;
  put_u32(payload, 0);  // schema id
  put_u32(payload, 1);  // field count
  put_str(payload, "f");
  payload.push_back(static_cast<char>(type));
  return block(1, payload);
}

/// The end offset of every whole block in a well-formed file.
std::set<std::size_t> block_boundaries(const std::string& bytes) {
  std::set<std::size_t> out;
  std::size_t pos = 4;  // magic
  while (pos + 9 <= bytes.size()) {
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<std::uint8_t>(bytes[pos + 1 + i]);
    }
    pos += 9 + len;
    out.insert(pos);
  }
  return out;
}

TEST(Columnar, RejectsCorruptTruncatedAndForeignFiles) {
  const std::string path = temp_path("corrupt.mcol");
  {
    ColumnarFileSink sink(path, test_meta(40));
    emit_cells(sink, 0, 40);
  }
  const std::string good = slurp(path);
  ASSERT_GT(good.size(), 64u);
  const ColumnarFile full = read_columnar_file(path);

  // Flip one payload byte: the block CRC must catch it.
  std::string corrupt = good;
  corrupt[good.size() - 10] ^= 0x40;
  spit(path, corrupt);
  EXPECT_THROW(read_columnar_file(path), std::runtime_error);

  // Chop the tail mid-block: truncation must be detected, not ignored.
  spit(path, good.substr(0, good.size() - 5));
  EXPECT_THROW(read_columnar_file(path), std::runtime_error);

  // Every truncation either throws or, when it ends on a block boundary,
  // yields a prefix of the records.
  const std::set<std::size_t> boundaries = block_boundaries(good);
  for (std::size_t len = 0; len < good.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    spit(path, good.substr(0, len));
    try {
      const ColumnarFile part = read_columnar_file(path);
      EXPECT_EQ(boundaries.count(len), 1u);
      ASSERT_LE(part.records.size(), full.records.size());
      for (std::size_t i = 0; i < part.records.size(); ++i) {
        EXPECT_EQ(part.records[i].first, full.records[i].first);
        EXPECT_EQ(part.records[i].second.to_json(),
                  full.records[i].second.to_json());
      }
    } catch (const std::runtime_error&) {
    }
  }

  // Not a columnar file at all.
  spit(path, "[\n{\"bench\": \"exp_test\"}\n]\n");
  EXPECT_THROW(read_columnar_file(path), std::runtime_error);

  EXPECT_THROW(read_columnar_file(path + ".does-not-exist"),
               std::runtime_error);

  // Crafted files with valid CRCs and lengths that lie. Each must be
  // rejected before the reader allocates anything sized by the lie.
  spit(path, header_file());
  EXPECT_NO_THROW(read_columnar_file(path));

  // A block length far beyond the bytes that follow it.
  {
    std::string bytes = header_file();
    bytes.push_back(2);
    put_u32(bytes, 0xFFFFFFF0u);
    put_u32(bytes, 0);
    bytes += "tail";
    spit(path, bytes);
    EXPECT_THROW(read_columnar_file(path), std::runtime_error);
  }
  // A data block claiming 2^32 - 1 records in a few bytes.
  {
    std::string payload;
    put_u32(payload, 0);            // schema id
    put_u32(payload, 0xFFFFFFFFu);  // record count
    put_varu(payload, 0);           // one cell
    payload += std::string(8, '\0');  // one double
    spit(path, header_file() + one_field_schema(0) + block(2, payload));
    EXPECT_THROW(read_columnar_file(path), std::runtime_error);
  }
  // A string column whose dictionary size is 2^62.
  {
    std::string payload;
    put_u32(payload, 0);  // schema id
    put_u32(payload, 1);  // record count
    put_varu(payload, 0);  // cell
    put_varu(payload, std::uint64_t{1} << 62);
    put_str(payload, "only-entry");
    put_varu(payload, 0);  // ref
    spit(path, header_file() + one_field_schema(4) + block(2, payload));
    EXPECT_THROW(read_columnar_file(path), std::runtime_error);
  }
  // Header integers that are not decimal u64s.
  for (const char* bad : {"", "abc", "12x", "-1", "99999999999999999999999"}) {
    SCOPED_TRACE(std::string("total_cells='") + bad + "'");
    spit(path, header_file(bad));
    EXPECT_THROW(read_columnar_file(path), std::runtime_error);
  }

  spit(path, good);
  EXPECT_NO_THROW(read_columnar_file(path));
  std::remove(path.c_str());
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

TEST(RateCache, FileCacheKeySeparatesEveryCalibrationInput) {
  // Each of these fields changes busy(rate), so a scenario differing only
  // in it must miss the other scenario's entry in a shared file, and hit
  // its own.
  const std::string path = temp_path("key_fields.cache");
  using Mutation = void (*)(net::ScenarioConfig&);
  const std::vector<std::pair<std::string, Mutation>> fields = {
      {"mac.sifs", [](net::ScenarioConfig& s) { s.mac.sifs += 1; }},
      {"mac.difs", [](net::ScenarioConfig& s) { s.mac.difs += 1; }},
      {"mac.retry_limit", [](net::ScenarioConfig& s) { s.mac.retry_limit += 1; }},
      {"mac.basic_rate_bps", [](net::ScenarioConfig& s) { s.mac.basic_rate_bps *= 2; }},
      {"mac.plcp_overhead", [](net::ScenarioConfig& s) { s.mac.plcp_overhead += 1; }},
      {"mac.rts_bytes", [](net::ScenarioConfig& s) { s.mac.rts_bytes += 1; }},
      {"mac.cts_bytes", [](net::ScenarioConfig& s) { s.mac.cts_bytes += 1; }},
      {"mac.ack_bytes", [](net::ScenarioConfig& s) { s.mac.ack_bytes += 1; }},
      {"mac.data_header_bytes",
       [](net::ScenarioConfig& s) { s.mac.data_header_bytes += 1; }},
      {"mac.use_eifs", [](net::ScenarioConfig& s) { s.mac.use_eifs = !s.mac.use_eifs; }},
      {"prop.tx_power_dbm", [](net::ScenarioConfig& s) { s.prop.tx_power_dbm += 0.5; }},
      {"prop.path_loss_exponent",
       [](net::ScenarioConfig& s) { s.prop.path_loss_exponent += 0.5; }},
      {"prop.reference_distance_m",
       [](net::ScenarioConfig& s) { s.prop.reference_distance_m += 0.5; }},
      {"prop.reference_loss_db",
       [](net::ScenarioConfig& s) { s.prop.reference_loss_db += 0.5; }},
      {"prop.capture_threshold_db",
       [](net::ScenarioConfig& s) { s.prop.capture_threshold_db += 0.5; }},
      {"faults.gilbert_elliott",
       [](net::ScenarioConfig& s) { s.faults.gilbert_elliott = true; }},
      {"faults.ge_p_good_to_bad",
       [](net::ScenarioConfig& s) { s.faults.ge_p_good_to_bad += 0.01; }},
      {"faults.ge_p_bad_to_good",
       [](net::ScenarioConfig& s) { s.faults.ge_p_bad_to_good += 0.01; }},
      {"faults.ge_loss_good", [](net::ScenarioConfig& s) { s.faults.ge_loss_good += 0.01; }},
      {"faults.ge_loss_bad", [](net::ScenarioConfig& s) { s.faults.ge_loss_bad -= 0.01; }},
      {"faults.outages",
       [](net::ScenarioConfig& s) {
         s.faults.outages.push_back({3, 1 * kSecond, 2 * kSecond});
       }},
      {"faults.seed", [](net::ScenarioConfig& s) { s.faults.seed += 1; }},
      {"timeline_retention_s", [](net::ScenarioConfig& s) { s.timeline_retention_s /= 2; }},
      {"timeline_max_transitions",
       [](net::ScenarioConfig& s) { s.timeline_max_transitions /= 2; }},
  };
  const net::ScenarioConfig base;
  for (const auto& [name, mutate] : fields) {
    std::remove(path.c_str());
    net::ScenarioConfig other = base;
    mutate(other);
    int probes = 0;
    auto calibrator = [&probes](double per_load) {
      return [&probes, per_load](const net::ScenarioConfig&, double load) {
        ++probes;
        net::CalibrationResult r;
        r.packets_per_second = per_load * load;
        return r;
      };
    };
    EXPECT_DOUBLE_EQ(RateCache(other, path, calibrator(2.0)).rate_for(0.5), 1.0) << name;
    EXPECT_DOUBLE_EQ(RateCache(base, path, calibrator(3.0)).rate_for(0.5), 1.5) << name;
    EXPECT_EQ(probes, 2) << name << ": base hit the other scenario's entry";
    EXPECT_DOUBLE_EQ(RateCache(other, path, calibrator(5.0)).rate_for(0.5), 1.0) << name;
    EXPECT_DOUBLE_EQ(RateCache(base, path, calibrator(5.0)).rate_for(0.5), 1.5) << name;
    EXPECT_EQ(probes, 2) << name << ": an entry missed its own scenario";
  }
  std::remove(path.c_str());
}

TEST(RateCache, FileRoundTripKeepsTheWholeCalibration) {
  const std::string path = temp_path("round_trip.cache");
  std::remove(path.c_str());
  const net::ScenarioConfig scenario;
  const auto calibrator = [](const net::ScenarioConfig&, double load) {
    net::CalibrationResult r;
    r.packets_per_second = load > 0.8 ? 64.0 : 21.734619140625001 / 3.0;
    r.measured_busy_fraction = load > 0.8 ? 0.82213333333333338 : 0.1 * load + 1e-17;
    r.saturated = load > 0.8;
    r.probe_runs = 5;
    return r;
  };
  RateCache first(scenario, path, calibrator);
  const net::CalibrationResult fresh_09 = first.calibration_for(0.9);
  const net::CalibrationResult fresh_06 = first.calibration_for(0.6);
  EXPECT_EQ(fresh_09.probe_runs, 5);

  int probes = 0;
  RateCache second(scenario, path, [&probes](const net::ScenarioConfig&, double) {
    ++probes;
    return net::CalibrationResult{};
  });
  for (const auto& [load, fresh] : {std::pair{0.9, fresh_09}, std::pair{0.6, fresh_06}}) {
    const net::CalibrationResult& cached = second.calibration_for(load);
    EXPECT_EQ(cached.packets_per_second, fresh.packets_per_second) << load;  // bit-exact
    EXPECT_EQ(cached.measured_busy_fraction, fresh.measured_busy_fraction) << load;
    EXPECT_EQ(cached.saturated, fresh.saturated) << load;
    EXPECT_EQ(cached.probe_runs, 0) << load;  // nothing was probed
    EXPECT_EQ(second.rate_for(load), fresh.packets_per_second) << load;
  }
  EXPECT_EQ(probes, 0);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(RateCache, IgnoresVersion2CacheLines) {
  // A v2 line (rate only) for this very scenario and load: written by the
  // current cache, then rewritten into the old format.
  const std::string path = temp_path("v2_line.cache");
  std::remove(path.c_str());
  const net::ScenarioConfig scenario;
  const auto calibrator = [](double rate, int* probes) {
    return [rate, probes](const net::ScenarioConfig&, double) {
      ++*probes;
      net::CalibrationResult r;
      r.packets_per_second = rate;
      r.measured_busy_fraction = 0.5;
      return r;
    };
  };
  int probes = 0;
  RateCache(scenario, path, calibrator(3072.0, &probes)).rate_for(0.9);
  std::string line = slurp(path);
  ASSERT_EQ(line.compare(0, 3, "v3|"), 0) << line;
  line.replace(0, 2, "v2");
  line.erase(line.rfind(' ', line.rfind(' ') - 1));  // drop busy fraction and flag
  spit(path, line + "\n");
  ASSERT_EQ(std::count(line.begin(), line.end(), ' '), 2) << line;

  EXPECT_EQ(RateCache(scenario, path, calibrator(64.0, &probes)).rate_for(0.9), 64.0);
  EXPECT_EQ(probes, 2);  // the v2 line was not taken
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

/// A calibrator that counts its calls: a lookup that probes missed the
/// file, one that does not hit it.
RateCache::Calibrator counting_calibrator(int* probes) {
  return [probes](const net::ScenarioConfig&, double load) {
    ++*probes;
    net::CalibrationResult r;
    r.packets_per_second = 100.0 * load + 0.25;
    r.measured_busy_fraction = load - 0.05;
    r.saturated = load > 0.8;
    return r;
  };
}

/// Writes a cache file holding loads 0.3, 0.6 and 0.9 of `scenario` plus
/// one entry of another scenario, and returns its bytes.
std::string write_cache(const std::string& path, const net::ScenarioConfig& scenario) {
  std::remove(path.c_str());
  int probes = 0;
  RateCache cache(scenario, path, counting_calibrator(&probes));
  for (const double load : {0.3, 0.6, 0.9}) cache.calibration_for(load);
  net::ScenarioConfig other = scenario;
  other.seed += 1;
  RateCache(other, path, counting_calibrator(&probes)).calibration_for(0.6);
  return slurp(path);
}

TEST(RateCache, SkipsOutOfRangeValuesAndTrailingText) {
  const std::string path = temp_path("hostile_fields.cache");
  const net::ScenarioConfig scenario;
  const std::string good = write_cache(path, scenario);
  // The 0.6 entry is the second line; its fields 2, 3, 4 are the rate, the
  // busy fraction and the saturated flag.
  const std::size_t line_start = good.find('\n') + 1;
  const std::size_t line_end = good.find('\n', line_start);
  std::vector<std::string> fields;
  std::istringstream in(good.substr(line_start, line_end - line_start));
  for (std::string f; in >> f;) fields.push_back(f);
  ASSERT_EQ(fields.size(), 5u);
  const std::vector<std::pair<std::size_t, std::vector<std::string>>> hostile = {
      {2, {"-5", "0", "-0", "nan", "inf", "-inf", "1e400", "1x", "", "1 extra"}},
      {3, {"1.7", "-0.1", "nan", "inf", "0.5x", "1.0000001"}},
      {4, {"2", "-1", "1x", "1 extra", "0 0", "01", "true"}},
  };
  for (const auto& [field, values] : hostile) {
    for (const std::string& value : values) {
      SCOPED_TRACE("field " + std::to_string(field) + " = '" + value + "'");
      std::vector<std::string> line = fields;
      line[field] = value;
      std::string text;
      for (const std::string& f : line) text += (text.empty() ? "" : " ") + f;
      spit(path, good.substr(0, line_start) + text + good.substr(line_end));
      int probes = 0;
      RateCache cache(scenario, path, counting_calibrator(&probes));
      EXPECT_EQ(cache.calibration_for(0.3).probe_runs, 0);
      EXPECT_EQ(probes, 0);  // the untouched entries still hit
      cache.calibration_for(0.6);
      EXPECT_EQ(probes, 1);  // the rewritten one was skipped
      // The fresh calibration was stored, and the next reader takes it.
      int reread = 0;
      EXPECT_EQ(RateCache(scenario, path, counting_calibrator(&reread)).rate_for(0.6),
                60.25);
      EXPECT_EQ(reread, 0);
    }
  }
  // Boundary values a real calibration can produce are taken.
  for (const auto& [busy, flag] : {std::pair{"0", "0"}, std::pair{"1", "1"}}) {
    std::vector<std::string> line = fields;
    line[3] = busy;
    line[4] = flag;
    std::string text;
    for (const std::string& f : line) text += (text.empty() ? "" : " ") + f;
    spit(path, good.substr(0, line_start) + text + " \r" + good.substr(line_end));
    int probes = 0;
    const net::CalibrationResult got =
        RateCache(scenario, path, counting_calibrator(&probes)).calibration_for(0.6);
    EXPECT_EQ(probes, 0) << busy;
    EXPECT_EQ(got.measured_busy_fraction, std::stod(busy));
  }
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

// Seeded mutation fuzzing of the rate-cache reader over a real cache
// file. Every mutant (bit flips, cuts, and one whitespace-separated field
// rewritten to a hostile value) must either hit with a valid calibration
// (finite rate > 0, busy fraction in [0, 1]) or miss and calibrate; none
// may throw or crash. The seed and budget are constants, so the test is
// deterministic.
TEST(RateCache, MutatedCacheFilesHitValidOrMiss) {
  constexpr std::uint64_t kSeed = 0x7261746563616368ULL;
  constexpr int kMutants = 1500;
  const std::string path = temp_path("fuzz.cache");
  const net::ScenarioConfig scenario;
  const std::string corpus = write_cache(path, scenario);
  ASSERT_EQ(std::count(corpus.begin(), corpus.end(), '\n'), 4);
  const std::vector<std::string> hostile = {
      "-5", "0", "-0", "1.7", "-0.1", "nan", "inf", "1e400", "1x", "1 extra",
      "", "2", "0x10", "0.5", "1", "\t", "v3|", "0.59999999999999998"};

  util::Xoshiro256ss rng(kSeed);
  int hits = 0, misses = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = corpus;
    switch (rng.uniform_int(3)) {
      case 0:
        for (auto n = 1 + rng.uniform_int(3); n > 0; --n) {
          mutant[rng.uniform_int(mutant.size())] ^=
              static_cast<char>(1u << rng.uniform_int(8));
        }
        break;
      case 1:
        mutant.resize(rng.uniform_int(mutant.size()));
        break;
      default: {
        std::vector<std::pair<std::size_t, std::size_t>> spans;  // (start, length)
        for (std::size_t at = 0; at < mutant.size();) {
          const std::size_t end = mutant.find_first_of(" \n", at);
          const std::size_t stop = end == std::string::npos ? mutant.size() : end;
          if (stop > at) spans.emplace_back(at, stop - at);
          at = stop + 1;
        }
        const auto [start, length] = spans[rng.uniform_int(spans.size())];
        mutant.replace(start, length, hostile[rng.uniform_int(hostile.size())]);
      }
    }
    spit(path, mutant);
    int probes = 0;
    RateCache cache(scenario, path, counting_calibrator(&probes));
    for (const double load : {0.3, 0.6, 0.9}) {
      const int before = probes;
      const net::CalibrationResult& got = cache.calibration_for(load);
      if (probes > before) {
        ++misses;
        continue;
      }
      ++hits;
      EXPECT_TRUE(std::isfinite(got.packets_per_second) && got.packets_per_second > 0)
          << "mutant " << i << " load " << load << ": " << got.packets_per_second;
      EXPECT_TRUE(got.measured_busy_fraction >= 0 && got.measured_busy_fraction <= 1)
          << "mutant " << i << " load " << load << ": " << got.measured_busy_fraction;
    }
  }
  EXPECT_GT(hits, kMutants);  // most mutants leave most entries intact
  EXPECT_GT(misses, kMutants / 4);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(RateCache, AtomicFileUpdateMergesSequentialWriters) {
  const std::string path = temp_path("merged.cache");
  std::remove(path.c_str());
  EXPECT_TRUE(atomic_file_update(
      path, [](const std::string& cur) { return cur + "line-1\n"; }));
  EXPECT_TRUE(atomic_file_update(
      path, [](const std::string& cur) { return cur + "line-2\n"; }));
  EXPECT_EQ(slurp(path), "line-1\nline-2\n");
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
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
