// Microbenchmark of the result-sink encodings (exp/sink.hpp vs
// exp/columnar.hpp): how fast a sweep can emit records, and how big the
// artifact gets.
//
//  * render_json          — Record::to_json alone (the CPU cost the JSON
//                           sink pays per record: snprintf %.17g per
//                           double, key text repeated every record).
//  * json_sink_write      — JsonFileSink end-to-end: render + buffer +
//                           stream to disk.
//  * columnar_sink_write  — ColumnarFileSink end-to-end: per-column
//                           encode (raw 8-byte doubles, varints,
//                           dictionary strings) + CRC framing + stream.
//                           The fabric's high-rate path; the summary
//                           record quotes columnar-vs-JSON write speedup
//                           (target >= 10x) and artifact size ratio (~5x).
//  * columnar_read        — read_columnar_file: full validation (CRCs,
//                           schema refs, cell ordering) + record
//                           reconstruction of the written artifact.
//
// The workload records mirror a fig5 sweep row: 15 fields, mostly
// doubles, two dictionary-friendly strings, a few counters.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/columnar.hpp"
#include "exp/sink.hpp"
#include "micro_common.hpp"

namespace {

using namespace manet;

exp::Record make_record(std::uint64_t i) {
  const double x = static_cast<double>(i);
  exp::Record rec;
  rec.add("bench", "fig5_detection_static")
      .add("load", 0.3 + 0.3 * static_cast<double>(i % 3))
      .add("pm", 10.0 + static_cast<double>(i % 8) * 12.5)
      .add("sample_size", 10.0 * static_cast<double>(1 + i % 4))
      .add("rate_pps", 17.25 + x * 1e-3)
      .add("runs", static_cast<std::int64_t>(2))
      .add("sim_time_s", 300.0)
      .add("windows", static_cast<std::uint64_t>(100 + i % 57))
      .add("flagged", static_cast<std::uint64_t>(i % 41))
      .add("flagged_statistical", static_cast<std::uint64_t>(i % 37))
      .add("detection_rate", 1.0 / (1.0 + x))
      .add("statistical_rate", 1.0 / (2.0 + x))
      .add("intensity", 0.5921 + 1e-7 * x)
      .add("wall_seconds", 1.25 + 1e-5 * x)
      .add("threads", static_cast<std::uint64_t>(8));
  return rec;
}

std::uint64_t file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<std::uint64_t>(size);
}

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir && *dir ? dir : "/tmp") + "/" + name;
}

}  // namespace

int main(int argc, char** argv) {
  bench::MicroHarness harness(
      "micro_sink", "Result-sink encodings: JSON vs binary columnar.", argc,
      argv);

  const std::size_t records = harness.reps(200000);
  // Pre-built record pool: the cases measure the SINK (render/encode +
  // stream), not Record construction, which both encodings share. 1024
  // distinct records cycle so dictionaries and value streams still vary.
  std::vector<exp::Record> pool;
  pool.reserve(1024);
  for (std::uint64_t i = 0; i < 1024; ++i) pool.push_back(make_record(i));
  const auto pooled = [&](std::uint64_t i) -> const exp::Record& {
    return pool[i & 1023];
  };
  const std::string json_path = temp_path("micro_sink.json");
  const std::string mcol_path = temp_path("micro_sink.mcol");
  exp::ColumnarMeta meta;
  meta.sweep = "micro_sink";
  meta.bench = "micro_sink";
  meta.total_cells = records;
  meta.cell_begin = 0;
  meta.cell_end = records;

  harness.run_case("render_json", [&] {
    std::size_t bytes = 0;
    for (std::uint64_t i = 0; i < records; ++i) {
      bytes += pooled(i).to_json().size();
    }
    bench::keep(bytes);
    return records;
  });

  double json_wall = 0.0;
  double mcol_wall = 0.0;
  harness.run_case(
      "json_sink_write",
      [&] {
        const auto start = std::chrono::steady_clock::now();
        {
          exp::JsonFileSink sink(json_path);
          for (std::uint64_t i = 0; i < records; ++i) {
            sink.record(pooled(i));
          }
        }
        json_wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        return records;
      },
      [&](exp::Record& rec) { rec.add("bytes", file_size(json_path)); });

  harness.run_case(
      "columnar_sink_write",
      [&] {
        const auto start = std::chrono::steady_clock::now();
        {
          exp::ColumnarFileSink sink(mcol_path, meta);
          for (std::uint64_t i = 0; i < records; ++i) {
            sink.begin_cell(i);
            sink.record(pooled(i));
          }
        }
        mcol_wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        return records;
      },
      [&](exp::Record& rec) { rec.add("bytes", file_size(mcol_path)); });

  harness.run_case("columnar_read", [&] {
    const exp::ColumnarFile file = exp::read_columnar_file(mcol_path);
    bench::keep(file.records.size());
    return records;
  });

  // Headline comparison, one record so readers get the ratios without
  // re-deriving them from the per-case rows.
  const std::uint64_t json_bytes = file_size(json_path);
  const std::uint64_t mcol_bytes = file_size(mcol_path);
  const double write_speedup = mcol_wall > 0.0 ? json_wall / mcol_wall : 0.0;
  const double size_ratio =
      mcol_bytes > 0 ? static_cast<double>(json_bytes) /
                           static_cast<double>(mcol_bytes)
                     : 0.0;
  harness.run_case(
      "columnar_vs_json",
      [&] {
        std::printf("    columnar write speedup: %.1fx, artifact size: "
                    "%.1fx smaller (%llu -> %llu bytes)\n",
                    write_speedup, size_ratio,
                    static_cast<unsigned long long>(json_bytes),
                    static_cast<unsigned long long>(mcol_bytes));
        return static_cast<std::uint64_t>(1);
      },
      [&](exp::Record& rec) {
        rec.add("write_speedup", write_speedup)
            .add("size_ratio", size_ratio)
            .add("json_bytes", json_bytes)
            .add("columnar_bytes", mcol_bytes);
      });

  std::remove(json_path.c_str());
  std::remove(mcol_path.c_str());
  return 0;
}
