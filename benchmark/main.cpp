// manet_bench: runs one workload for a fixed wall-clock budget and
// prints its metrics (see README.md).
//
//   manet_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--smoke] [--work-dir DIR] [--out FILE] [--spans FILE]
//               [--rev REV]
//
// A run first performs several cold set-ups (each with fresh empty
// MANET_RATE_CACHE / MANET_ARTIFACTS locations), then repeats the
// workload's measured work on the same inputs until the budget is spent.
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates traced and untraced repetitions and reports the per-layer
// metrics. The last line of standard output is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/sink.hpp"
#include "metrics.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace manet::benchmark;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
  std::string out;
  std::string spans;
  std::string rev = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: manet_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR] [--out FILE] [--spans FILE] "
               "[--rev REV]\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--work-dir") {
        a.work_dir = value;
      } else if (key == "--out") {
        a.out = value;
      } else if (key == "--spans") {
        a.spans = value;
      } else if (key == "--rev") {
        a.rev = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0) || !std::isfinite(a.seconds)) usage("--seconds must be positive");
  return a;
}

/// Refuses to time an unoptimized build (e.g. a tree configured with an
/// empty CMAKE_BUILD_TYPE, which adds no optimization flag).
void require_optimized_build() {
  std::string problem;
#ifndef __OPTIMIZE__
  problem = "compiled without optimization";
#endif
#ifndef NDEBUG
  problem = "compiled with assertions (NDEBUG unset)";
#endif
  if (std::string(MANET_BENCH_BUILD_TYPE) != "Release") {
    problem = "build type '" + std::string(MANET_BENCH_BUILD_TYPE) + "' is not Release";
  }
  if (!problem.empty()) {
    std::fprintf(stderr, "refusing to time this build: %s\n", problem.c_str());
    std::exit(3);
  }
}

/// A fresh empty directory for one set-up or repetition, installed as the
/// rate-cache and artifact-store locations so nothing is ever warm.
std::string fresh_dir(const std::string& root, const std::string& name) {
  const fs::path dir = fs::path(root) / name;
  fs::remove_all(dir);
  fs::create_directories(dir / "artifacts");
  ::setenv("MANET_RATE_CACHE", (dir / "rates.txt").c_str(), 1);
  ::setenv("MANET_ARTIFACTS", (dir / "artifacts").c_str(), 1);
  return dir.string();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string build_info(const Args& args) {
  return "rev=" + args.rev + " build_type=" + MANET_BENCH_BUILD_TYPE + " cxx_flags='" +
         MANET_BENCH_CXX_FLAGS + "' compiler='g++ " + __VERSION__ +
         "' nproc=" + std::to_string(std::thread::hardware_concurrency());
}

/// Per span name: the median over root spans of the summed duration of
/// that name inside the root (roots that lack the name are skipped).
std::map<std::string, double> span_medians(const SpanTrace& trace) {
  const auto& spans = trace.spans();
  const std::vector<int> roots = trace.roots();
  std::map<std::string, std::map<int, double>> sums;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    sums[spans[i].name][roots[i]] +=
        1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  std::map<std::string, double> out;
  for (const auto& [name, per_root] : sums) {
    std::vector<double> v;
    for (const auto& [root, s] : per_root) v.push_back(s);
    out[name] = median(v);
  }
  return out;
}

/// Smallest share of a repetition's wall time that its direct children
/// cover, over every traced repetition.
double min_coverage(const SpanTrace& trace) {
  const auto& spans = trace.spans();
  std::map<int, double> covered;
  for (const auto& s : spans) {
    if (s.parent >= 0 && spans[s.parent].name == "rep") {
      covered[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double worst = 1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "rep") continue;
    worst = std::min(worst, covered[static_cast<int>(i)] /
                                static_cast<double>(spans[i].end_ns - spans[i].start_ns));
  }
  return worst;
}

std::string result_json(bool correct, int attempted, int failed,
                        const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    if (std::isfinite(metrics[i].second)) {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].second);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    json += std::string(i ? ", " : "") + "\"" + metrics[i].first.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].first.unit + "\"}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  require_optimized_build();

  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(args.workload, {args.seed, args.smoke});
  } catch (const std::exception& e) {
    usage(e.what());
  }
  std::printf("build: %s\n", build_info(args).c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.smoke ? " smoke" : "");
  std::fflush(stdout);

  const std::string work_root =
      (fs::path(args.work_dir) /
       (args.workload + "-" + std::to_string(args.seed) + "-" + std::to_string(::getpid())))
          .string();
  SpanTrace trace;
  trace.set_enabled(args.trace);

  // Cold set-ups: three before the first repetition, then more between
  // repetitions whenever set-ups have taken less than a fifth of the run,
  // so that cheap set-ups are sampled across the whole run rather than in
  // its first second (the shared machine's speed drifts over seconds). A
  // failure here leaves nothing to measure.
  std::vector<double> setup_s;
  const auto run_start = Clock::now();
  const auto set_up = [&] {
    const std::string dir =
        fresh_dir(work_root, "setup-" + std::to_string(setup_s.size()));
    double wall = 0.0;
    {
      ScopedSpan root(trace, "setup", &wall);
      workload->setup(trace, dir);
    }
    setup_s.push_back(wall);
    fs::remove_all(dir);
  };
  const auto setups_due = [&] {
    double total = 0.0;
    for (const double s : setup_s) total += s;
    return !args.smoke && setup_s.size() < 200 && total < 0.2 * seconds_since(run_start);
  };
  try {
    for (int k = 0; k < (args.smoke ? 1 : 3); ++k) set_up();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    fs::remove_all(work_root);
    return 1;
  }

  // Measured repetitions, all on the same inputs. In traced runs every
  // other repetition runs untraced, for the overhead ratio.
  const int min_reps = args.trace ? (args.smoke ? 2 : 4) : (args.smoke ? 2 : 3);
  std::vector<RepResult> results;
  std::vector<double> traced_wall, untraced_wall;
  std::map<std::string, std::vector<double>> probe_values;
  std::string first_digest;
  int attempted = 0, failed = 0;
  const auto start = Clock::now();
  while (attempted < min_reps || seconds_since(start) < args.seconds) {
    const bool traced = args.trace && attempted % 2 == 0;
    trace.set_enabled(traced);
    try {
      while (setups_due()) set_up();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "set-up failed: %s\n", e.what());
      fs::remove_all(work_root);
      return 1;
    }
    const std::string dir = fresh_dir(work_root, "rep-" + std::to_string(attempted));
    ++attempted;
    double wall = 0.0;
    try {
      RepResult r;
      {
        ScopedSpan root(trace, "rep", &wall);
        r = workload->run(trace, dir);
      }
      if (traced) {
        for (const auto& [name, value] : workload->probe(trace)) {
          probe_values[name].push_back(value);
        }
      }
      if (first_digest.empty()) first_digest = r.digest;
      if (r.digest != first_digest) {
        r.failures.push_back("output digest " + r.digest + " differs from the first " +
                             first_digest);
      }
      for (const auto& f : r.failures) {
        std::fprintf(stderr, "repetition %d: %s\n", attempted - 1, f.c_str());
      }
      if (!r.failures.empty()) ++failed;
      std::printf("rep %d%s: %.3f s; live %.3f s (%.4g sim-s/s); replay %.3f s (%.4g frames/s)\n",
                  attempted - 1, traced ? " traced" : "", wall, r.live_s,
                  ratio(r.sim_seconds, r.live_s), r.replay_s, ratio(r.replay_frames, r.replay_s));
      std::fflush(stdout);
      results.push_back(std::move(r));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "repetition %d failed: %s\n", attempted - 1, e.what());
      ++failed;
    }
    (traced ? traced_wall : untraced_wall).push_back(wall);
    fs::remove_all(dir);
  }
  trace.set_enabled(false);
  fs::remove_all(work_root);

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (!args.trace) {
    // Rates pool all repetitions (total work over total time). The shared
    // machine alternates between fast and slow phases lasting seconds; a
    // median over repetitions flips between the two phase speeds from
    // run to run, while the pooled rate moves with the slow share.
    double sim_s = 0, live_s = 0, frames = 0, replay_s = 0;
    for (const RepResult& r : results) {
      sim_s += r.sim_seconds;
      live_s += r.live_s;
      frames += r.replay_frames;
      replay_s += r.replay_s;
    }
    const double values[] = {
        ratio(sim_s, live_s),
        ratio(frames, replay_s),
        median(setup_s),
        peak_rss_mib(),
        ratio(attempted - failed, attempted),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    // Counts are identical in every repetition; times are medians.
    std::map<std::string, double> v;
    if (!results.empty()) {
      v.insert(results.front().counters.begin(), results.front().counters.end());
      v["detect.replay_frames"] = results.front().replay_frames;
    }
    for (const auto& [name, seconds] : span_medians(trace)) v[name + "_s"] = seconds;
    v["exp.sink_ns_per_record"] = ratio(v["exp.sink_s"] * 1e9, v["exp.sink_records"]);
    v["sim.ns_per_event"] = ratio(v["sim.run_s"] * 1e9, v["sim.events"]);
    v["detect.trace.decode_ns_per_event"] =
        ratio(v["detect.trace.decode_s"] * 1e9, v["detect.decoded_events"]);
    v["detect.replay_ns_per_frame"] =
        ratio(v["detect.replay_s"] * 1e9, v["detect.replay_frames"]);
    for (const auto& [name, values] : probe_values) v[name] = median(values);
    v["trace.overhead_ratio"] = ratio(median(traced_wall), median(untraced_wall));
    v["trace.coverage"] = min_coverage(trace);
    v["error_rate"] = ratio(failed, attempted);
    for (const MetricSpec& spec : kPerLayer) metrics.emplace_back(spec, v[spec.name]);
  }

  bool correct = failed == 0 && !results.empty();
  for (const auto& [spec, value] : metrics) {
    if (!std::isfinite(value)) correct = false;
  }
  const std::string json = result_json(correct, attempted, failed, metrics);

  if (!args.spans.empty()) trace.write_json(args.spans);
  if (!args.out.empty()) {
    std::FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"build\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
                 "\"output_digest\": \"%s\", \"result\": %s}\n",
                 manet::exp::json_escape(build_info(args)).c_str(), args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), first_digest.c_str(),
                 json.c_str());
    std::fclose(f);
  }
  std::printf("output_digest: %s\n", first_digest.c_str());
  std::printf("repetitions: %d attempted, %d failed\n", attempted, failed);
  std::printf("%s\n", json.c_str());
  return 0;
}
