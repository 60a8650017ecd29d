// The benchmark's three workloads (see README.md for why each exists):
//
//   paper_grid     Table-1 56-node static grid at load 0.9 with the
//                  Figure-5 bench's flow layout, the Figure-5 single
//                  monitor (sample sizes 10/25/50/100), PM 50 and PM 0;
//                  the monitor's trace is replayed offline.
//   allpairs_deg8  3x3 grid at 170 m, every neighbor of the tagged node
//                  runs 4 sizes x 40 margins (1280 monitors) at load 0.6,
//                  PM 50; per-window verdict log through ColumnarFileSink;
//                  every monitoring node's trace replayed offline.
//   scale_rwp_1k   1000 random-waypoint nodes, AODV request/response over
//                  50 flows at 2 req/s for 10 sim-s; 16 nodes'
//                  observation traces are recorded and replayed offline.
//
// Each workload derives all of its inputs from the seed, and every
// repetition of a run repeats the same inputs, so the deterministic
// outputs (counters, verdicts) must be identical across repetitions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "span_trace.hpp"

namespace manet::benchmark {

/// Deterministic per-repetition counts, keyed by per-layer metric name.
using Counters = std::map<std::string, double>;

struct RepResult {
  double sim_seconds = 0.0;    // simulated time covered by the live phase
  double live_s = 0.0;         // wall time of the live phase
  double replay_frames = 0.0;  // decoded frames replayed (all passes)
  double replay_s = 0.0;       // wall time of trace decode + replay
  Counters counters;           // deterministic: enters the digest
  std::string digest;          // md5 of the deterministic outputs
  std::vector<std::string> failures;  // broken invariants; empty when correct
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool smoke = false;  // a short run of the same shape (self-test)
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One cold set-up (load calibration, or network construction). Each
  /// call starts from a fresh empty `cache_dir`.
  virtual void setup(SpanTrace& trace, const std::string& cache_dir) = 0;

  /// One repetition of the measured work. `rep_dir` is a fresh empty
  /// directory for the repetition's files.
  virtual RepResult run(SpanTrace& trace, const std::string& rep_dir) = 0;

  /// Timings that need the last repetition's outputs (the Wilcoxon
  /// probe); empty for workloads without one. Run outside the
  /// repetition's root span, in traced runs only.
  virtual std::map<std::string, double> probe(SpanTrace&) { return {}; }
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

}  // namespace manet::benchmark
