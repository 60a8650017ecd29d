// Microbenchmarks of the streaming detection path (detect/trace.hpp,
// detect/replay.hpp): how fast a recorded observation trace moves through
// the wire format and through the full offline detection pipeline.
//
//  * trace_decode     — parse + CRC-check a serialized .mtrace image
//                       into the reader's compact decoded form; ops are
//                       events (carrier edges included).
//  * trace_decode_edges / trace_decode_frames — the same over the
//                       workload's carrier edges alone (ops = edges) and
//                       over everything else (ops = frames): the decode
//                       cost per edge and per frame, separately.
//  * trace_serialize  — the writer side: frame, block, and checksum a
//                       recorded event stream back into wire bytes.
//  * replay_batch_*   — reconstruct the monitor world and pump every
//                       event through ObservationHub::consume with the
//                       batched pipeline and the given detector closing
//                       windows. This is the number the streaming path is
//                       judged by: frames/s (ops are decoded frames, the
//                       unit detection latency is quoted in) must clear
//                       1M/s; the per-record `events` field counts
//                       carrier edges too.
//  * replay_batch_wilcoxon_x16 — the same replay evaluating a 16-config
//                       (sample size x margin) monitor grid over the one
//                       recorded stream.
//  * replay_edges_only — replay of the carrier edges alone (ops = edges):
//                       what each edge costs the timeline and the ARMA
//                       fold, with no frame to close a window.
//
// The workload trace is recorded once per process from a fig5-style
// static-grid run (PM 65, saturating rate) — the same shape the
// live-vs-replay equivalence tests pin down byte-for-byte.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/replay.hpp"
#include "detect/sequential.hpp"
#include "detect/trace.hpp"
#include "micro_common.hpp"

namespace {

using namespace manet;

/// Records the workload trace once and caches the wire image.
const std::vector<std::uint8_t>& workload_trace() {
  static const std::vector<std::uint8_t> bytes = [] {
    detect::MultiDetectionConfig cfg;
    cfg.scenario.grid_rows = 3;
    cfg.scenario.grid_cols = 3;
    cfg.scenario.num_flows = 8;
    cfg.scenario.sim_seconds = 20;
    cfg.scenario.seed = 1301;
    cfg.rate_pps = 40.0;
    cfg.pm = 65.0;
    detect::MonitorConfig m;
    m.sample_size = 10;
    m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
    m.fixed_contenders = 20.0;
    cfg.monitors.push_back(m);
    detect::TraceRecorder recorder;
    cfg.trace = &recorder;
    detect::run_multi_detection_experiment(cfg);
    return recorder.writers().front()->serialize();
  }();
  return bytes;
}

/// The workload trace with only its carrier edges (`edges`) or only its
/// other events, re-serialized under the same header.
std::vector<std::uint8_t> split_trace(bool edges) {
  const detect::MemoryTraceReader reader(workload_trace());
  detect::TraceWriter writer(reader.header());
  for (const detect::ObservationEvent& ev : reader.events()) {
    if ((ev.kind == detect::ObservationKind::kCarrier) == edges) writer.record(ev);
  }
  return writer.serialize();
}

struct TraceCensus {
  std::size_t events = 0;
  std::size_t frames = 0;
};

TraceCensus census(const detect::MemoryTraceReader& reader) {
  TraceCensus c;
  c.events = reader.event_count();
  for (const auto& ev : reader.events()) {
    if (ev.kind == detect::ObservationKind::kFrame) ++c.frames;
  }
  return c;
}

/// Decodes `bytes` `base_reps` times; ops = what `unit` counts per decode.
void run_decode(bench::MicroHarness& h, const std::string& name,
                const std::vector<std::uint8_t>& bytes, std::size_t unit,
                std::size_t base_reps) {
  if (!h.enabled(name)) return;
  const std::size_t reps = h.reps(base_reps);
  std::size_t events = 0;
  h.run_case(
      name,
      [&] {
        for (std::size_t i = 0; i < reps; ++i) {
          detect::MemoryTraceReader reader(bytes);
          events = reader.event_count();
          bench::keep(events);
        }
        return static_cast<std::uint64_t>(reps * unit);
      },
      [&](exp::Record& rec) {
        rec.add("events", events).add("trace_bytes", bytes.size());
      });
}

/// Full offline detection over `bytes`; ops = decoded frames replayed, or
/// carrier edges when `per_edge`. `configs` > 1 replays a (sample size x
/// margin) monitor grid over the one recorded stream — the shape the
/// batched lanes exist for.
void run_replay(bench::MicroHarness& h, const std::string& name,
                const std::vector<std::uint8_t>& bytes, bool per_edge,
                detect::DetectorKind kind, std::size_t configs,
                std::size_t base_reps) {
  if (!h.enabled(name)) return;
  const detect::MemoryTraceReader reader(bytes);
  const TraceCensus c = census(reader);
  const std::size_t unit = per_edge ? reader.edge_count() : c.frames;
  std::vector<detect::MonitorConfig> monitors;
  const std::size_t sample_sizes[] = {10, 25, 50, 100};
  for (std::size_t i = 0; i < configs; ++i) {
    detect::MonitorConfig m;
    m.sample_size = sample_sizes[i % 4];
    m.margin_fraction = 0.05 + 0.01 * static_cast<double>(i / 4);
    m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
    m.fixed_contenders = 20.0;
    m.detector = kind;
    monitors.push_back(m);
  }

  const std::size_t reps = h.reps(base_reps);
  std::uint64_t windows = 0;
  h.run_case(
      name,
      [&] {
        for (std::size_t i = 0; i < reps; ++i) {
          detect::ReplaySession session(reader.header(), monitors);
          session.run(reader);
          windows = session.views().front()->stats().windows;
          bench::keep(windows);
        }
        return static_cast<std::uint64_t>(reps * unit);
      },
      [&](exp::Record& rec) {
        rec.add("frames", c.frames)
            .add("events", c.events)
            .add("edges", reader.edge_count())
            .add("configs", configs)
            .add("windows", windows);
      });
}

}  // namespace

int main(int argc, char** argv) {
  bench::MicroHarness h(
      "micro_ingest",
      "Streaming detection path: trace wire-format decode/serialize and "
      "full offline replay through the batched detection pipeline.",
      argc, argv);

  const auto& trace = workload_trace();
  run_decode(h, "trace_decode", trace, detect::MemoryTraceReader(trace).event_count(),
             50);
  if (h.enabled("trace_decode_edges") || h.enabled("trace_decode_frames") ||
      h.enabled("replay_edges_only")) {
    const auto edges = split_trace(true);
    const auto frames = split_trace(false);
    run_decode(h, "trace_decode_edges", edges,
               detect::MemoryTraceReader(edges).edge_count(), 50);
    run_decode(h, "trace_decode_frames", frames,
               census(detect::MemoryTraceReader(frames)).frames, 50);
    run_replay(h, "replay_edges_only", edges, true, detect::DetectorKind::kWilcoxon,
               1, 20);
  }

  if (h.enabled("trace_serialize")) {
    const detect::MemoryTraceReader reader(trace);
    const std::size_t reps = h.reps(50);
    h.run_case(
        "trace_serialize",
        [&] {
          std::uint64_t total = 0;
          for (std::size_t i = 0; i < reps; ++i) {
            detect::TraceWriter writer(reader.header());
            for (const auto& ev : reader.events()) writer.record(ev);
            const auto bytes = writer.serialize();
            total += reader.event_count();
            bench::keep(bytes.data());
          }
          return total;  // ops = events serialized
        },
        [&](exp::Record& rec) { rec.add("events", reader.event_count()); });
  }

  run_replay(h, "replay_batch_wilcoxon", trace, false,
             detect::DetectorKind::kWilcoxon, 1, 20);
  run_replay(h, "replay_batch_cusum", trace, false, detect::DetectorKind::kCusum, 1,
             20);
  run_replay(h, "replay_batch_sprt", trace, false, detect::DetectorKind::kSprt, 1, 20);
  run_replay(h, "replay_batch_wilcoxon_x16", trace, false,
             detect::DetectorKind::kWilcoxon, 16, 10);
  return 0;
}
