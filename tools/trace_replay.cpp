// trace_replay: record a detection run as binary observation traces
// (.mtrace, detect/trace.hpp) and re-run the detectors offline from those
// files — the CLI face of the streaming detection path.
//
// Modes (--mode=):
//   record  Run a live simulation with the given scenario/monitor flags,
//           write one .mtrace per monitoring node into --dir, and emit the
//           canonical results text.
//   replay  Read every .mtrace in --dir (sorted by file name, which is the
//           recorded monitor-creation order) and run the same monitor
//           configs over them. The canonical results text is byte-identical
//           to the recording run's — scripts/check.sh diffs the two.
//   info    Dump one trace file's header, event census, and encoding
//           density: carrier-edge runs, bytes per edge (run records over
//           edges) and bytes per frame (the whole file over its frames).
//
// The monitor configuration is NOT stored in a trace (a trace is pure
// observation: what the node heard, not what anyone concluded from it), so
// a replay must be given the same --sample_sizes/--detectors/--alpha/
// --margin/--gap_bound/--warmup flags as the recording run.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/replay.hpp"
#include "detect/sequential.hpp"
#include "detect/trace.hpp"
#include "flag_set.hpp"

using namespace manet;

namespace {

/// The deterministic slice of a MultiDetectionResult, one line-oriented
/// record per monitor config. Excludes measured_rho (live-only: replay has
/// no ground-truth channel to measure) and wall-clock fields.
void emit_results(std::FILE* out, const detect::MultiDetectionResult& result) {
  std::fprintf(out, "handoffs %llu\nmonitor_nodes %llu\n",
               static_cast<unsigned long long>(result.handoffs),
               static_cast<unsigned long long>(result.monitor_nodes));
  for (std::size_t i = 0; i < result.per_config.size(); ++i) {
    const auto& r = result.per_config[i];
    const auto& s = r.stats;
    std::fprintf(out, "config %zu windows %llu flagged %llu statistical %llu\n",
                 i, static_cast<unsigned long long>(r.windows),
                 static_cast<unsigned long long>(r.flagged),
                 static_cast<unsigned long long>(r.flagged_statistical));
    std::fprintf(
        out,
        "config %zu stats rts %llu samples %llu windows %llu flagged %llu "
        "seqoff %llu attempt %llu impossible %llu no_anchor %llu "
        "long_window %llu queue_gap %llu resyncs %llu lost %llu "
        "impaired %llu first_flag %lld ordinal %llu\n",
        i, static_cast<unsigned long long>(s.rts_observed),
        static_cast<unsigned long long>(s.samples),
        static_cast<unsigned long long>(s.windows),
        static_cast<unsigned long long>(s.flagged_windows),
        static_cast<unsigned long long>(s.seq_off_violations),
        static_cast<unsigned long long>(s.attempt_violations),
        static_cast<unsigned long long>(s.impossible_backoff),
        static_cast<unsigned long long>(s.skipped_no_anchor),
        static_cast<unsigned long long>(s.skipped_long_window),
        static_cast<unsigned long long>(s.skipped_queue_gap),
        static_cast<unsigned long long>(s.seq_off_resyncs),
        static_cast<unsigned long long>(s.frames_lost),
        static_cast<unsigned long long>(s.windows_discarded_impaired),
        static_cast<long long>(s.first_flag_time),
        static_cast<unsigned long long>(s.windows_to_first_flag));

    // FNV-1a over the full window decision stream: one hex digest stands
    // in for every (at, p_less, flags) tuple, so a single changed window
    // anywhere flips the canonical text.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    for (const detect::WindowResult& w : r.window_log) {
      mix(static_cast<std::uint64_t>(w.at));
      std::uint64_t bits = 0;
      static_assert(sizeof bits == sizeof w.p_less);
      __builtin_memcpy(&bits, &w.p_less, sizeof bits);
      mix(bits);
      mix((w.statistical_flag ? 2u : 0u) | (w.deterministic_flag ? 1u : 0u));
    }
    std::fprintf(out, "config %zu window_digest %016" PRIx64 " over %zu\n", i,
                 h, r.window_log.size());
  }
}

std::vector<detect::MonitorConfig> monitors_from_flags(
    const bench::FlagSet& flags) {
  std::vector<detect::MonitorConfig> monitors;
  for (const std::string& name : flags.get_name_list("detectors")) {
    const detect::DetectorKind kind = detect::detector_from_name(name);
    for (double ss : flags.get_double_list("sample_sizes")) {
      detect::MonitorConfig m;
      m.sample_size = static_cast<std::size_t>(ss);
      m.alpha = flags.get_double("alpha");
      m.margin_fraction = flags.get_double("margin");
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;  // grid, Section 5
      m.fixed_contenders = 20.0;
      m.rts_gap_bound = flags.get_int("gap_bound") != 0;
      m.detector = kind;
      monitors.push_back(m);
    }
  }
  return monitors;
}

std::FILE* open_results(const std::string& path) {
  if (path.empty()) return stdout;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "trace_replay: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return f;
}

int run_record(const bench::FlagSet& flags) {
  detect::MultiDetectionConfig cfg;
  cfg.scenario.sim_seconds = flags.get_double("sim_time");
  cfg.scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.rate_pps = flags.get_double("rate");
  cfg.pm = flags.get_double("pm");
  cfg.warmup_s = flags.get_double("warmup");
  cfg.collect_windows = true;
  if (flags.get_int("mobile") != 0) {
    cfg.scenario.mobility = net::MobilityKind::kRandomWaypoint;
    cfg.scenario.max_speed_mps = flags.get_double("max_speed");
    cfg.scenario.pause_s = flags.get_double("pause");
    cfg.mobile_handoff = true;
  }
  cfg.monitors = monitors_from_flags(flags);

  detect::TraceRecorder recorder;
  cfg.trace = &recorder;
  const auto result = detect::run_multi_detection_experiment(cfg);

  const std::filesystem::path dir(flags.get("dir"));
  std::filesystem::create_directories(dir);
  for (std::size_t i = 0; i < recorder.writers().size(); ++i) {
    const detect::TraceWriter& writer = *recorder.writers()[i];
    char name[64];
    std::snprintf(name, sizeof name, "trace_%03zu_node%u.mtrace", i,
                  writer.header().node);
    writer.write_file((dir / name).string());
    std::fprintf(stderr, "recorded %s (%zu events)\n", (dir / name).c_str(),
                 writer.events_recorded());
  }

  std::FILE* out = open_results(flags.get("results"));
  emit_results(out, result);
  if (out != stdout) std::fclose(out);
  return 0;
}

int run_replay(const bench::FlagSet& flags) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(flags.get("dir"))) {
    if (entry.path().extension() == ".mtrace") paths.push_back(entry.path());
  }
  if (paths.empty()) {
    std::fprintf(stderr, "trace_replay: no .mtrace files in %s\n",
                 flags.get("dir").c_str());
    return 1;
  }
  std::sort(paths.begin(), paths.end());  // recorded creation order

  std::vector<std::unique_ptr<detect::FileTraceReader>> readers;
  std::vector<const detect::MemoryTraceReader*> ptrs;
  for (const auto& path : paths) {
    readers.push_back(std::make_unique<detect::FileTraceReader>(path.string()));
    ptrs.push_back(readers.back().get());
  }

  const auto result =
      detect::replay_detection(ptrs, monitors_from_flags(flags),
                               flags.get_double("warmup"),
                               /*collect_windows=*/true);
  std::FILE* out = open_results(flags.get("results"));
  emit_results(out, result);
  if (out != stdout) std::fclose(out);
  return 0;
}

int run_info(const bench::FlagSet& flags) {
  const detect::FileTraceReader reader(flags.get("file"));
  const detect::TraceHeader& h = reader.header();
  std::printf("node %u  start %lld  targets", h.node,
              static_cast<long long>(h.start_time));
  for (NodeId t : h.targets) std::printf(" %u", t);
  std::printf("\nslot %lld us  cw %u..%u  seq_off_modulo %u\n",
              static_cast<long long>(h.params.slot_time / kMicrosecond),
              h.params.cw_min, h.params.cw_max, h.params.seq_off_modulo);
  std::size_t counts[4] = {0, 0, 0, 0};
  for (const detect::ObservationEvent& ev : reader.events()) {
    ++counts[static_cast<std::size_t>(ev.kind)];
  }
  const SimTime last = reader.end_time();
  std::printf("events %zu: %zu frames, %zu carrier edges, %zu outages, "
              "%zu markers\nlast event at %lld (%.3f s span)\n",
              reader.event_count(), counts[0], counts[1], counts[2], counts[3],
              static_cast<long long>(last),
              time_to_seconds(last - h.start_time));
  const auto per = [](double bytes, std::size_t n) {
    return n ? bytes / static_cast<double>(n) : 0.0;
  };
  const auto file_bytes =
      static_cast<double>(std::filesystem::file_size(flags.get("file")));
  std::printf("edge runs %zu (%.2f edges/run): %.2f B/edge; %.0f B file, "
              "%.1f B/frame\n",
              reader.edge_run_count(),
              per(static_cast<double>(reader.edge_count()), reader.edge_run_count()),
              per(static_cast<double>(reader.edge_run_bytes()), reader.edge_count()),
              file_bytes, per(file_bytes, counts[0]));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Record detection runs as binary .mtrace observation traces and "
      "replay the detectors offline from them (byte-identical results).");
  flags.add_string("mode", "replay", "record | replay | info");
  flags.add_string("dir", "traces", "trace directory (written by record, read by replay)");
  flags.add_string("file", "", "one .mtrace file to describe (info mode)");
  flags.add_string("results", "",
                   "write the canonical results text here (default stdout)");
  flags.add_double("sim_time", 30, "simulated seconds (record)");
  flags.add_int("seed", 101, "random seed (record)");
  flags.add_double("rate", 25, "per-flow packet rate, packets/s (record)");
  flags.add_double("pm", 65, "percentage of misbehavior of the tagged node (record)");
  flags.add_int("mobile", 0, "1 = random waypoint + monitor handoff (record)");
  flags.add_double("max_speed", 20, "random waypoint max speed, m/s (record)");
  flags.add_double("pause", 0, "random waypoint pause time, s (record)");
  flags.add_count_list("sample_sizes", "10,25", "Wilcoxon/sequential window sizes");
  flags.add_name_list("detectors", "wilcoxon",
                      "detector kinds (wilcoxon, cusum, sprt); one monitor "
                      "config per detector x sample size");
  flags.add_double("alpha", 0.01, "significance level");
  flags.add_double("margin", 0.10, "permissible deficit fraction");
  flags.add_int("gap_bound", 0, "1 = enable the anchorless RTS-gap bound");
  flags.add_double("warmup", 3, "seconds excluded from window readout");
  flags.parse_or_exit(argc, argv);

  const std::string& mode = flags.get("mode");
  try {
    if (mode == "record") return run_record(flags);
    if (mode == "replay") return run_replay(flags);
    if (mode == "info") return run_info(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_replay: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "flag error: --mode must be record, replay, or info\n");
  return 1;
}
