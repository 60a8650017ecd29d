// Names and units of every metric manet_bench prints; BENCHMARK.json at the
// repository root lists the same names (the self-test checks they agree).
#pragma once

namespace manet::benchmark {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (--trace 0).
inline constexpr MetricSpec kEndToEnd[] = {
    {"sim_s_per_wall_s", "sim-s/s"}, {"replay_frames_per_s", "frames/s"},
    {"setup_s", "s"},                {"peak_rss_mb", "MiB"},
    {"success_rate", "ratio"},
};

/// Printed by traced runs (--trace 1). A metric that does not apply to a
/// workload (e.g. AODV counts on the one-hop grids) reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"exp.calibrate_s", "s"},
    {"exp.sink_s", "s"},
    {"exp.sink_ns_per_record", "ns"},
    {"exp.sink_bytes", "bytes"},
    {"net.build_s", "s"},
    {"net.workload_s", "s"},
    {"net.aodv.rreq_sent", "count"},
    {"net.aodv.rreq_per_delivered", "ratio"},
    {"net.aodv.forwarded", "count"},
    {"net.aodv.discovery_failures", "count"},
    {"sim.run_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_sim_s", "1/sim-s"},
    {"sim.ns_per_event", "ns"},
    {"phy.transmissions", "count"},
    {"phy.candidates_per_tx", "count"},
    {"phy.prefilter_reject_ratio", "ratio"},
    {"phy.link_budget_hit_ratio", "ratio"},
    {"phy.cell_migrations", "count"},
    {"phy.index_memory_bytes", "bytes"},
    {"phy.cs_compactions", "count"},
    {"phy.cs_peak_transitions", "count"},
    {"mac.rts_sent", "count"},
    {"mac.retries", "count"},
    {"mac.rx_errors", "count"},
    {"mac.ack_ratio", "ratio"},
    {"mac.backoff_slots_per_backoff", "slots"},
    {"detect.rts_observed", "count"},
    {"detect.samples_per_rts", "ratio"},
    {"detect.windows", "count"},
    {"detect.windows_skipped", "count"},
    {"detect.trace.bytes", "bytes"},
    {"detect.trace.decode_s", "s"},
    {"detect.trace.decode_ns_per_event", "ns"},
    {"detect.replay_s", "s"},
    {"detect.replay_ns_per_frame", "ns"},
    {"detect.stats.wilcoxon_ns_per_test.exact", "ns"},
    {"detect.stats.wilcoxon_ns_per_test.approx", "ns"},
    {"detect.stats.wilcoxon_batch_ns_per_test.exact", "ns"},
    {"detect.stats.wilcoxon_batch_ns_per_test.approx", "ns"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"detection_rate", "ratio"},
    {"false_alarm_rate", "ratio"},
    {"request_delivery_ratio", "ratio"},
    {"error_rate", "ratio"},
};

}  // namespace manet::benchmark
