#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <utility>

#include "crypto/md5.hpp"
#include "detect/experiment.hpp"
#include "detect/monitor_batch.hpp"
#include "detect/replay.hpp"
#include "detect/trace.hpp"
#include "detect/wilcoxon.hpp"
#include "exp/columnar.hpp"
#include "exp/rate_cache.hpp"
#include "mac/backoff.hpp"
#include "net/network.hpp"
#include "net/scale.hpp"

namespace manet::benchmark {

namespace {

constexpr double kWarmupS = 3.0;  // the library harness's default warm-up

// --- Digest of deterministic outputs --------------------------------------

class Digest {
 public:
  void add(const void* data, std::size_t len) {
    md5_.update(std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(data), len));
  }
  template <typename T>
  void add_value(const T& value) {
    add(&value, sizeof(value));
  }
  void add_window(const detect::WindowResult& w) {
    add_value(w.at);
    add_value(w.p_less);
    const std::uint8_t flags = (w.statistical_flag ? 1 : 0) | (w.deterministic_flag ? 2 : 0);
    add_value(flags);
  }
  void add_stats(const detect::MonitorStats& s) {
    for (const std::uint64_t v :
         {s.rts_observed, s.samples, s.windows, s.flagged_windows, s.seq_off_violations,
          s.attempt_violations, s.impossible_backoff, s.skipped_no_anchor,
          s.skipped_long_window, s.skipped_queue_gap, s.seq_off_resyncs, s.frames_lost,
          s.windows_discarded_impaired, s.windows_to_first_flag}) {
      add_value(v);
    }
    add_value(s.first_flag_time);
  }
  std::string hex() { return crypto::to_hex(md5_.finalize()); }

 private:
  crypto::Md5 md5_;
};

void max_into(Counters& c, const std::string& key, double value) {
  c[key] = std::max(c[key], value);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sums the simulator, channel, carrier-sense and MAC counters of one
/// network into `c` (raw sums; ratios are derived once at the end).
void add_network_counters(net::Network& net, Counters& c) {
  c["sim.events"] += static_cast<double>(net.simulator().dispatched_events());
  phy::Channel& channel = net.channel();
  const auto& cs = channel.cache_stats();
  c["phy.transmissions"] += static_cast<double>(channel.transmissions());
  c["phy.candidate_sets"] += static_cast<double>(cs.candidate_sets);
  c["phy.candidates_seen"] += static_cast<double>(cs.candidates_seen);
  c["phy.prefilter_rejects"] += static_cast<double>(cs.prefilter_rejects);
  c["phy.link_budget_hits"] += static_cast<double>(cs.link_budget_hits);
  c["phy.link_budget_misses"] += static_cast<double>(cs.link_budget_misses);
  c["phy.cell_migrations"] += static_cast<double>(cs.cell_migrations);
  max_into(c, "phy.index_memory_bytes", static_cast<double>(channel.index_memory_bytes()));
  for (NodeId i = 0; i < net.size(); ++i) {
    const auto& budget = net.timeline(i).budget_stats();
    c["phy.cs_compactions"] += static_cast<double>(budget.compactions);
    max_into(c, "phy.cs_peak_transitions", static_cast<double>(budget.peak_transitions));
    const mac::MacStats& m = net.mac(i).stats();
    c["mac.rts_sent"] += static_cast<double>(m.rts_sent);
    c["mac.retries"] += static_cast<double>(m.retries);
    c["mac.rx_errors"] += static_cast<double>(m.rx_errors);
    c["mac.packets_acked"] += static_cast<double>(m.packets_acked);
    c["mac.broadcasts_sent"] += static_cast<double>(m.broadcasts_sent);
    c["mac.packets_delivered"] += static_cast<double>(m.packets_delivered);
    c["mac.backoffs_started"] += static_cast<double>(m.backoffs_started);
    c["mac.backoff_slots_total"] += static_cast<double>(m.backoff_slots_total);
    if (const net::AodvRouter* router = net.router(i)) {
      const net::AodvStats& a = router->stats();
      c["net.aodv.rreq_sent"] += static_cast<double>(a.rreq_sent);
      c["net.aodv.forwarded"] += static_cast<double>(a.forwarded);
      c["net.aodv.discovery_failures"] += static_cast<double>(a.discovery_failures);
    }
  }
}

void add_monitor_counters(const detect::MonitorStats& s, Counters& c) {
  c["detect.rts_observed"] += static_cast<double>(s.rts_observed);
  c["detect.samples"] += static_cast<double>(s.samples);
  c["detect.windows"] += static_cast<double>(s.windows);
  c["detect.windows_skipped"] +=
      static_cast<double>(s.skipped_no_anchor + s.skipped_long_window + s.skipped_queue_gap);
}

/// The per-layer ratios, from the raw sums of a whole repetition.
void derive_ratios(double sim_seconds, Counters& c) {
  c["phy.candidates_per_tx"] = ratio(c["phy.candidates_seen"], c["phy.candidate_sets"]);
  c["phy.prefilter_reject_ratio"] =
      ratio(c["phy.prefilter_rejects"], c["phy.candidates_seen"]);
  c["phy.link_budget_hit_ratio"] =
      ratio(c["phy.link_budget_hits"], c["phy.link_budget_hits"] + c["phy.link_budget_misses"]);
  // Broadcasts complete without RTS or ACK but count as acked packets.
  c["mac.ack_ratio"] =
      ratio(c["mac.packets_acked"] - c["mac.broadcasts_sent"], c["mac.rts_sent"]);
  c["mac.backoff_slots_per_backoff"] =
      ratio(c["mac.backoff_slots_total"], c["mac.backoffs_started"]);
  c["sim.events_per_sim_s"] = ratio(c["sim.events"], sim_seconds);
  c["detect.samples_per_rts"] = ratio(c["detect.samples"], c["detect.rts_observed"]);
  c["net.aodv.rreq_per_delivered"] =
      ratio(c["net.aodv.rreq_sent"], c["net.requests_delivered"]);
  c["request_delivery_ratio"] =
      ratio(c["net.requests_delivered"], c["net.requests_generated"]);
  c["detection_rate"] = ratio(c["detect.flagged_pm50"], c["detect.windows_pm50"]);
  c["false_alarm_rate"] = ratio(c["detect.flagged_pm0"], c["detect.windows_pm0"]);
}

NodeId nearest_neighbor(net::Network& net, NodeId s) {
  const auto nbrs = net.neighbors(s, net.config().prop.tx_range_m, 0);
  if (nbrs.empty()) throw std::runtime_error("node has no neighbor at t=0");
  NodeId best = nbrs.front();
  double best_d = 1e300;
  const geom::Vec2 sp = net.position_of(s, 0);
  for (NodeId n : nbrs) {
    const double d = (net.position_of(n, 0) - sp).norm2();
    if (d < best_d) {
      best_d = d;
      best = n;
    }
  }
  return best;
}

/// Starts recording `node`'s observation stream, as the library harness
/// does when a node becomes a monitor (after its timeline and hub).
detect::TraceWriter& record_node(net::Network& net, detect::TraceRecorder& recorder,
                                 NodeId node, const std::vector<NodeId>& targets) {
  detect::TraceHeader header;
  header.node = node;
  header.start_time = net.simulator().now();
  header.params = net.mac(node).params();
  header.targets = targets;
  header.timeline = net.timeline(node).snapshot();
  detect::TraceWriter& writer = recorder.add(header);
  net.mac(node).add_observer(&writer);
  net.radio(node).add_listener(&writer);
  return writer;
}

std::vector<std::vector<std::uint8_t>> finish_traces(detect::TraceRecorder& recorder,
                                                     SimTime stop, Counters& c) {
  std::vector<std::vector<std::uint8_t>> traces;
  for (const auto& writer : recorder.writers()) {
    writer->marker(detect::MarkerCode::kTraceEnd, 0, stop);
    traces.push_back(writer->serialize());
    c["detect.trace.bytes"] += static_cast<double>(traces.back().size());
    c["detect.trace.events"] += static_cast<double>(writer->events_recorded());
  }
  return traces;
}

// --- Detection points -----------------------------------------------------
//
// The same experiment run_multi_detection_experiment performs for a solo
// PM attacker without handoff, assembled here from the public classes so
// the benchmark can time each layer and read every layer's counters.
// The self-test checks it against the library harness.

struct PointSpec {
  net::ScenarioConfig scenario;
  double rate_pps = 0.0;
  double pm = 0.0;
  std::vector<detect::MonitorConfig> monitors;
  bool all_pairs = false;
  /// Background flows (source, destination); empty means the scenario's
  /// random one-hop flows, as the library harness builds them.
  std::vector<std::pair<NodeId, NodeId>> flows;
};

struct PointResult {
  std::vector<detect::DetectionResult> per_config;  // post-warm-up, like the harness
  std::vector<std::vector<std::uint8_t>> traces;    // one per monitoring node
  std::string verdict_digest;
  /// Sample log of the first monitoring node's lanes with record_samples.
  std::vector<std::vector<detect::Monitor::SampleRecord>> sample_logs;
  mac::DcfParams params;
};

void tally(const detect::Monitor& view, SimTime warmup, detect::DetectionResult& out) {
  for (const detect::WindowResult& w : view.windows()) {
    if (w.at < warmup) continue;
    ++out.windows;
    if (w.flagged()) ++out.flagged;
    if (w.statistical_flag) ++out.flagged_statistical;
  }
  detect::accumulate_stats(out.stats, view.stats());
}

PointResult run_point(const PointSpec& spec, SpanTrace& trace, Counters& c,
                      exp::ColumnarFileSink* verdicts, double* live_s) {
  struct NodeMonitors {
    NodeId node = kInvalidNode;
    std::unique_ptr<detect::ObservationHub> hub;
    std::unique_ptr<detect::MonitorBatch> batch;
    std::vector<std::unique_ptr<detect::Monitor>> views;
  };
  // Trace writers outlive the network (observer registrations stay).
  detect::TraceRecorder recorder;
  std::unique_ptr<net::Network> net;
  std::vector<NodeMonitors> monitors;
  NodeId s = kInvalidNode;

  {
    ScopedSpan span(trace, "net.build");
    net = std::make_unique<net::Network>(spec.scenario);
    s = net->center_node();
    net->add_flow(s, nearest_neighbor(*net, s), spec.rate_pps);
    if (spec.flows.empty()) net->build_random_flows();
    for (const auto& [src, dst] : spec.flows) net->add_flow(src, dst, spec.rate_pps);
    net->set_flow_rates(spec.rate_pps);
    if (spec.pm > 0.0) {
      net->mac(s).set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(spec.pm));
    }
  }
  {
    ScopedSpan span(trace, "detect.attach", live_s);
    std::vector<NodeId> watchers;
    if (spec.all_pairs) {
      watchers = net->neighbors(s, net->config().prop.tx_range_m, 0);
      std::sort(watchers.begin(), watchers.end());
    } else {
      watchers = {nearest_neighbor(*net, s)};
    }
    for (const NodeId node : watchers) {
      NodeMonitors set;
      set.node = node;
      set.hub = std::make_unique<detect::ObservationHub>(net->simulator(), net->mac(node),
                                                         net->timeline(node));
      set.batch = std::make_unique<detect::MonitorBatch>(*set.hub);
      detect::MonitorFactory factory(*set.batch);
      for (const detect::MonitorConfig& mc : spec.monitors) {
        set.views.push_back(factory.with_config(mc).watch(s));
      }
      record_node(*net, recorder, node, {s});
      for (auto& view : set.views) view->set_active(true);
      recorder.find(node)->marker(detect::MarkerCode::kActivity, 1, net->simulator().now());
      monitors.push_back(std::move(set));
    }
  }
  const SimTime stop = seconds_to_time(spec.scenario.sim_seconds);
  {
    ScopedSpan span(trace, "sim.run", live_s);
    net->start_traffic(0, stop);
    net->run_until(stop);
  }
  PointResult result;
  {
    ScopedSpan span(trace, "detect.trace.write", live_s);
    result.traces = finish_traces(recorder, stop, c);
  }
  const SimTime warmup = seconds_to_time(kWarmupS);
  {
    ScopedSpan span(trace, "detect.readout", live_s);
    result.per_config.resize(spec.monitors.size());
    for (const NodeMonitors& set : monitors) {
      for (std::size_t ci = 0; ci < spec.monitors.size(); ++ci) {
        tally(*set.views[ci], warmup, result.per_config[ci]);
        add_monitor_counters(set.views[ci]->stats(), c);
      }
    }
    result.params = net->mac(s).params();
    for (std::size_t ci = 0; ci < spec.monitors.size(); ++ci) {
      if (spec.monitors[ci].record_samples) {
        result.sample_logs.push_back(monitors.front().views[ci]->sample_log());
      }
    }
  }
  if (verdicts != nullptr) {
    ScopedSpan span(trace, "exp.sink", live_s);
    for (const NodeMonitors& set : monitors) {
      for (std::size_t ci = 0; ci < spec.monitors.size(); ++ci) {
        const detect::MonitorConfig& mc = spec.monitors[ci];
        for (const detect::WindowResult& w : set.views[ci]->windows()) {
          exp::Record rec;
          rec.add("node", static_cast<std::uint64_t>(set.node))
              .add("config", static_cast<std::uint64_t>(ci))
              .add("sample_size", static_cast<std::uint64_t>(mc.sample_size))
              .add("margin", mc.margin_fraction)
              .add("at", static_cast<std::int64_t>(w.at))
              .add("p_less", w.p_less)
              .add("statistical", w.statistical_flag)
              .add("deterministic", w.deterministic_flag);
          verdicts->record(rec);
          c["exp.sink_records"] += 1.0;
        }
      }
    }
    verdicts->flush();
  }
  {
    ScopedSpan span(trace, "bench.check");
    Digest digest;
    for (const NodeMonitors& set : monitors) {
      for (const auto& view : set.views) {
        for (const detect::WindowResult& w : view->windows()) digest.add_window(w);
        digest.add_stats(view->stats());
      }
    }
    result.verdict_digest = digest.hex();
    add_network_counters(*net, c);
    for (std::size_t f = 0; f < net->flow_count(); ++f) {
      c["net.requests_generated"] += static_cast<double>(net->flow(f).generated());
    }
    c["net.requests_delivered"] = c["mac.packets_delivered"];
  }
  {
    ScopedSpan span(trace, "net.teardown");
    monitors.clear();
    net.reset();
  }
  return result;
}

/// Decodes and replays each trace `passes` times against `monitors`,
/// aggregating the first pass like the live readout. Returns the per-config
/// results; adds the frames replayed and the wall time to `r`.
std::vector<detect::DetectionResult> replay(
    const std::vector<std::vector<std::uint8_t>>& traces,
    const std::vector<detect::MonitorConfig>& monitors, int passes, SpanTrace& trace,
    RepResult& r) {
  std::vector<detect::DetectionResult> per_config(monitors.size());
  const SimTime warmup = seconds_to_time(kWarmupS);
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& bytes : traces) {
      std::unique_ptr<detect::MemoryTraceReader> reader;
      {
        ScopedSpan span(trace, "detect.trace.decode", &r.replay_s);
        reader = std::make_unique<detect::MemoryTraceReader>(bytes);
      }
      std::unique_ptr<detect::ReplaySession> session;
      {
        ScopedSpan span(trace, "detect.replay", &r.replay_s);
        session = std::make_unique<detect::ReplaySession>(reader->header(), monitors);
        session->run(*reader);
      }
      {
        ScopedSpan span(trace, "bench.check");
        r.counters["detect.decoded_events"] += static_cast<double>(reader->event_count());
        for (const auto& ev : reader->events()) {
          if (ev.kind == detect::ObservationKind::kFrame) r.replay_frames += 1.0;
        }
        if (pass == 0) {
          for (std::size_t ci = 0; ci < monitors.size(); ++ci) {
            tally(*session->views()[ci], warmup, per_config[ci]);
          }
        }
        session.reset();
        reader.reset();
      }
    }
  }
  return per_config;
}

void check_same_results(const std::vector<detect::DetectionResult>& live,
                        const std::vector<detect::DetectionResult>& other,
                        const std::string& what, RepResult& r) {
  for (std::size_t ci = 0; ci < live.size(); ++ci) {
    if (ci >= other.size() || live[ci].windows != other[ci].windows ||
        live[ci].flagged != other[ci].flagged || !(live[ci].stats == other[ci].stats)) {
      r.failures.push_back(what + " differs from the live run for config " +
                           std::to_string(ci));
      return;
    }
  }
}

/// Self-test only: run_point must reproduce the library harness exactly
/// (which always builds random background flows).
void check_against_library(const PointSpec& spec, const PointResult& point, RepResult& r) {
  detect::MultiDetectionConfig config;
  config.scenario = spec.scenario;
  config.rate_pps = spec.rate_pps;
  config.pm = spec.pm;
  config.monitors = spec.monitors;
  config.all_pairs = spec.all_pairs;
  config.warmup_s = kWarmupS;
  check_same_results(point.per_config,
                     detect::run_multi_detection_experiment(config).per_config,
                     "run_multi_detection_experiment", r);
}

void add_point_digest(const PointResult& point, Digest& digest) {
  digest.add(point.verdict_digest.data(), point.verdict_digest.size());
  for (const auto& pc : point.per_config) {
    digest.add_value(pc.windows);
    digest.add_value(pc.flagged);
    digest.add_value(pc.flagged_statistical);
    digest.add_stats(pc.stats);
  }
}

/// Digest over the counters (all deterministic) and whatever the workload
/// already folded into `digest`.
std::string finish_digest(const Counters& c, Digest& digest) {
  for (const auto& [name, value] : c) {
    digest.add(name.data(), name.size());
    digest.add_value(value);
  }
  return digest.hex();
}

/// Invariants every workload's outputs must satisfy.
void check_invariants(RepResult& r, bool expect_windows) {
  auto fail = [&](const std::string& what) { r.failures.push_back(what); };
  const auto get = [&](const char* key) {
    const auto it = r.counters.find(key);
    return it == r.counters.end() ? 0.0 : it->second;
  };
  for (const auto& [name, value] : r.counters) {
    if (!std::isfinite(value)) fail("non-finite counter " + name);
  }
  if (get("net.requests_delivered") > get("net.requests_generated")) {
    fail("delivered exceeds generated");
  }
  if (expect_windows && get("detect.windows") <= 0.0) fail("no detection windows");
  if (get("sim.events") <= 0.0) fail("no simulator events");
  if (r.replay_frames <= 0.0) fail("no frames replayed");
}

detect::MonitorConfig fig5_monitor(std::size_t sample_size, double margin) {
  detect::MonitorConfig m;
  m.sample_size = sample_size;
  m.alpha = 0.01;
  m.margin_fraction = margin;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;  // grid, Section 5
  m.fixed_contenders = 20.0;
  return m;
}

constexpr std::size_t kSampleSizes[] = {10, 25, 50, 100};

/// The scenario the per-flow rate is calibrated on: the workload's, with
/// the seed of the corresponding figure bench's default run. Like the
/// figure benches (calibrate once, run trials at other seeds), every run
/// offers the same per-flow rate whatever its --seed. At load 0.9 the
/// Table-1 grid's busy fraction saturates below the target for most flow
/// layouts, so a per-seed calibration lands on rates 8x apart (512 to
/// 4096 pkt/s per flow) and the work per simulated second with it.
net::ScenarioConfig calibration_scenario(net::ScenarioConfig scenario, std::uint64_t seed) {
  scenario.seed = seed;
  return scenario;
}

/// The random background flows the library harness builds for `scenario`
/// (the tagged center flow excluded).
std::vector<std::pair<NodeId, NodeId>> background_flows(const net::ScenarioConfig& scenario) {
  net::Network net(scenario);
  const NodeId s = net.center_node();
  net.add_flow(s, nearest_neighbor(net, s), 1.0);
  net.build_random_flows();
  std::vector<std::pair<NodeId, NodeId>> flows;
  for (std::size_t f = 1; f < net.flow_count(); ++f) {
    flows.emplace_back(net.flow(f).source(), net.flow(f).destination());
  }
  return flows;
}

// --- paper_grid -------------------------------------------------------------

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(const WorkloadOptions& options) : smoke_(options.smoke) {
    scenario_.seed = options.seed;  // Table-1 grid defaults otherwise
    scenario_.sim_seconds = options.smoke ? 8.0 : 40.0;
    for (std::size_t ss : kSampleSizes) monitors_.push_back(fig5_monitor(ss, 0.10));
    // One flow layout for every run: the figure bench's default one. How
    // busy the monitor's neighborhood is depends on the layout, and the
    // replay cost per frame grows with it (window accounting scans the
    // frames heard since the window opened), so per-seed layouts made
    // the replay rate and the memory swing by 2-3x from seed to seed.
    // --seed still drives the traffic, back-off and PRS randomness.
    flows_ = background_flows(calibration_scenario(scenario_, kFigureSeed));
  }

  void setup(SpanTrace& trace, const std::string& cache_dir) override {
    ScopedSpan span(trace, "exp.calibrate");
    exp::RateCache rates(calibration_scenario(scenario_, kFigureSeed), cache_dir + "/rates.txt");
    const double rate = rates.rate_for(0.9);
    if (rate_ > 0.0 && rate != rate_) throw std::runtime_error("calibration not repeatable");
    rate_ = rate;
  }

  RepResult run(SpanTrace& trace, const std::string&) override {
    RepResult r;
    Digest digest;
    for (const double pm : {50.0, 0.0}) {
      const PointSpec spec{scenario_, rate_, pm, monitors_, false, flows_};
      const PointResult point = run_point(spec, trace, r.counters, nullptr, &r.live_s);
      r.sim_seconds += scenario_.sim_seconds;
      add_point_digest(point, digest);
      const auto replayed = replay(point.traces, monitors_, kReplayPasses, trace, r);
      ScopedSpan span(trace, "bench.check");
      check_same_results(point.per_config, replayed, "replay", r);
      if (smoke_) {
        // The library harness builds random flows; check the single-monitor
        // wiring on those.
        PointSpec random_flows = spec;
        random_flows.flows.clear();
        Counters unused;
        check_against_library(random_flows,
                              run_point(random_flows, trace, unused, nullptr, nullptr), r);
      }
      const std::string tag = pm > 0.0 ? "pm50" : "pm0";
      for (const auto& pc : point.per_config) {
        r.counters["detect.windows_" + tag] += static_cast<double>(pc.windows);
        r.counters["detect.flagged_" + tag] += static_cast<double>(pc.flagged);
      }
    }
    ScopedSpan span(trace, "bench.check");
    derive_ratios(r.sim_seconds, r.counters);
    r.digest = finish_digest(r.counters, digest);
    check_invariants(r, true);
    return r;
  }

 private:
  static constexpr std::uint64_t kFigureSeed = 101;  // fig5_detection_static
  static constexpr int kReplayPasses = 4;
  bool smoke_;
  net::ScenarioConfig scenario_;
  std::vector<std::pair<NodeId, NodeId>> flows_;
  std::vector<detect::MonitorConfig> monitors_;
  double rate_ = 0.0;
};

// --- allpairs_deg8 ----------------------------------------------------------

class AllPairsDeg8 final : public Workload {
 public:
  explicit AllPairsDeg8(const WorkloadOptions& options) : smoke_(options.smoke) {
    scenario_.grid_rows = 3;
    scenario_.grid_cols = 3;
    scenario_.grid_spacing_m = 170.0;  // diagonals in range: degree 8
    scenario_.num_flows = 8;
    scenario_.seed = options.seed;
    scenario_.sim_seconds = options.smoke ? 8.0 : 60.0;
    // 40 margins x 4 sizes; the 0.10-margin lane of each size also keeps
    // its sample log for the Wilcoxon probe.
    for (int i = 0; i < 40; ++i) {
      const double margin = 0.02 + 0.0025 * i;
      for (std::size_t ss : kSampleSizes) {
        detect::MonitorConfig m = fig5_monitor(ss, margin);
        m.record_samples = (i == 32);
        monitors_.push_back(m);
      }
    }
  }

  void setup(SpanTrace& trace, const std::string& cache_dir) override {
    ScopedSpan span(trace, "exp.calibrate");
    exp::RateCache rates(calibration_scenario(scenario_, kFigureSeed), cache_dir + "/rates.txt");
    const double rate = rates.rate_for(0.6);
    if (rate_ > 0.0 && rate != rate_) throw std::runtime_error("calibration not repeatable");
    rate_ = rate;
  }

  RepResult run(SpanTrace& trace, const std::string& rep_dir) override {
    RepResult r;
    Digest digest;
    const PointSpec spec{scenario_, rate_, 50.0, monitors_, true, {}};
    PointResult point;
    {
      std::unique_ptr<exp::ColumnarFileSink> sink;
      const std::string path = rep_dir + "/verdicts.mcol";
      {
        ScopedSpan span(trace, "exp.sink", &r.live_s);
        exp::ColumnarMeta meta;
        meta.sweep = "allpairs_deg8";
        meta.bench = "manet_bench";
        meta.total_cells = 1;
        meta.cell_end = 1;
        sink = std::make_unique<exp::ColumnarFileSink>(path, meta);
      }
      point = run_point(spec, trace, r.counters, sink.get(), &r.live_s);
      ScopedSpan span(trace, "exp.sink", &r.live_s);
      sink.reset();
      r.counters["exp.sink_bytes"] = static_cast<double>(std::filesystem::file_size(path));
    }
    r.sim_seconds = scenario_.sim_seconds;
    add_point_digest(point, digest);
    const auto replayed = replay(point.traces, monitors_, 1, trace, r);
    ScopedSpan span(trace, "bench.check");
    check_same_results(point.per_config, replayed, "replay", r);
    if (smoke_) check_against_library(spec, point, r);
    for (const auto& pc : point.per_config) {
      r.counters["detect.windows_pm50"] += static_cast<double>(pc.windows);
      r.counters["detect.flagged_pm50"] += static_cast<double>(pc.flagged);
    }
    derive_ratios(r.sim_seconds, r.counters);
    r.digest = finish_digest(r.counters, digest);
    check_invariants(r, true);
    sample_logs_ = point.sample_logs;
    params_ = point.params;
    return r;
  }

  std::map<std::string, double> probe(SpanTrace& trace) override;

 private:
  static constexpr std::uint64_t kFigureSeed = 501;  // fig_allpairs_monitoring
  bool smoke_;
  net::ScenarioConfig scenario_;
  std::vector<detect::MonitorConfig> monitors_;
  double rate_ = 0.0;
  std::vector<std::vector<detect::Monitor::SampleRecord>> sample_logs_;
  mac::DcfParams params_;
};

/// Times wilcoxon_rank_sum and wilcoxon_rank_sum_batch on the windows the
/// last repetition closed: each window of the recorded 0.10-margin lane,
/// rebuilt from its sample log, tested at all 40 margins (what the 40
/// lanes of one size do when that window closes). Exact and approximate
/// tests are timed apart; the batch must agree with the scalar path.
std::map<std::string, double> AllPairsDeg8::probe(SpanTrace& trace) {
  struct Window {
    std::vector<double> x, y;
  };
  std::vector<double> margins;
  for (int i = 0; i < 40; ++i) margins.push_back(0.02 + 0.0025 * i);

  std::vector<Window> exact_windows, approx_windows;
  for (std::size_t k = 0; k < sample_logs_.size(); ++k) {
    const std::size_t size = kSampleSizes[k];
    Window w;
    for (const auto& rec : sample_logs_[k]) {
      if (!rec.accepted) continue;
      const double norm = static_cast<double>(params_.cw_for_attempt(rec.attempt)) + 1.0;
      w.x.push_back(rec.expected / norm);
      w.y.push_back(rec.observed / norm);
      if (w.x.size() == size) {
        const detect::WilcoxonOptions options;
        (2 * size <= options.exact_max_total ? exact_windows : approx_windows)
            .push_back(std::move(w));
        w = Window{};
      }
    }
  }

  std::map<std::string, double> out;
  const auto run_kind = [&](const std::vector<Window>& windows, const std::string& kind) {
    const double tests = static_cast<double>(windows.size() * margins.size());
    std::vector<double> scalar_p;
    detect::WilcoxonScratch scratch;
    std::vector<double> shifted;
    double scalar_s = 0.0;
    {
      ScopedSpan span(trace, ("detect.stats.wilcoxon." + kind).c_str(), &scalar_s);
      for (const Window& w : windows) {
        for (const double m : margins) {
          shifted.assign(w.y.begin(), w.y.end());
          for (double& v : shifted) v += m;
          scalar_p.push_back(detect::wilcoxon_rank_sum(w.x, shifted, {}, scratch).p_less);
        }
      }
    }
    std::vector<double> batch_p;
    double batch_s = 0.0;
    {
      ScopedSpan span(trace, ("detect.stats.wilcoxon_batch." + kind).c_str(), &batch_s);
      std::vector<detect::WilcoxonBatchItem> items(margins.size());
      std::vector<detect::RankSumResult> results(margins.size());
      for (const Window& w : windows) {
        for (std::size_t i = 0; i < margins.size(); ++i) {
          items[i] = {w.x, w.y, margins[i], {}};
        }
        detect::wilcoxon_rank_sum_batch(items, results, scratch);
        for (const auto& res : results) batch_p.push_back(res.p_less);
      }
    }
    if (std::memcmp(scalar_p.data(), batch_p.data(), scalar_p.size() * sizeof(double)) != 0 ||
        scalar_p.size() != batch_p.size()) {
      throw std::runtime_error("batched Wilcoxon differs from the scalar path");
    }
    out["detect.stats.wilcoxon_ns_per_test." + kind] = ratio(scalar_s * 1e9, tests);
    out["detect.stats.wilcoxon_batch_ns_per_test." + kind] = ratio(batch_s * 1e9, tests);
  };
  ScopedSpan span(trace, "probe.wilcoxon");
  run_kind(exact_windows, "exact");
  run_kind(approx_windows, "approx");
  return out;
}

// --- scale_rwp_1k -----------------------------------------------------------

class ScaleRwp1k final : public Workload {
 public:
  explicit ScaleRwp1k(const WorkloadOptions& options) {
    net::ScaleScenarioParams params;
    params.nodes = 1000;
    params.num_flows = 50;
    params.packets_per_second = 2.0;
    params.sim_seconds = options.smoke ? 2.0 : 10.0;
    params.seed = options.seed;
    config_ = net::make_scale_config(params);
    monitors_ = {detect::MonitorConfig{}};
  }

  void setup(SpanTrace& trace, const std::string&) override {
    std::unique_ptr<net::Network> net;
    std::unique_ptr<net::ScaleWorkload> workload;
    build(trace, net, workload);
    ScopedSpan span(trace, "net.teardown");
    workload.reset();
    net.reset();
  }

  RepResult run(SpanTrace& trace, const std::string&) override {
    RepResult r;
    detect::TraceRecorder recorder;  // outlives the network
    std::unique_ptr<net::Network> net;
    std::unique_ptr<net::ScaleWorkload> workload;
    build(trace, net, workload);
    const SimTime stop = seconds_to_time(config_.sim_seconds);
    {
      // Every 64th node records its view of the air, watching its
      // nearest neighbor: enough frames for a steady replay rate, little
      // live overhead next to 1000 nodes' delivery work.
      ScopedSpan span(trace, "detect.attach", &r.live_s);
      for (NodeId node = 0; node < net->size(); node += 64) {
        if (net->neighbors(node, net->config().prop.tx_range_m, 0).empty()) continue;
        record_node(*net, recorder, node, {nearest_neighbor(*net, node)});
      }
    }
    {
      ScopedSpan span(trace, "sim.run", &r.live_s);
      net->run_until(stop);
    }
    r.sim_seconds = config_.sim_seconds;
    std::vector<std::vector<std::uint8_t>> traces;
    {
      ScopedSpan span(trace, "detect.trace.write", &r.live_s);
      traces = finish_traces(recorder, stop, r.counters);
    }
    {
      ScopedSpan span(trace, "bench.check");
      add_network_counters(*net, r.counters);
      const auto stats = workload->stats();
      r.counters["net.requests_generated"] = static_cast<double>(stats.requests_generated);
      r.counters["net.requests_delivered"] = static_cast<double>(stats.requests_delivered);
      r.counters["net.responses_delivered"] = static_cast<double>(stats.responses_delivered);
    }
    {
      ScopedSpan span(trace, "net.teardown");
      workload.reset();
      net.reset();
    }
    const auto replayed = replay(traces, monitors_, kReplayPasses, trace, r);
    ScopedSpan span(trace, "bench.check");
    r.counters["detect.replay_windows"] = static_cast<double>(replayed.front().windows);
    derive_ratios(r.sim_seconds, r.counters);
    Digest digest;
    r.digest = finish_digest(r.counters, digest);
    check_invariants(r, false);
    return r;
  }

 private:
  static constexpr int kReplayPasses = 8;

  void build(SpanTrace& trace, std::unique_ptr<net::Network>& net,
             std::unique_ptr<net::ScaleWorkload>& workload) {
    {
      ScopedSpan span(trace, "net.build");
      net = std::make_unique<net::Network>(config_);
    }
    ScopedSpan span(trace, "net.workload");
    workload = std::make_unique<net::ScaleWorkload>(*net, config_.num_flows,
                                                    config_.packets_per_second, config_.seed);
    workload->start(kSecond, seconds_to_time(config_.sim_seconds));
  }

  net::ScenarioConfig config_;
  std::vector<detect::MonitorConfig> monitors_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_grid", "allpairs_deg8",
                                                 "scale_rwp_1k"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "paper_grid") return std::make_unique<PaperGrid>(options);
  if (name == "allpairs_deg8") return std::make_unique<AllPairsDeg8>(options);
  if (name == "scale_rwp_1k") return std::make_unique<ScaleRwp1k>(options);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace manet::benchmark
