#include "detect/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>

#include "detect/monitor_batch.hpp"
#include "detect/trace.hpp"
#include "exp/seeding.hpp"
#include "exp/sweep.hpp"
#include "mac/attackers.hpp"
#include "phy/joint_tracker.hpp"

namespace manet::detect {

namespace {

/// Picks a one-hop neighbor of `s` at time `at` (nearest first for
/// determinism); throws if none exists.
NodeId pick_neighbor(net::Network& net, NodeId s, SimTime at) {
  const auto nbrs = net.neighbors(s, net.config().prop.tx_range_m, at);
  if (nbrs.empty()) throw std::runtime_error("tagged node has no neighbor");
  NodeId best = nbrs.front();
  double best_d = 1e300;
  const geom::Vec2 sp = net.position_of(s, at);
  for (NodeId n : nbrs) {
    const double d = (net.position_of(n, at) - sp).norm2();
    if (d < best_d) {
      best_d = d;
      best = n;
    }
  }
  return best;
}

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One trial of a sweep point: the point's config re-seeded per the
/// engine's contract (seed = base + run), timed for the result sinks.
MultiDetectionResult run_multi_detection_trial(MultiDetectionConfig config,
                                               int run) {
  config.scenario.seed =
      exp::trial_seed(config.scenario.seed, static_cast<std::uint64_t>(run));
  const auto start = std::chrono::steady_clock::now();
  MultiDetectionResult result = run_multi_detection_experiment(config);
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

/// Order-dependent reduction over a point's trials. Trials arrive in run
/// order regardless of which worker produced them, so the floating-point
/// accumulation order — and therefore every aggregate — is identical for
/// any thread count.
MultiDetectionResult aggregate_trials(std::size_t monitor_count,
                                      bool collect_windows,
                                      const std::vector<MultiDetectionResult>& trials) {
  MultiDetectionResult total;
  total.per_config.resize(monitor_count);
  for (const MultiDetectionResult& r : trials) {
    total.handoffs += r.handoffs;
    total.measured_rho += r.measured_rho;
    total.monitor_nodes = std::max(total.monitor_nodes, r.monitor_nodes);
    total.wall_seconds += r.wall_seconds;
    for (std::size_t i = 0; i < r.per_config.size(); ++i) {
      DetectionResult& out = total.per_config[i];
      out.windows += r.per_config[i].windows;
      out.flagged += r.per_config[i].flagged;
      out.flagged_statistical += r.per_config[i].flagged_statistical;
      out.window_log.insert(out.window_log.end(),
                            r.per_config[i].window_log.begin(),
                            r.per_config[i].window_log.end());
      if (collect_windows) out.trial_logs.push_back(r.per_config[i].window_log);
      accumulate_stats(out.stats, r.per_config[i].stats);
    }
  }
  if (!trials.empty()) total.measured_rho /= static_cast<double>(trials.size());
  for (DetectionResult& out : total.per_config) {
    out.detection_rate = out.windows ? static_cast<double>(out.flagged) /
                                           static_cast<double>(out.windows)
                                     : 0.0;
    out.statistical_rate =
        out.windows ? static_cast<double>(out.flagged_statistical) /
                          static_cast<double>(out.windows)
                    : 0.0;
    out.measured_rho = total.measured_rho;
    out.handoffs = total.handoffs;
    out.wall_seconds = total.wall_seconds;
  }
  return total;
}

}  // namespace

CondProbResult run_cond_prob_experiment(const CondProbConfig& config) {
  net::Network net(config.scenario);
  const NodeId s = net.center_node();
  const NodeId r = pick_neighbor(net, s, 0);

  net.add_flow(s, r, config.rate_pps);
  net.build_random_flows();
  net.set_flow_rates(config.rate_pps);

  phy::JointBusyTracker tracker(net.radio(s), net.radio(r));

  const SimTime warmup = seconds_to_time(config.warmup_s);
  const SimTime stop = warmup + seconds_to_time(config.measure_s);
  net.start_traffic(0, stop);
  net.run_until(warmup);
  tracker.reset(warmup);
  net.run_until(stop);
  tracker.flush(stop);

  CondProbResult result;
  result.measured_rho = tracker.r_busy_fraction();
  result.sim_p_busy_given_idle = tracker.p_s_busy_given_r_idle();
  result.sim_p_idle_given_busy = tracker.p_s_idle_given_r_busy();

  // Analytical prediction from the monitor-visible state.
  const geom::RegionModel regions(config.monitor.separation_m,
                                  config.monitor.sensing_range_m);
  SystemStateModel model(regions);
  SystemStateParams p;
  p.rho = result.measured_rho;
  p.mapping = config.monitor.mapping;
  p.k = config.monitor.fixed_k.value_or(5.0);
  p.n = config.monitor.fixed_n.value_or(5.0);
  p.m = config.monitor.fixed_m.value_or(5.0);
  p.j = config.monitor.fixed_j.value_or(5.0);
  p.contenders = config.monitor.fixed_contenders.value_or(20.0);
  result.ana_p_busy_given_idle = model.p_busy_given_idle(p);
  result.ana_p_idle_given_busy = model.p_idle_given_busy(p);
  return result;
}

MultiDetectionResult run_multi_detection_experiment(const MultiDetectionConfig& config) {
  if (config.monitors.empty()) {
    throw std::invalid_argument("need at least one monitor configuration");
  }
  const AttackerSpec& atk = config.attacker;
  if (config.mobile_handoff && (atk.kind == AttackerKind::kColluding ||
                                atk.kind == AttackerKind::kSybil ||
                                atk.kind == AttackerKind::kRtsFlood)) {
    throw std::invalid_argument(
        "mobile_handoff supports only solo single-identity attackers");
  }

  net::Network net(config.scenario);
  const NodeId s = net.center_node();
  NodeId r = pick_neighbor(net, s, 0);

  // The identities monitors watch: the tagged node itself, its whole
  // colluding group, or a sybil's fake identities.
  std::vector<NodeId> targets{s};

  net::TrafficSource* tagged_flow = nullptr;
  if (atk.kind != AttackerKind::kRtsFlood) {
    tagged_flow = &net.add_flow(s, r, config.rate_pps);
  }
  if (atk.kind == AttackerKind::kColluding) {
    // Group: S plus the nearest other in-range neighbors of the monitor —
    // every member must be decodable by R for the rotation to show up in
    // one monitor's samples. Members get their own flows towards R (a
    // colluder without traffic never draws a back-off).
    const auto nbrs = net.neighbors(r, net.config().prop.tx_range_m, 0);
    const geom::Vec2 rp = net.position_of(r, 0);
    std::vector<std::pair<double, NodeId>> ranked;
    for (NodeId n : nbrs) {
      if (n == s || n == r) continue;
      ranked.emplace_back((net.position_of(n, 0) - rp).norm2(), n);
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<NodeId> members{s};
    for (const auto& [dist, n] : ranked) {
      (void)dist;
      if (members.size() >= std::max(atk.group, 1u)) break;
      members.push_back(n);
    }
    auto schedule = std::make_shared<const mac::CollusionSchedule>(
        mac::CollusionSchedule{static_cast<std::uint32_t>(members.size()),
                               seconds_to_time(atk.collude_phase_s)});
    for (std::size_t i = 0; i < members.size(); ++i) {
      net.mac(members[i]).set_backoff_policy(std::make_unique<mac::ColludingBackoff>(
          schedule, static_cast<std::uint32_t>(i), atk.pm));
      if (members[i] != s) net.add_flow(members[i], r, config.rate_pps);
    }
    targets = members;
  }
  net.build_random_flows(atk.kind == AttackerKind::kRtsFlood
                             ? std::vector<NodeId>{s}
                             : std::vector<NodeId>{});
  net.set_flow_rates(config.rate_pps);
  if (config.pm > 0.0 && atk.kind == AttackerKind::kNone) {
    net.mac(s).set_backoff_policy(
        std::make_unique<mac::PercentMisbehavior>(config.pm));
  }
  switch (atk.kind) {
    case AttackerKind::kNone:
    case AttackerKind::kColluding:
    case AttackerKind::kRtsFlood:  // started below, once `stop` is known
      break;
    case AttackerKind::kPm:
      net.mac(s).set_backoff_policy(
          std::make_unique<mac::PercentMisbehavior>(atk.pm));
      break;
    case AttackerKind::kAdaptive: {
      auto policy = std::make_unique<mac::AdaptiveBackoff>(
          atk.pm, seconds_to_time(atk.probation_s),
          seconds_to_time(atk.vigilance_s),
          atk.suspect_monitor ? std::vector<NodeId>{r} : std::vector<NodeId>{});
      net.mac(s).add_observer(policy.get());
      net.mac(s).set_backoff_policy(std::move(policy));
      break;
    }
    case AttackerKind::kSybil: {
      std::vector<NodeId> aliases;
      aliases.reserve(std::max(atk.group, 1u));
      for (std::uint32_t i = 0; i < std::max(atk.group, 1u); ++i) {
        aliases.push_back(mac::kSybilAliasBase + i);
      }
      auto state = std::make_shared<mac::SybilState>(aliases, net.mac(s).params());
      net.mac(s).set_backoff_policy(
          std::make_unique<mac::SybilBackoff>(state, atk.pm));
      net.mac(s).set_announce_policy(std::make_unique<mac::SybilAnnounce>(state));
      for (NodeId a : aliases) net.mac(s).add_identity_alias(a);
      targets = aliases;
      break;
    }
  }

  // Monitors are created lazily per monitoring node: one instance per
  // (configuration, target identity) — config-major, so view ci*T+ti is
  // configuration ci watching target ti — activated/deactivated together,
  // as lanes of one MonitorBatch over the node's ObservationHub. Readout
  // iterates `monitor_order` (creation order) so window logs are
  // deterministic.
  struct NodeMonitors {
    // Member order is the destruction contract: views first, then the
    // batch (detaching its groups), then the hub.
    std::unique_ptr<ObservationHub> hub;
    std::unique_ptr<MonitorBatch> batch;
    std::vector<std::unique_ptr<Monitor>> views;
  };
  std::unordered_map<NodeId, NodeMonitors> monitors;
  std::vector<NodeId> monitor_order;
  auto set_active = [&](NodeId node, bool active) {
    auto it = monitors.find(node);
    if (it == monitors.end()) {
      NodeMonitors set;
      set.views.reserve(config.monitors.size() * targets.size());
      set.hub = std::make_unique<ObservationHub>(
          net.simulator(), net.mac(node), net.timeline(node));
      set.batch = std::make_unique<MonitorBatch>(*set.hub);
      MonitorFactory factory(*set.batch);
      for (const MonitorConfig& mc : config.monitors) {
        factory.with_config(mc);
        for (const NodeId target : targets) {
          set.views.push_back(factory.watch(target));
        }
      }
      it = monitors.emplace(node, std::move(set)).first;
      monitor_order.push_back(node);
      if (config.trace) {
        // Recording starts the instant this node becomes a monitor: the
        // header snapshots its carrier-sense state now, and the writer is
        // registered after the node's timeline (radio listener order) and
        // after the hub (MAC observer order), so replayed event order
        // matches what the hub experienced.
        TraceHeader th;
        th.node = node;
        th.start_time = net.simulator().now();
        th.params = net.mac(node).params();
        th.targets = targets;
        th.timeline = net.timeline(node).snapshot();
        TraceWriter& writer = config.trace->add(th);
        net.mac(node).add_observer(&writer);
        net.radio(node).add_listener(&writer);
      }
    }
    for (auto& mon : it->second.views) mon->set_active(active);
    if (config.trace) {
      config.trace->find(node)->marker(MarkerCode::kActivity, active ? 1 : 0,
                                       net.simulator().now());
    }
  };

  MultiDetectionResult result;
  result.per_config.resize(config.monitors.size());
  if (config.all_pairs) {
    if (config.mobile_handoff) {
      throw std::invalid_argument(
          "all_pairs monitoring is incompatible with mobile_handoff");
    }
    // Every node in transmission range of S at t=0 runs the monitor set
    // (sorted for a deterministic creation order). The flow destination
    // stays the nearest neighbor r, which is itself in range.
    auto watchers = net.neighbors(s, net.config().prop.tx_range_m, 0);
    std::sort(watchers.begin(), watchers.end());
    for (NodeId w : watchers) set_active(w, true);
  } else {
    set_active(r, true);
  }

  const SimTime warmup = seconds_to_time(config.warmup_s);
  const SimTime stop = seconds_to_time(config.scenario.sim_seconds);
  net.start_traffic(0, stop);

  std::unique_ptr<mac::RtsFlooder> flooder;
  if (atk.kind == AttackerKind::kRtsFlood) {
    mac::RtsFloodConfig flood;
    flood.rate_pps = atk.flood_pps;
    flood.victim = r;
    flood.seed = config.scenario.seed ^ 0x9E3779B97F4A7C15ull;
    flooder = std::make_unique<mac::RtsFlooder>(net.simulator(), net.radio(s),
                                                net.mac(s).params(), flood);
    flooder->start(0, stop);
  }

  const NodeId initial_r = r;

  // Long-horizon traffic intensity at the initial monitor: snapshot the
  // cumulative busy counter at warm-up (windowed timeline queries cannot
  // span a whole 300 s run because history is pruned).
  SimDuration busy_at_warmup = 0;
  net.simulator().at(warmup, [&, initial_r] {
    busy_at_warmup = net.timeline(initial_r).cumulative_busy(warmup);
  });

  // Must outlive run_until: the rescheduling lambda captures it by reference.
  std::function<void()> check;
  if (config.mobile_handoff) {
    // Periodic range check: if the monitor fell out of S's transmission
    // range, hand the role (and S's flow) to the nearest current neighbor.
    check = [&] {
      const SimTime now = net.simulator().now();
      if (now >= stop) return;
      const double d = (net.position_of(s, now) - net.position_of(r, now)).norm();
      if (d > net.config().prop.tx_range_m) {
        const auto nbrs = net.neighbors(s, net.config().prop.tx_range_m, now);
        if (!nbrs.empty()) {
          set_active(r, false);
          r = pick_neighbor(net, s, now);
          set_active(r, true);
          tagged_flow->set_destination(r);
          ++result.handoffs;
        }
      }
      net.simulator().after(config.handoff_period, check);
    };
    net.simulator().after(config.handoff_period, check);
  }

  net.run_until(stop);

  if (config.trace) {
    for (const NodeId node : monitor_order) {
      config.trace->find(node)->marker(MarkerCode::kTraceEnd, 0, stop);
    }
  }

  result.monitor_nodes = monitor_order.size();
  const std::size_t target_count = targets.size();
  for (const NodeId node : monitor_order) {
    const NodeMonitors& set = monitors.at(node);
    for (std::size_t ci = 0; ci < config.monitors.size(); ++ci) {
      DetectionResult& out = result.per_config[ci];
      for (std::size_t ti = 0; ti < target_count; ++ti) {
        const Monitor& view = *set.views[ci * target_count + ti];
        for (const WindowResult& w : view.windows()) {
          if (w.at < warmup) continue;
          ++out.windows;
          if (w.flagged()) ++out.flagged;
          if (w.statistical_flag) ++out.flagged_statistical;
          if (config.collect_windows) out.window_log.push_back(w);
        }
        accumulate_stats(out.stats, view.stats());
      }
    }
  }
  result.measured_rho =
      stop > warmup
          ? static_cast<double>(net.timeline(initial_r).cumulative_busy(stop) -
                                busy_at_warmup) /
                static_cast<double>(stop - warmup)
          : 0.0;
  for (DetectionResult& out : result.per_config) {
    out.detection_rate = out.windows ? static_cast<double>(out.flagged) /
                                           static_cast<double>(out.windows)
                                     : 0.0;
    out.statistical_rate =
        out.windows ? static_cast<double>(out.flagged_statistical) /
                          static_cast<double>(out.windows)
                    : 0.0;
    out.measured_rho = result.measured_rho;
    out.handoffs = result.handoffs;
  }
  return result;
}

MultiDetectionResult run_multi_detection_trials(const MultiDetectionConfig& config,
                                                int runs, exp::Engine& engine) {
  return run_multi_detection_sweep({config}, runs, engine).at(0);
}

MultiDetectionResult run_multi_detection_trials(MultiDetectionConfig config,
                                                int runs) {
  exp::Engine serial(1);
  return run_multi_detection_trials(config, runs, serial);
}

std::vector<MultiDetectionResult> run_multi_detection_sweep(
    const std::vector<MultiDetectionConfig>& points, int runs,
    exp::Engine& engine) {
  const auto per_point = exp::run_sweep(
      engine, points, runs,
      [](const MultiDetectionConfig& point, int run) {
        return run_multi_detection_trial(point, run);
      });
  std::vector<MultiDetectionResult> aggregated;
  aggregated.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    aggregated.push_back(aggregate_trials(
        points[p].monitors.size(), points[p].collect_windows, per_point[p]));
  }
  return aggregated;
}

std::vector<CondProbResult> run_cond_prob_sweep(
    const std::vector<CondProbConfig>& points, exp::Engine& engine) {
  return engine.map(points.size(), [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    CondProbResult r = run_cond_prob_experiment(points[i]);
    r.wall_seconds = elapsed_seconds(start);
    return r;
  });
}

DetectionResult run_detection_experiment(const DetectionConfig& config) {
  MultiDetectionConfig multi;
  multi.scenario = config.scenario;
  multi.rate_pps = config.rate_pps;
  multi.pm = config.pm;
  multi.monitors = {config.monitor};
  multi.warmup_s = config.warmup_s;
  multi.mobile_handoff = config.mobile_handoff;
  multi.handoff_period = config.handoff_period;
  return run_multi_detection_experiment(multi).per_config.at(0);
}

DetectionResult run_detection_trials(const DetectionConfig& config, int runs,
                                     exp::Engine& engine) {
  MultiDetectionConfig multi;
  multi.scenario = config.scenario;
  multi.rate_pps = config.rate_pps;
  multi.pm = config.pm;
  multi.monitors = {config.monitor};
  multi.warmup_s = config.warmup_s;
  multi.mobile_handoff = config.mobile_handoff;
  multi.handoff_period = config.handoff_period;
  return run_multi_detection_trials(multi, runs, engine).per_config.at(0);
}

DetectionResult run_detection_trials(DetectionConfig config, int runs) {
  exp::Engine serial(1);
  return run_detection_trials(config, runs, serial);
}

}  // namespace manet::detect
