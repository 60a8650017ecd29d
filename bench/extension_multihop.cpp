// Extension: the detection framework under multi-hop AODV cross-traffic,
// and with multiple simultaneous attackers (paper footnote 7: "our scheme
// is capable of detecting multiple malicious nodes (for small numbers)").
//
// Background flows are routed over multiple hops by AODV (flow_pattern=any)
// instead of the paper's one-hop workload; each attacker is watched by its
// own nearest neighbor.
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "detect/monitor.hpp"
#include "net/flow_stats.hpp"
#include "net/network.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Extension: multi-hop AODV traffic + multiple attackers.");
  flags.add_int("attackers", 3, "number of misbehaving nodes");
  flags.add_double("pm", 65, "percentage of misbehavior of each attacker");
  flags.add_double("rate", 6, "per-flow packet rate (multi-hop flows)");
  flags.add_int("num_flows", 20, "number of multi-hop background flows");
  flags.add_double("sim_time", 180, "simulated seconds");
  flags.add_count("sample_size", 10, "Wilcoxon window size");
  flags.add_int("seed", 901, "random seed");
  flags.add_string("json", "", "write one JSON record per watched suspect to this file");
  flags.parse_or_exit(argc, argv);
  const auto sink = flags.make_sink();

  bench::print_header(
      "Extension: multi-hop routing and multiple attackers",
      "every attacker is detected by its own monitor; honest co-monitors stay "
      "quiet; multi-hop traffic keeps flowing");

  net::ScenarioConfig scenario;
  scenario.routing = net::RoutingKind::kAodv;
  scenario.flow_pattern = net::FlowPattern::kAny;
  scenario.num_flows = static_cast<std::size_t>(flags.get_int("num_flows"));
  scenario.packets_per_second = flags.get_double("rate");
  scenario.sim_seconds = flags.get_double("sim_time");
  scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  net::Network net(scenario);
  const int n_attackers = static_cast<int>(flags.get_int("attackers"));
  const double pm = flags.get_double("pm");

  // Attackers: the center node and nodes stepping outward from it; each
  // gets a saturated one-hop flow (so it actually contends) plus a monitor
  // at its nearest neighbor. One extra honest "tagged" node serves as the
  // false-alarm control.
  std::vector<NodeId> tagged;
  {
    NodeId next = net.center_node();
    for (int i = 0; i <= n_attackers && tagged.size() < net.size(); ++i) {
      while (std::find(tagged.begin(), tagged.end(), next) != tagged.end()) {
        next = (next + 3) % static_cast<NodeId>(net.size());
      }
      tagged.push_back(next);
      next = (next + 5) % static_cast<NodeId>(net.size());
    }
  }

  struct Watch {
    NodeId suspect;
    NodeId monitor_node;
    bool is_attacker;
    std::unique_ptr<detect::Monitor> monitor;
  };
  std::vector<Watch> watches;

  detect::MonitorConfig mc;
  mc.sample_size = static_cast<std::size_t>(flags.get_int("sample_size"));
  mc.fixed_n = mc.fixed_k = mc.fixed_m = mc.fixed_j = 5.0;
  mc.fixed_contenders = 20.0;

  // One standalone factory per monitoring node: a node's timeline carries
  // one hub, shared by every suspect that node watches.
  std::unordered_map<NodeId, detect::MonitorFactory> factories;
  for (std::size_t i = 0; i < tagged.size(); ++i) {
    const NodeId s = tagged[i];
    const auto nbrs = net.neighbors(s, net.config().prop.tx_range_m, 0);
    if (nbrs.empty()) continue;
    const NodeId r = nbrs.front();
    const bool is_attacker = i < static_cast<std::size_t>(n_attackers);
    if (is_attacker) {
      net.mac(s).set_backoff_policy(std::make_unique<mac::PercentMisbehavior>(pm));
    }
    net.add_flow(s, r, 25.0);  // keep the suspect contending
    auto factory = factories.find(r);
    if (factory == factories.end()) {
      factory = factories
                    .emplace(r, detect::MonitorFactory(net.simulator(), net.mac(r),
                                                       net.timeline(r)))
                    .first;
    }
    watches.push_back(Watch{s, r, is_attacker, factory->second.watch(s, mc)});
  }

  net.build_random_flows(/*exclude=*/tagged);
  const SimTime stop = seconds_to_time(scenario.sim_seconds);
  net.start_traffic(0, stop);
  net.run_until(stop);

  std::printf("  %-8s %-9s %-9s %-9s %-10s %s\n", "suspect", "monitor",
              "windows", "flagged", "flag rate", "role");
  bool all_good = true;
  for (const auto& w : watches) {
    const auto& st = w.monitor->stats();
    std::printf("  %-8u %-9u %-9llu %-9llu %-10.3f %s\n", w.suspect,
                w.monitor_node, static_cast<unsigned long long>(st.windows),
                static_cast<unsigned long long>(st.flagged_windows),
                w.monitor->flag_rate(),
                w.is_attacker ? "ATTACKER" : "honest control");
    if (w.is_attacker && w.monitor->flag_rate() < 0.5) all_good = false;
    if (!w.is_attacker && w.monitor->flag_rate() > 0.05) all_good = false;

    exp::Record rec;
    rec.add("bench", "extension_multihop")
        .add("suspect", static_cast<std::uint64_t>(w.suspect))
        .add("monitor", static_cast<std::uint64_t>(w.monitor_node))
        .add("is_attacker", w.is_attacker)
        .add("pm", w.is_attacker ? pm : 0.0)
        .add("windows", st.windows)
        .add("flagged", st.flagged_windows)
        .add("flag_rate", w.monitor->flag_rate())
        .add("sim_time_s", flags.get_double("sim_time"));
    sink->record(rec);
  }
  sink->flush();

  // Multi-hop background traffic health.
  std::uint64_t originated = 0, delivered = 0;
  for (NodeId i = 0; i < net.size(); ++i) {
    if (auto* r = net.router(i)) {
      originated += r->stats().originated;
      delivered += r->stats().delivered;
    }
  }
  std::printf("\n  multi-hop background: %llu originated, %llu delivered (%.0f%%)\n",
              static_cast<unsigned long long>(originated),
              static_cast<unsigned long long>(delivered),
              originated ? 100.0 * delivered / originated : 0.0);
  std::printf("  verdict: %s\n",
              all_good ? "all attackers detected, honest control clean"
                       : "DEGRADED — see rows above");
  return all_good ? 0 : 1;
}
