// Scale sweep: event-kernel throughput (simulated seconds per wall-clock
// second) vs node count, under random-waypoint mobility and a multi-hop
// AODV request/response workload at the paper's node density.
//
// It measures the channel's incremental spatial index at scale. The
// --index flag picks the receiver-lookup path: auto (the incremental
// index) or scan (the reference full scan). Workload results are
// byte-identical across the two; only the wall clock moves.
// --cache_stats=1 also prints and records the index's counters.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "exp/sink.hpp"
#include "net/scale.hpp"

using namespace manet;

int main(int argc, char** argv) {
  bench::FlagSet flags(
      "Scale sweep: simulated seconds per wall second vs node count "
      "(random waypoint + multi-hop AODV request/response).");
  flags.add_double_list("nodes", "250,500,1000,2000", "node counts swept");
  flags.add_string("index", "auto",
                   "channel receiver lookup: auto | scan");
  flags.add_double("sim_time", 10, "simulated seconds per point");
  flags.add_int("flows", 0, "request flows (0 = nodes/20)");
  flags.add_double("rate", 2, "requests per second per flow");
  flags.add_double("pause", 5, "random waypoint pause time (s)");
  flags.add_double("max_speed", 20, "random waypoint max speed (m/s)");
  flags.add_int("seed", 1, "base random seed");
  flags.add_int("cache_stats", 0,
                "1 = print + record channel index/cache statistics");
  flags.add_json_flag();
  flags.parse_or_exit(argc, argv);

  const auto node_counts = flags.get_double_list("nodes");
  const std::string index = flags.get("index");
  const bool cache_stats = flags.get_int("cache_stats") != 0;
  try {
    phy::Channel::parse_index_mode(index);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flag error: --index: %s\n", e.what());
    return 1;
  }

  bench::print_header(
      "Scale sweep: kernel throughput vs node count",
      "incremental spatial indexing keeps thousand-node mobile simulations "
      "tractable without changing any delivery or fault decision");

  const auto sink = flags.make_sink();
  std::printf(
      "  %-7s %-12s %9s %9s %11s %9s %9s %9s\n", "nodes", "index", "sim_s",
      "wall_s", "sim_s/wall", "requests", "delivered", "responses");

  for (double nodes_d : node_counts) {
    net::ScaleScenarioParams params;
    params.nodes = static_cast<std::size_t>(nodes_d);
    params.sim_seconds = flags.get_double("sim_time");
    params.num_flows = static_cast<std::size_t>(flags.get_int("flows"));
    params.packets_per_second = flags.get_double("rate");
    params.pause_s = flags.get_double("pause");
    params.max_speed_mps = flags.get_double("max_speed");
    params.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    params.channel_index = index;

    const auto config = net::make_scale_config(params);
    const auto start = std::chrono::steady_clock::now();
    net::Network net(config);
    net::ScaleWorkload workload(net, config.num_flows,
                                config.packets_per_second, config.seed);
    workload.start(kSecond, seconds_to_time(config.sim_seconds));
    net.run_until(seconds_to_time(config.sim_seconds));
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    const auto stats = workload.stats();
    const double ratio = wall > 0.0 ? config.sim_seconds / wall : 0.0;
    std::printf("  %-7zu %-12s %9.1f %9.2f %11.1f %9llu %9llu %9llu\n",
                params.nodes, index.c_str(), config.sim_seconds, wall, ratio,
                static_cast<unsigned long long>(stats.requests_generated),
                static_cast<unsigned long long>(stats.requests_delivered),
                static_cast<unsigned long long>(stats.responses_delivered));
    std::fflush(stdout);

    net::AodvStats aodv;
    for (NodeId i = 0; i < net.size(); ++i) {
      const auto& rs = net.router(i)->stats();
      aodv.originated += rs.originated;
      aodv.delivered += rs.delivered;
      aodv.forwarded += rs.forwarded;
      aodv.rreq_sent += rs.rreq_sent;
      aodv.rrep_sent += rs.rrep_sent;
      aodv.rerr_sent += rs.rerr_sent;
      aodv.discovery_failures += rs.discovery_failures;
    }
    const auto& cs = net.channel().cache_stats();
    if (cache_stats) {
      std::printf(
          "          aodv: rreq=%llu rrep=%llu rerr=%llu forwarded=%llu "
          "discovery_failures=%llu\n",
          static_cast<unsigned long long>(aodv.rreq_sent),
          static_cast<unsigned long long>(aodv.rrep_sent),
          static_cast<unsigned long long>(aodv.rerr_sent),
          static_cast<unsigned long long>(aodv.forwarded),
          static_cast<unsigned long long>(aodv.discovery_failures));
      std::printf(
          "          scans=%llu migrations=%llu checks=%llu "
          "budget_hit=%.3f avg_candidates=%.1f "
          "prefiltered=%llu index_mem=%zuB\n",
          static_cast<unsigned long long>(cs.full_scans),
          static_cast<unsigned long long>(cs.cell_migrations),
          static_cast<unsigned long long>(cs.migration_checks),
          cs.link_budget_hits + cs.link_budget_misses == 0
              ? 0.0
              : static_cast<double>(cs.link_budget_hits) /
                    static_cast<double>(cs.link_budget_hits + cs.link_budget_misses),
          cs.candidate_sets == 0 ? 0.0
                                 : static_cast<double>(cs.candidates_seen) /
                                       static_cast<double>(cs.candidate_sets),
          static_cast<unsigned long long>(cs.prefilter_rejects),
          net.channel().index_memory_bytes());
    }

    exp::Record rec;
    rec.add("bench", "fig_scale_sweep")
        .add("nodes", static_cast<std::uint64_t>(params.nodes))
        .add("index", index)
        .add("sim_time_s", config.sim_seconds)
        .add("wall_seconds", wall)
        .add("sim_s_per_wall_s", ratio)
        .add("flows", static_cast<std::uint64_t>(config.num_flows))
        .add("requests_generated", stats.requests_generated)
        .add("requests_delivered", stats.requests_delivered)
        .add("responses_sent", stats.responses_sent)
        .add("responses_delivered", stats.responses_delivered)
        .add("rreq_sent", aodv.rreq_sent)
        .add("rrep_sent", aodv.rrep_sent)
        .add("rerr_sent", aodv.rerr_sent)
        .add("forwarded", aodv.forwarded);
    if (cache_stats) {
      // Timing-free internals: recorded only on request so default JSON
      // stays diffable across index modes (the identity check in
      // scripts/check.sh strips wall fields but compares everything else).
      rec.add("full_scans", cs.full_scans)
          .add("cell_migrations", cs.cell_migrations)
          .add("migration_checks", cs.migration_checks)
          .add("link_budget_hits", cs.link_budget_hits)
          .add("link_budget_misses", cs.link_budget_misses)
          .add("prefilter_rejects", cs.prefilter_rejects)
          .add("candidate_sets", cs.candidate_sets)
          .add("candidates_seen", cs.candidates_seen)
          .add("index_memory_bytes",
               static_cast<std::uint64_t>(net.channel().index_memory_bytes()));
    }
    sink->record(rec);
  }
  sink->flush();
  return 0;
}
