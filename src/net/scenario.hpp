// Scenario configuration — the paper's Table 1 as a typed struct.
//
// Defaults reproduce Table 1 exactly:
//   grid 7x8 (56 nodes) or random (112 nodes), 3000 m x 3000 m field,
//   240 m grid spacing, 250 m transmission range, 550 m sensing range,
//   random waypoint 0-20 m/s with pauses {0,50,100,200,300} s,
//   Poisson/CBR traffic, 512-byte packets, queue length 50, 300 s runs,
//   IEEE 802.11 PHY/MAC, one-hop flows (the paper's AODV routes never
//   leave the first hop), UDP-like fire-and-forget transport.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mac/params.hpp"
#include "phy/impairments.hpp"
#include "phy/propagation.hpp"
#include "util/config.hpp"
#include "util/types.hpp"

namespace manet::net {

enum class TopologyKind { kGrid, kRandom };
enum class TrafficKind { kPoisson, kCbr };
enum class MobilityKind { kStatic, kRandomWaypoint };
enum class RoutingKind { kNone, kAodv };
enum class FlowPattern { kOneHop, kAny };

struct ScenarioConfig {
  TopologyKind topology = TopologyKind::kGrid;
  std::size_t grid_rows = 7;
  std::size_t grid_cols = 8;
  double grid_spacing_m = 240.0;
  std::size_t random_nodes = 112;
  double area_width_m = 3000.0;
  double area_height_m = 3000.0;

  MobilityKind mobility = MobilityKind::kStatic;
  double min_speed_mps = 0.5;
  double max_speed_mps = 20.0;
  double pause_s = 0.0;

  TrafficKind traffic = TrafficKind::kPoisson;
  std::uint32_t payload_bytes = 512;
  std::size_t num_flows = 30;
  double packets_per_second = 20.0;  // per-flow rate (calibrated per load)

  /// Table 1 lists AODV; the paper's flows are all one-hop, so routing is
  /// off by default and enabling it adds genuine multi-hop forwarding.
  RoutingKind routing = RoutingKind::kNone;
  FlowPattern flow_pattern = FlowPattern::kOneHop;

  double sim_seconds = 300.0;
  std::uint64_t seed = 1;

  /// Channel receiver-lookup path: auto | scan (see
  /// phy::Channel::IndexMode). "auto" uses the incremental index for the
  /// built-in mobility models; "scan" pins the reference full scan. Both
  /// deliver identical frames.
  std::string channel_index = "auto";

  /// Per-node carrier-history budget: age-based retention plus a hard
  /// transition cap with fold-in compaction (phy::CsTimeline). Scale
  /// scenarios shrink these; monitored paper runs keep the defaults.
  double timeline_retention_s = 10.0;
  std::size_t timeline_max_transitions = std::size_t{1} << 18;

  mac::DcfParams mac;
  phy::PropagationParams prop;

  /// Channel impairment schedule (disabled by default: a default-constructed
  /// plan draws nothing and leaves every run bit-identical to a build
  /// without the fault layer).
  phy::FaultPlan faults;

  std::size_t node_count() const {
    return topology == TopologyKind::kGrid ? grid_rows * grid_cols : random_nodes;
  }

  /// Upper bounds accepted by validate(): node counts must fit the
  /// channel's 32-bit attach indices with headroom, and coordinates must stay far inside 32-bit grid-cell
  /// indexing at the ~551 m cell size.
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 22;
  static constexpr double kMaxAreaM = 1e9;

  /// Throws std::invalid_argument on parameters that would overflow
  /// grid-cell indexing or node-index packing (silent OOM / wraparound
  /// otherwise). Called by from_config and the Network constructor.
  void validate() const;

  /// Declares every parameter (with Table-1 defaults) into `config`.
  static void declare(util::Config& config);

  /// Builds a ScenarioConfig from declared+overridden values.
  static ScenarioConfig from_config(const util::Config& config);
};

/// Parses the `fault_outages` config string: a comma-separated list of
/// `node:start_s:stop_s` triples (e.g. "3:10:12,7:100:105"). Empty string
/// means no outages. Throws std::invalid_argument on malformed input.
std::vector<phy::FaultPlan::Outage> parse_outages(const std::string& spec);

TopologyKind parse_topology(const std::string& name);
TrafficKind parse_traffic(const std::string& name);
MobilityKind parse_mobility(const std::string& name);
RoutingKind parse_routing(const std::string& name);
FlowPattern parse_flow_pattern(const std::string& name);

}  // namespace manet::net
