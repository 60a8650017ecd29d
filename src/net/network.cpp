#include "net/network.hpp"

#include <stdexcept>

#include "net/topology.hpp"

namespace manet::net {

Network::Network(const ScenarioConfig& config)
    : config_(config), flow_rng_(util::mix64(config.seed ^ 0xF10Au)) {
  config_.validate();
  // --- Layout ---
  std::vector<geom::Vec2> layout;
  if (config_.topology == TopologyKind::kGrid) {
    // Center the grid in the field.
    const double w = static_cast<double>(config_.grid_cols - 1) * config_.grid_spacing_m;
    const double h = static_cast<double>(config_.grid_rows - 1) * config_.grid_spacing_m;
    const geom::Vec2 origin{(config_.area_width_m - w) / 2.0,
                            (config_.area_height_m - h) / 2.0};
    layout = grid_topology(config_.grid_rows, config_.grid_cols,
                           config_.grid_spacing_m, origin);
    center_ = static_cast<NodeId>(grid_center_index(config_.grid_rows, config_.grid_cols));
  } else {
    // Connectivity is required at the sensing range: at the paper's density
    // (112 nodes / 9 km^2) the average *transmission*-range degree is only
    // ~2.4, so demanding a connected 250 m unit-disk graph would loop
    // forever. One-hop flows only need each source to have some tx-range
    // neighbor, which build_random_flows handles per source.
    util::Xoshiro256ss topo_rng(util::mix64(config_.seed ^ 0x7090u));
    layout = random_connected_topology(config_.random_nodes, config_.area_width_m,
                                       config_.area_height_m,
                                       config_.prop.cs_range_m, topo_rng);
    // Center: the node nearest the field centroid that has a one-hop
    // neighbor (it anchors the monitored S-R pair).
    const geom::Vec2 mid{config_.area_width_m / 2.0, config_.area_height_m / 2.0};
    const LayoutIndex index(layout, config_.prop.tx_range_m);
    double best = 1e300;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      if (!index.has_neighbor(i, config_.prop.tx_range_m)) continue;
      const double d = (layout[i] - mid).norm2();
      if (d < best) {
        best = d;
        center_ = static_cast<NodeId>(i);
      }
    }
  }

  // --- Mobility ---
  if (config_.mobility == MobilityKind::kStatic) {
    mobility_ = std::make_unique<StaticMobility>(layout);
  } else {
    RandomWaypointParams rwp;
    rwp.width = config_.area_width_m;
    rwp.height = config_.area_height_m;
    rwp.min_speed = std::max(config_.min_speed_mps, 0.1);
    rwp.max_speed = config_.max_speed_mps;
    rwp.pause = seconds_to_time(config_.pause_s);
    mobility_ = std::make_unique<RandomWaypoint>(layout, rwp,
                                                 util::mix64(config_.seed ^ 0x30B1u));
  }

  // --- PHY + nodes ---
  propagation_ = std::make_unique<phy::Propagation>(config_.prop,
                                                    util::mix64(config_.seed ^ 0x5AADu));
  channel_ = std::make_unique<phy::Channel>(sim_, *propagation_, *mobility_);
  channel_->set_index_mode(phy::Channel::parse_index_mode(config_.channel_index));
  nodes_.reserve(layout.size());
  for (std::size_t i = 0; i < layout.size(); ++i) {
    nodes_.push_back(std::make_unique<Node>(static_cast<NodeId>(i), sim_,
                                            *channel_, config_.mac));
  }
  has_flow_.assign(nodes_.size(), false);

  // --- Channel impairments (after radios exist: install_faults schedules
  // the outage toggles against attached radios) ---
  if (config_.faults.enabled()) {
    fault_injector_ = std::make_unique<phy::FaultInjector>(
        config_.faults, util::mix64(config_.seed ^ 0xFA17Bu));
    fault_injector_->set_corruptor(mac::corrupt_rts_fields);
    channel_->install_faults(*fault_injector_);
  }

  // --- L3 ---
  mac_sinks_.reserve(nodes_.size());
  for (auto& node : nodes_) {
    mac_sinks_.push_back(std::make_unique<DirectMacSink>(node->mac));
  }
  if (config_.routing == RoutingKind::kAodv) {
    routers_.reserve(nodes_.size());
    for (auto& node : nodes_) {
      routers_.push_back(std::make_unique<AodvRouter>(sim_, node->mac));
    }
  }
}

phy::CsTimeline& Network::timeline(NodeId id) {
  Node& node = *nodes_.at(id);
  if (!node.timeline) {
    node.timeline = std::make_unique<phy::CsTimeline>(
        seconds_to_time(config_.timeline_retention_s),
        config_.timeline_max_transitions);
    node.timeline->follow(node.radio, sim_.now());
  }
  return *node.timeline;
}

PacketSink& Network::sink(NodeId id) {
  if (!routers_.empty()) return *routers_.at(id);
  return *mac_sinks_.at(id);
}

std::vector<NodeId> Network::neighbors(NodeId id, double range, SimTime at) const {
  std::vector<NodeId> out;
  // Exact grid-backed query first: O(neighborhood) instead of O(N), with
  // byte-identical results (the channel falls back by returning false).
  if (channel_->radios_within(id, range, at, out)) return out;
  const geom::Vec2 p = mobility_->position(id, at);
  const double r2 = range * range;
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (j == id) continue;
    const geom::Vec2 q = mobility_->position(static_cast<NodeId>(j), at);
    if ((p - q).norm2() <= r2) out.push_back(static_cast<NodeId>(j));
  }
  return out;
}

std::unique_ptr<TrafficSource> Network::make_source(NodeId src, NodeId dst,
                                                    double pps) {
  const std::uint64_t seed =
      util::mix64(config_.seed ^ (0xA771C0 + (++traffic_seed_counter_)));
  if (config_.traffic == TrafficKind::kCbr) {
    return std::make_unique<CbrSource>(sim_, src, sink(src), dst, pps,
                                       config_.payload_bytes, seed);
  }
  return std::make_unique<PoissonSource>(sim_, src, sink(src), dst, pps,
                                         config_.payload_bytes, seed);
}

TrafficSource& Network::add_flow(NodeId src, NodeId dst, double pps) {
  if (src >= nodes_.size() || dst >= nodes_.size() || src == dst) {
    throw std::invalid_argument("invalid flow endpoints");
  }
  flows_.push_back(make_source(src, dst, pps));
  has_flow_[src] = true;
  return *flows_.back();
}

void Network::build_random_flows(const std::vector<NodeId>& exclude) {
  std::vector<bool> banned = has_flow_;
  for (NodeId e : exclude) banned.at(e) = true;

  std::vector<NodeId> candidates;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!banned[i]) candidates.push_back(i);
  }

  std::size_t wanted = config_.num_flows;
  while (wanted > flows_.size() && !candidates.empty()) {
    const std::size_t pick = flow_rng_.uniform_int(candidates.size());
    const NodeId src = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));

    NodeId dst = kInvalidNode;
    if (config_.flow_pattern == FlowPattern::kOneHop) {
      // A random one-hop neighbor at t=0 (the paper's workload).
      auto nbrs = neighbors(src, config_.prop.tx_range_m, 0);
      if (nbrs.empty()) continue;
      dst = nbrs[flow_rng_.uniform_int(nbrs.size())];
    } else {
      // Any other node; AODV finds the path.
      do {
        dst = static_cast<NodeId>(flow_rng_.uniform_int(nodes_.size()));
      } while (dst == src);
    }
    add_flow(src, dst, config_.packets_per_second);
  }
}

void Network::set_flow_rates(double pps) {
  for (auto& f : flows_) f->set_rate(pps);
}

void Network::start_traffic(SimTime start, SimTime stop) {
  for (auto& f : flows_) f->start(start, stop);
}

}  // namespace manet::net
