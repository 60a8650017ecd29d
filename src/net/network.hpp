// Network: assembles a complete simulated ad hoc network from a
// ScenarioConfig — simulator, propagation, channel, mobility, one radio +
// DCF MAC per node, and the traffic flows. A node records its
// carrier-sense timeline only once something asks for it (timeline()):
// monitors and the calibration probe read a handful of nodes, so the
// rest pay nothing per carrier edge.
//
// This is the substrate every experiment runs on; the detection framework
// (src/detect) attaches to it from outside via MAC observers and radio
// listeners.
#pragma once

#include <memory>
#include <vector>

#include "mac/dcf.hpp"
#include "net/aodv.hpp"
#include "net/mobility.hpp"
#include "net/scenario.hpp"
#include "net/traffic.hpp"
#include "phy/channel.hpp"
#include "phy/cs_timeline.hpp"
#include "phy/impairments.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

namespace manet::net {

/// One station: radio + MAC, and the CS timeline monitors read once
/// Network::timeline has asked for it.
struct Node {
  Node(NodeId id, sim::Simulator& sim, phy::Channel& channel,
       const mac::DcfParams& params)
      : radio(id, channel), mac(sim, radio, params) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  phy::Radio radio;
  mac::DcfMac mac;
  std::unique_ptr<phy::CsTimeline> timeline;  // null until first asked for
};

class Network {
 public:
  explicit Network(const ScenarioConfig& config);

  const ScenarioConfig& config() const { return config_; }
  sim::Simulator& simulator() { return sim_; }
  phy::Channel& channel() { return *channel_; }

  std::size_t size() const { return nodes_.size(); }
  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  mac::DcfMac& mac(NodeId id) { return nodes_.at(id)->mac; }
  phy::Radio& radio(NodeId id) { return nodes_.at(id)->radio; }

  /// The node's carrier-sense timeline. The first call creates it and
  /// starts it recording from the radio's state at now() (CsTimeline::
  /// follow): history before that reads as idle air, so ask before the
  /// span you query, and before registering any radio listener that must
  /// see edges after the timeline does. Later calls return the same one.
  phy::CsTimeline& timeline(NodeId id);

  /// The node's AODV router (null unless config.routing == kAodv). With
  /// routing enabled the router owns the MAC's listener slot.
  AodvRouter* router(NodeId id) { return routers_.empty() ? nullptr : routers_.at(id).get(); }

  /// The channel fault injector (null when config.faults is disabled).
  phy::FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// The sink traffic sources feed (router when routing is enabled,
  /// otherwise the MAC itself).
  PacketSink& sink(NodeId id);

  const phy::PositionProvider& positions() const { return *mobility_; }
  geom::Vec2 position_of(NodeId id, SimTime at) const {
    return mobility_->position(id, at);
  }

  /// Neighbors of `id` within `range` meters at simulation time `at`.
  std::vector<NodeId> neighbors(NodeId id, double range, SimTime at) const;

  /// A node near the middle of the layout (the paper places the monitored
  /// pair at the grid center so two-hop interference is fully exercised).
  NodeId center_node() const { return center_; }

  /// Creates a flow src -> dst (replacing any existing flow from src).
  /// Must be called before start_traffic.
  TrafficSource& add_flow(NodeId src, NodeId dst, double packets_per_second);

  /// Creates the configured number of random one-hop flows. Sources are
  /// distinct and never collide with flows added via add_flow; `exclude`
  /// nodes are never chosen as sources.
  void build_random_flows(const std::vector<NodeId>& exclude = {});

  std::size_t flow_count() const { return flows_.size(); }
  TrafficSource& flow(std::size_t i) { return *flows_.at(i); }

  /// Scales every flow to the given per-flow rate.
  void set_flow_rates(double packets_per_second);

  /// Starts all flows over [start, stop].
  void start_traffic(SimTime start, SimTime stop);

  /// Runs the simulation until absolute time `until`.
  void run_until(SimTime until) { sim_.run_until(until); }

 private:
  std::unique_ptr<TrafficSource> make_source(NodeId src, NodeId dst, double pps);

  ScenarioConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<phy::Propagation> propagation_;
  std::unique_ptr<phy::PositionProvider> mobility_;
  std::unique_ptr<phy::Channel> channel_;
  std::unique_ptr<phy::FaultInjector> fault_injector_;  // null when disabled
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<AodvRouter>> routers_;     // empty unless AODV
  std::vector<std::unique_ptr<DirectMacSink>> mac_sinks_;
  std::vector<std::unique_ptr<TrafficSource>> flows_;
  std::vector<bool> has_flow_;  // per node: already a source?
  NodeId center_ = 0;
  util::Xoshiro256ss flow_rng_;
  std::uint64_t traffic_seed_counter_ = 0;
};

}  // namespace manet::net
