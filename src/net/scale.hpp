// Scale scenarios: N-node random-waypoint fields at constant node density
// with a multi-hop AODV request/response workload.
//
// The paper's experiments stop at 112 nodes; these builders produce the
// 1k-10k-node configurations the scale benchmarks (bench/fig_scale_sweep)
// run. The field area grows with the node count so density — and thus
// per-node contention — stays fixed, which keeps the workload comparable
// across sweep sizes.
//
// The workload exercises the full stack in both directions: Poisson
// request sources at random nodes, AODV discovery + forwarding to random
// destinations, and a responder on every node that answers each request
// back to its originator (frame.net_source). Requests are tagged in the
// payload id so responders can tell the two directions apart.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/scenario.hpp"
#include "util/types.hpp"

namespace manet::net {

struct ScaleScenarioParams {
  std::size_t nodes = 1000;

  /// Node density. The paper's random scenario sits at ~12.4 nodes/km^2 —
  /// a transmission-range degree of only ~2.4, below the continuum
  /// percolation threshold (~4.5), which is why its flows are one-hop.
  /// Multi-hop request/response needs routes to exist, so the default is
  /// denser: ~40/km^2 gives a tx-range degree near 8 and a connected
  /// 250 m graph with high probability.
  double density_per_km2 = 40.0;

  double sim_seconds = 10.0;

  /// Request flows; 0 means nodes/20 (and at least one).
  std::size_t num_flows = 0;
  double packets_per_second = 2.0;
  std::uint32_t payload_bytes = 512;

  double min_speed_mps = 0.5;
  double max_speed_mps = 20.0;
  double pause_s = 5.0;

  std::uint64_t seed = 1;

  /// Channel receiver-lookup mode (auto | scan).
  std::string channel_index = "auto";

  /// Per-node carrier-history budgets. Scale runs keep a short horizon:
  /// nothing replays the timelines afterwards, so memory stays O(budget)
  /// per node instead of O(sim length).
  double timeline_retention_s = 2.0;
  std::size_t timeline_max_transitions = std::size_t{1} << 14;

  /// Throws std::invalid_argument on parameters that are non-positive,
  /// non-finite, or large enough to overflow grid-cell indexing.
  void validate() const;

  /// num_flows with the 0-default resolved.
  std::size_t resolved_flows() const;
};

/// Builds the ScenarioConfig for a scale run: random connected layout over
/// a density-preserving area, random-waypoint mobility, AODV routing with
/// any-node flows. Calls params.validate().
ScenarioConfig make_scale_config(const ScaleScenarioParams& params);

/// Answers request payloads delivered over AODV with a response to the
/// request's originator. Distinguishes the two directions by the marker
/// bit in the payload id (bit 63; traffic sources use bits 0..61).
class RequestResponder : public AodvListener {
 public:
  static constexpr std::uint64_t kRequestBit = std::uint64_t{1} << 63;

  explicit RequestResponder(PacketSink& sink) : sink_(sink) {}

  void on_l3_delivered(const mac::Frame& data, SimTime at) override;

  std::uint64_t requests_received() const { return requests_received_; }
  std::uint64_t responses_sent() const { return responses_sent_; }
  std::uint64_t responses_received() const { return responses_received_; }

 private:
  PacketSink& sink_;
  std::uint64_t requests_received_ = 0;
  std::uint64_t responses_sent_ = 0;
  std::uint64_t responses_received_ = 0;
};

/// The request/response workload over a Network built from
/// make_scale_config: installs a RequestResponder on every node's router
/// and Poisson request sources at `num_flows` random nodes. Throws
/// std::invalid_argument when the network has no AODV routers.
class ScaleWorkload {
 public:
  ScaleWorkload(Network& net, std::size_t num_flows, double packets_per_second,
                std::uint64_t seed);

  /// Starts every request source over [start, stop].
  void start(SimTime start, SimTime stop);

  struct Stats {
    std::uint64_t requests_generated = 0;  // submitted by sources
    std::uint64_t requests_delivered = 0;  // reached their destination
    std::uint64_t responses_sent = 0;      // accepted by the responder's router
    std::uint64_t responses_delivered = 0; // made it back to the requester
  };
  Stats stats() const;

 private:
  /// Tags outgoing request payload ids before they enter the router.
  class MarkingSink : public PacketSink {
   public:
    explicit MarkingSink(PacketSink& inner) : inner_(inner) {}
    bool submit(NodeId dest, std::uint32_t payload_bytes,
                std::uint64_t payload_id) override {
      return inner_.submit(dest, payload_bytes,
                           payload_id | RequestResponder::kRequestBit);
    }

   private:
    PacketSink& inner_;
  };

  Network& net_;
  std::vector<std::unique_ptr<RequestResponder>> responders_;  // one per node
  std::vector<std::unique_ptr<MarkingSink>> marking_sinks_;    // one per flow
  std::vector<std::unique_ptr<TrafficSource>> sources_;        // one per flow
};

}  // namespace manet::net
