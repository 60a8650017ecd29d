// AODV routing (RFC 3561 subset) — the routing protocol of Table 1.
//
// Implements on-demand route discovery with RREQ flooding, destination
// sequence numbers, destination-only RREP, reverse/forward route setup,
// route lifetimes, and RERR propagation on link failure (detected through
// the MAC's ACK failures; no hello messages). Intermediate-node replies
// and expanding-ring search are intentionally omitted — the paper's
// workloads never need them — but the discovery retry logic is real.
//
// The router sits between traffic sources and the DCF MAC: it is the
// node's MacListener and forwards application deliveries to its own
// listener.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mac/dcf.hpp"
#include "net/traffic.hpp"
#include "sim/simulator.hpp"
#include "util/flat_u64_set.hpp"
#include "util/types.hpp"

namespace manet::net {

struct AodvParams {
  SimDuration active_route_timeout = 3 * kSecond;
  SimDuration route_discovery_timeout = 250 * kMillisecond;
  int rreq_retries = 2;
  std::uint32_t max_hops = 32;          // TTL for RREQ/RERR propagation
  std::size_t pending_queue_cap = 16;   // packets buffered per destination
  std::uint32_t control_packet_bytes = 24;
};

struct Route {
  NodeId next_hop = kInvalidNode;
  std::uint32_t hop_count = 0;
  std::uint32_t dest_seq = 0;
  SimTime expires = 0;
};

/// AODV routing table with the RFC's freshness rules.
class RouteTable {
 public:
  /// Valid (unexpired) route to `dest`, if any.
  std::optional<Route> lookup(NodeId dest, SimTime now) const;

  /// Installs/updates a route if it is fresher (higher sequence number) or
  /// equally fresh with fewer hops, per RFC 3561 6.2. Returns true when
  /// the table changed.
  bool update(NodeId dest, const Route& candidate);

  /// Removes the route to `dest`; returns its last sequence number.
  std::uint32_t invalidate(NodeId dest);

  /// Removes every route whose next hop is `via`; returns the affected
  /// destinations.
  std::vector<NodeId> invalidate_via(NodeId via);

  /// Refreshes the expiry of an in-use route.
  void refresh(NodeId dest, SimTime expires);

  std::size_t size() const { return routes_.size(); }

 private:
  std::unordered_map<NodeId, Route> routes_;
};

struct AodvStats {
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;        // L3 packets that reached us as dest
  std::uint64_t forwarded = 0;
  std::uint64_t rreq_sent = 0;        // originated + rebroadcast
  std::uint64_t rrep_sent = 0;
  std::uint64_t rerr_sent = 0;
  std::uint64_t discovery_failures = 0;
  std::uint64_t drops_no_route = 0;   // forwarding with no route
  std::uint64_t drops_link_failure = 0;
  std::uint64_t drops_buffer_full = 0;
};

/// Receives packets that reached their final destination.
class AodvListener {
 public:
  virtual ~AodvListener() = default;
  virtual void on_l3_delivered(const mac::Frame& data, SimTime at) = 0;
};

class AodvRouter : public mac::MacListener, public PacketSink {
 public:
  AodvRouter(sim::Simulator& simulator, mac::DcfMac& mac,
             const AodvParams& params = {});

  NodeId id() const { return mac_.id(); }
  const AodvStats& stats() const { return stats_; }
  const RouteTable& routes() const { return table_; }
  void set_listener(AodvListener* listener) { listener_ = listener; }

  // PacketSink: originate an L3 packet toward `dest` (any number of hops).
  bool submit(NodeId dest, std::uint32_t payload_bytes,
              std::uint64_t payload_id) override;

  // mac::MacListener:
  void on_delivered(const mac::Frame& data, SimTime at) override;
  void on_sent(const mac::Frame&, SimTime) override {}
  void on_dropped(const mac::Frame& data, mac::DropReason reason) override;

 private:
  void handle_rreq(const mac::Frame& frame);
  void handle_rrep(const mac::Frame& frame);
  void handle_rerr(const mac::Frame& frame);
  void forward_data(mac::Frame data);
  void start_discovery(NodeId dest, int attempts_left);
  void send_rreq(NodeId dest, std::uint32_t dest_seq);
  void send_rerr(NodeId dest, std::uint32_t dest_seq, std::uint32_t hops);
  void flush_pending(NodeId dest);
  void drop_pending(NodeId dest, std::uint64_t* counter);

  sim::Simulator& sim_;
  mac::DcfMac& mac_;
  AodvParams params_;
  AodvListener* listener_ = nullptr;

  RouteTable table_;
  std::uint32_t own_seq_ = 0;
  std::uint32_t next_rreq_id_ = 1;
  // RREQ duplicate suppression: every (origin, rreq_id) pair seen.
  util::FlatU64Set seen_rreqs_;
  // Packets awaiting a route, per destination.
  std::unordered_map<NodeId, std::deque<mac::Frame>> pending_;
  // Destinations with an active discovery (to avoid duplicate RREQs).
  std::unordered_set<NodeId> discovering_;

  AodvStats stats_;
};

}  // namespace manet::net
