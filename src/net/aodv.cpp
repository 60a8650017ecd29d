#include "net/aodv.hpp"

#include <cassert>

namespace manet::net {

namespace {
std::uint64_t rreq_key(NodeId origin, std::uint32_t rreq_id) {
  return (static_cast<std::uint64_t>(origin) << 32) | rreq_id;
}

/// Sequence number comparison with wraparound (RFC 3561 uses signed
/// 32-bit subtraction).
bool seq_newer(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}
}  // namespace

// --- RouteTable --------------------------------------------------------------

std::optional<Route> RouteTable::lookup(NodeId dest, SimTime now) const {
  auto it = routes_.find(dest);
  if (it == routes_.end() || it->second.expires <= now) return std::nullopt;
  return it->second;
}

bool RouteTable::update(NodeId dest, const Route& candidate) {
  auto it = routes_.find(dest);
  if (it == routes_.end()) {
    routes_.emplace(dest, candidate);
    return true;
  }
  Route& current = it->second;
  // RFC 3561 6.2: adopt when the candidate is fresher, or equally fresh
  // with fewer hops; an equally fresh report over the same next hop
  // refreshes the entry.
  if (seq_newer(candidate.dest_seq, current.dest_seq)) {
    current = candidate;
    return true;
  }
  if (candidate.dest_seq == current.dest_seq) {
    if (candidate.hop_count < current.hop_count ||
        candidate.next_hop == current.next_hop) {
      current = candidate;
      return true;
    }
  }
  return false;
}

std::uint32_t RouteTable::invalidate(NodeId dest) {
  auto it = routes_.find(dest);
  if (it == routes_.end()) return 0;
  const std::uint32_t seq = it->second.dest_seq;
  routes_.erase(it);
  return seq;
}

std::vector<NodeId> RouteTable::invalidate_via(NodeId via) {
  std::vector<NodeId> affected;
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second.next_hop == via) {
      affected.push_back(it->first);
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
  return affected;
}

void RouteTable::refresh(NodeId dest, SimTime expires) {
  auto it = routes_.find(dest);
  if (it != routes_.end() && it->second.expires < expires) {
    it->second.expires = expires;
  }
}

// --- AodvRouter --------------------------------------------------------------

AodvRouter::AodvRouter(sim::Simulator& simulator, mac::DcfMac& mac,
                       const AodvParams& params)
    : sim_(simulator), mac_(mac), params_(params) {
  mac_.set_listener(this);
}

bool AodvRouter::submit(NodeId dest, std::uint32_t payload_bytes,
                        std::uint64_t payload_id) {
  ++stats_.originated;
  mac::Frame data =
      mac::make_data(id(), dest, payload_bytes, payload_id, mac_.params());
  data.net_source = id();
  data.net_destination = dest;

  if (dest == id()) {  // loopback, degenerate but defined
    ++stats_.delivered;
    if (listener_) listener_->on_l3_delivered(data, sim_.now());
    return true;
  }

  const auto route = table_.lookup(dest, sim_.now());
  if (route) {
    data.receiver = route->next_hop;
    table_.refresh(dest, sim_.now() + params_.active_route_timeout);
    return mac_.enqueue_frame(std::move(data));
  }

  auto& queue = pending_[dest];
  if (queue.size() >= params_.pending_queue_cap) {
    ++stats_.drops_buffer_full;
    return false;
  }
  queue.push_back(std::move(data));
  if (discovering_.insert(dest).second) {
    start_discovery(dest, params_.rreq_retries + 1);
  }
  return true;
}

void AodvRouter::start_discovery(NodeId dest, int attempts_left) {
  if (attempts_left <= 0) {
    ++stats_.discovery_failures;
    discovering_.erase(dest);
    drop_pending(dest, &stats_.drops_no_route);
    return;
  }
  const std::uint32_t last_seq = [&] {
    auto it = table_.lookup(dest, sim_.now());
    return it ? it->dest_seq : 0u;
  }();
  send_rreq(dest, last_seq);
  sim_.after(params_.route_discovery_timeout, [this, dest, attempts_left] {
    if (discovering_.count(dest) == 0) return;  // already resolved
    if (table_.lookup(dest, sim_.now())) {
      discovering_.erase(dest);
      flush_pending(dest);
      return;
    }
    start_discovery(dest, attempts_left - 1);
  });
}

void AodvRouter::send_rreq(NodeId dest, std::uint32_t dest_seq) {
  ++own_seq_;
  mac::Frame rreq = mac::make_data(id(), kBroadcastNode,
                                   params_.control_packet_bytes,
                                   /*payload_id=*/0, mac_.params());
  rreq.l3 = mac::L3Type::kAodvRreq;
  rreq.net_source = id();
  rreq.net_destination = dest;
  rreq.aodv.rreq_id = next_rreq_id_++;
  rreq.aodv.origin_seq = own_seq_;
  rreq.aodv.dest_seq = dest_seq;
  rreq.aodv.hop_count = 0;
  seen_rreqs_.insert(rreq_key(id(), rreq.aodv.rreq_id));
  ++stats_.rreq_sent;
  mac_.enqueue_frame(std::move(rreq));
}

void AodvRouter::send_rerr(NodeId dest, std::uint32_t dest_seq,
                           std::uint32_t hops) {
  mac::Frame rerr = mac::make_data(id(), kBroadcastNode,
                                   params_.control_packet_bytes, 0, mac_.params());
  rerr.l3 = mac::L3Type::kAodvRerr;
  rerr.net_source = id();
  rerr.net_destination = dest;   // the unreachable destination
  rerr.aodv.dest_seq = dest_seq + 1;
  rerr.aodv.hop_count = hops;
  ++stats_.rerr_sent;
  mac_.enqueue_frame(std::move(rerr));
}

void AodvRouter::flush_pending(NodeId dest) {
  auto it = pending_.find(dest);
  if (it == pending_.end()) return;
  std::deque<mac::Frame> queue = std::move(it->second);
  pending_.erase(it);
  for (mac::Frame& f : queue) {
    const auto route = table_.lookup(dest, sim_.now());
    if (!route) {
      ++stats_.drops_no_route;
      continue;
    }
    f.receiver = route->next_hop;
    mac_.enqueue_frame(std::move(f));
  }
}

void AodvRouter::drop_pending(NodeId dest, std::uint64_t* counter) {
  auto it = pending_.find(dest);
  if (it == pending_.end()) return;
  *counter += it->second.size();
  pending_.erase(it);
}

void AodvRouter::on_delivered(const mac::Frame& data, SimTime at) {
  switch (data.l3) {
    case mac::L3Type::kAodvRreq:
      handle_rreq(data);
      return;
    case mac::L3Type::kAodvRrep:
      handle_rrep(data);
      return;
    case mac::L3Type::kAodvRerr:
      handle_rerr(data);
      return;
    case mac::L3Type::kRaw:
      break;
  }

  if (data.net_destination == id() ||
      data.net_destination == kBroadcastNode) {
    ++stats_.delivered;
    if (listener_) listener_->on_l3_delivered(data, at);
    return;
  }
  forward_data(data);
}

void AodvRouter::forward_data(mac::Frame data) {
  const NodeId dest = data.net_destination;
  const auto route = table_.lookup(dest, sim_.now());
  if (!route) {
    ++stats_.drops_no_route;
    send_rerr(dest, table_.invalidate(dest), 0);
    return;
  }
  data.receiver = route->next_hop;
  table_.refresh(dest, sim_.now() + params_.active_route_timeout);
  ++stats_.forwarded;
  mac_.enqueue_frame(std::move(data));
}

void AodvRouter::handle_rreq(const mac::Frame& frame) {
  const NodeId origin = frame.net_source;
  const NodeId dest = frame.net_destination;
  if (origin == id()) return;  // our own flood echoed back
  if (!seen_rreqs_.insert(rreq_key(origin, frame.aodv.rreq_id))) {
    return;  // duplicate
  }

  // Reverse route to the originator through the broadcasting neighbor.
  Route reverse;
  reverse.next_hop = frame.transmitter;
  reverse.hop_count = frame.aodv.hop_count + 1;
  reverse.dest_seq = frame.aodv.origin_seq;
  reverse.expires = sim_.now() + params_.active_route_timeout;
  table_.update(origin, reverse);

  if (dest == id()) {
    // Destination-only reply (RFC 3561 6.6.1).
    if (!seq_newer(own_seq_, frame.aodv.dest_seq)) {
      own_seq_ = frame.aodv.dest_seq + 1;
    }
    mac::Frame rrep = mac::make_data(id(), reverse.next_hop,
                                     params_.control_packet_bytes, 0, mac_.params());
    rrep.l3 = mac::L3Type::kAodvRrep;
    rrep.net_source = origin;     // RREP travels back to the originator
    rrep.net_destination = id();  // ... announcing a route to us
    rrep.aodv.dest_seq = own_seq_;
    rrep.aodv.hop_count = 0;
    ++stats_.rrep_sent;
    mac_.enqueue_frame(std::move(rrep));
    return;
  }

  if (frame.aodv.hop_count + 1 >= params_.max_hops) return;  // TTL exhausted

  // Rebroadcast.
  mac::Frame fwd = frame;
  fwd.receiver = kBroadcastNode;
  fwd.aodv.hop_count += 1;
  ++stats_.rreq_sent;
  mac_.enqueue_frame(std::move(fwd));
}

void AodvRouter::handle_rrep(const mac::Frame& frame) {
  const NodeId route_dest = frame.net_destination;  // node the route leads to
  const NodeId origin = frame.net_source;           // who asked for it

  // Forward route to the replying destination.
  Route forward;
  forward.next_hop = frame.transmitter;
  forward.hop_count = frame.aodv.hop_count + 1;
  forward.dest_seq = frame.aodv.dest_seq;
  forward.expires = sim_.now() + params_.active_route_timeout;
  table_.update(route_dest, forward);

  if (origin == id()) {
    discovering_.erase(route_dest);
    flush_pending(route_dest);
    return;
  }

  // Relay the RREP along the reverse route toward the originator.
  const auto reverse = table_.lookup(origin, sim_.now());
  if (!reverse) return;  // reverse route evaporated; originator will retry
  mac::Frame fwd = frame;
  fwd.receiver = reverse->next_hop;
  fwd.aodv.hop_count += 1;
  ++stats_.rrep_sent;
  mac_.enqueue_frame(std::move(fwd));
}

void AodvRouter::handle_rerr(const mac::Frame& frame) {
  const NodeId dest = frame.net_destination;
  const auto route = table_.lookup(dest, sim_.now());
  // Only routes that actually go through the reporting neighbor are stale.
  if (!route || route->next_hop != frame.transmitter) return;
  table_.invalidate(dest);
  if (frame.aodv.hop_count < 3) {  // bounded propagation
    send_rerr(dest, frame.aodv.dest_seq, frame.aodv.hop_count + 1);
  }
}

void AodvRouter::on_dropped(const mac::Frame& data, mac::DropReason) {
  // The MAC exhausted its retries toward data.receiver: the link is gone.
  if (data.l3 != mac::L3Type::kRaw) return;  // control frames: no action
  ++stats_.drops_link_failure;
  const NodeId broken_hop = data.receiver;
  for (NodeId dest : table_.invalidate_via(broken_hop)) {
    send_rerr(dest, 0, 0);
  }
}

}  // namespace manet::net
