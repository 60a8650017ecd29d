// MAC frame representation, including the paper's modified RTS fields.
//
// The modified RTS (paper Fig. 2) carries, beyond the standard fields:
//   * SeqOff#  — 13-bit offset into the sender's dictated pseudo-random
//                back-off sequence (commits the sender to the PRS),
//   * Attempt# — 3-bit retransmission attempt number (1 after a success,
//                incremented per failed attempt),
//   * MD       — MD5 digest of the DATA frame the RTS reserves the medium
//                for (lets monitors verify Attempt# honesty).
#pragma once

#include <cstdint>
#include <memory>

#include "crypto/md5.hpp"
#include "mac/params.hpp"
#include "phy/signal.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace manet::mac {

enum class FrameType : std::uint8_t { kRts, kCts, kData, kAck };

const char* frame_type_name(FrameType t);

/// Network-layer content of a DATA frame (the MAC carries it unchanged).
enum class L3Type : std::uint8_t { kRaw, kAodvRreq, kAodvRrep, kAodvRerr };

/// AODV control fields (subset of RFC 3561 sufficient for route discovery,
/// reply, and error propagation).
struct AodvInfo {
  std::uint32_t rreq_id = 0;
  std::uint32_t origin_seq = 0;
  std::uint32_t dest_seq = 0;
  std::uint32_t hop_count = 0;
};

struct Frame : phy::Payload {
  FrameType type = FrameType::kData;
  NodeId transmitter = kInvalidNode;  // TA
  NodeId receiver = kInvalidNode;     // RA

  /// NAV value: time the medium is reserved beyond the end of this frame.
  SimDuration duration = 0;

  // --- DATA fields ---
  std::uint32_t payload_bytes = 0;
  std::uint64_t payload_id = 0;   // identifies the payload contents

  // --- Network-layer header (multi-hop routing) ---
  L3Type l3 = L3Type::kRaw;
  NodeId net_source = kInvalidNode;       // originator of the L3 packet
  NodeId net_destination = kInvalidNode;  // final destination
  AodvInfo aodv;

  // --- Modified-RTS fields (paper Fig. 2) ---
  std::uint32_t seq_off = 0;      // 13-bit on the wire
  std::uint8_t attempt = 0;       // 3-bit on the wire, 1-based
  crypto::Md5Digest data_digest{};
};

using FramePtr = std::shared_ptr<const Frame>;

/// Digest of a DATA payload. Real hardware hashes the frame body; the
/// simulator synthesizes the body deterministically from its identity, so
/// equal (source, payload_id, size) means equal contents — exactly the
/// property the monitor's retransmission check relies on.
crypto::Md5Digest payload_digest(NodeId source, std::uint64_t payload_id,
                                 std::uint32_t payload_bytes);

/// Airtime of `frame` under `params`.
SimDuration frame_airtime(const Frame& frame, const DcfParams& params);

/// Builds the four frame types of an RTS/CTS/DATA/ACK exchange with
/// standard NAV chaining. The RTS carries `digest`, which must equal
/// payload_digest(from, data.payload_id, data.payload_bytes); the overload
/// without it computes it.
Frame make_rts(NodeId from, NodeId to, const Frame& data, std::uint32_t seq_off,
               std::uint8_t attempt, const DcfParams& params,
               const crypto::Md5Digest& digest);
Frame make_rts(NodeId from, NodeId to, const Frame& data, std::uint32_t seq_off,
               std::uint8_t attempt, const DcfParams& params);
Frame make_cts(NodeId from, const Frame& rts, const DcfParams& params);
Frame make_data(NodeId from, NodeId to, std::uint32_t payload_bytes,
                std::uint64_t payload_id, const DcfParams& params);
Frame make_ack(NodeId from, const Frame& data);

/// Fault-injection corruptor (phy::FaultInjector::PayloadCorruptor): returns
/// a copy of an RTS payload with mangled verifiable fields (SeqOff#,
/// Attempt#, one digest byte). Non-RTS payloads are returned unchanged —
/// their verifiable content is the digest match, which the RTS already
/// covers. The result is always delivered with Signal::corrupted set, so
/// receivers drop it at the FCS and the mangled fields are never parsed.
phy::PayloadPtr corrupt_rts_fields(const phy::PayloadPtr& original,
                                   util::Xoshiro256ss& rng);

}  // namespace manet::mac
