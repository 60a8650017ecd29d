#include "mac/frame.hpp"

namespace manet::mac {

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kRts: return "RTS";
    case FrameType::kCts: return "CTS";
    case FrameType::kData: return "DATA";
    case FrameType::kAck: return "ACK";
  }
  return "?";
}

crypto::Md5Digest payload_digest(NodeId source, std::uint64_t payload_id,
                                 std::uint32_t payload_bytes) {
  std::uint8_t material[16];
  std::uint64_t words[2] = {
      (static_cast<std::uint64_t>(source) << 32) ^ payload_id,
      (static_cast<std::uint64_t>(payload_bytes) << 1) | 1u};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 8; ++i) {
      material[8 * w + i] = static_cast<std::uint8_t>((words[w] >> (8 * i)) & 0xFF);
    }
  }
  return crypto::Md5::hash(std::span<const std::uint8_t>(material, sizeof material));
}

SimDuration frame_airtime(const Frame& frame, const DcfParams& params) {
  switch (frame.type) {
    case FrameType::kRts: return params.rts_airtime();
    case FrameType::kCts: return params.cts_airtime();
    case FrameType::kAck: return params.ack_airtime();
    case FrameType::kData: return params.data_airtime(frame.payload_bytes);
  }
  return 0;
}

Frame make_rts(NodeId from, NodeId to, const Frame& data, std::uint32_t seq_off,
               std::uint8_t attempt, const DcfParams& params,
               const crypto::Md5Digest& digest) {
  Frame rts;
  rts.type = FrameType::kRts;
  rts.transmitter = from;
  rts.receiver = to;
  rts.seq_off = seq_off % params.seq_off_modulo;
  rts.attempt = attempt;
  rts.data_digest = digest;
  rts.payload_bytes = data.payload_bytes;
  rts.duration = 3 * params.sifs + params.cts_airtime() +
                 params.data_airtime(data.payload_bytes) + params.ack_airtime();
  return rts;
}

Frame make_rts(NodeId from, NodeId to, const Frame& data, std::uint32_t seq_off,
               std::uint8_t attempt, const DcfParams& params) {
  return make_rts(from, to, data, seq_off, attempt, params,
                  payload_digest(from, data.payload_id, data.payload_bytes));
}

Frame make_cts(NodeId from, const Frame& rts, const DcfParams& params) {
  Frame cts;
  cts.type = FrameType::kCts;
  cts.transmitter = from;
  cts.receiver = rts.transmitter;
  cts.duration = rts.duration - params.sifs - params.cts_airtime();
  if (cts.duration < 0) cts.duration = 0;
  return cts;
}

Frame make_data(NodeId from, NodeId to, std::uint32_t payload_bytes,
                std::uint64_t payload_id, const DcfParams& params) {
  Frame data;
  data.type = FrameType::kData;
  data.transmitter = from;
  data.receiver = to;
  data.payload_bytes = payload_bytes;
  data.payload_id = payload_id;
  // Group-addressed frames are not acknowledged and reserve nothing.
  data.duration = to == kBroadcastNode ? 0 : params.sifs + params.ack_airtime();
  data.net_source = from;
  data.net_destination = to;
  return data;
}

Frame make_ack(NodeId from, const Frame& data) {
  Frame ack;
  ack.type = FrameType::kAck;
  ack.transmitter = from;
  ack.receiver = data.transmitter;
  ack.duration = 0;
  return ack;
}

phy::PayloadPtr corrupt_rts_fields(const phy::PayloadPtr& original,
                                   util::Xoshiro256ss& rng) {
  const auto* frame = dynamic_cast<const Frame*>(original.get());
  if (frame == nullptr || frame->type != FrameType::kRts) return original;
  auto mangled = std::make_shared<Frame>(*frame);
  // XOR with a nonzero delta guarantees the field actually changes; the
  // 13-bit / 3-bit widths match the wire format (paper Fig. 2).
  mangled->seq_off ^= static_cast<std::uint32_t>(1 + rng.uniform_int(8191));
  mangled->attempt ^= static_cast<std::uint8_t>(1 + rng.uniform_int(7));
  mangled->data_digest[rng.uniform_int(mangled->data_digest.size())] ^=
      static_cast<std::uint8_t>(1 + rng.uniform_int(255));
  return mangled;
}

}  // namespace manet::mac
