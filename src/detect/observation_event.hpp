// The detect <-> sim boundary: an explicit vocabulary for everything the
// detection pipeline consumes from a node's radio/MAC.
//
// Historically the ObservationHub was wired straight into simulator
// callbacks (mac::MacObserver for decoded frames, phy::RadioListener for
// the carrier-sense timeline), so detection could only run against a live
// sim::Network. The ObservationEvent enumeration makes every observation
// the pipeline depends on explicit:
//
//   * kFrame   — a frame the node's radio decoded, with air start/end and
//                the PRS announcement of the paper's modified RTS
//                (SeqOff#, Attempt#, MD5 digest) embedded; for non-RTS
//                frames those fields are zero, exactly as on the wire.
//   * kCarrier — a busy/idle transition of the node's carrier sense.
//   * kOutage  — a deaf/recovered transition of the node's own radio
//                (fault-injected outage; monitors discard windows that
//                overlap one).
//   * kMarker  — out-of-band annotations a recording harness embeds in
//                the stream (monitor activity toggles for mobile handoff,
//                end-of-trace). Markers never reach the hub's statistics;
//                replay harnesses interpret them.
//
// A recorded trace (src/detect/trace.hpp) holds these events in the order
// the node perceived them; ObservationHub::consume() walks one and feeds
// the same ingestion code the live callbacks use, so one detector
// implementation serves both a live simulation and a recorded trace.
#pragma once

#include <cstdint>

#include "crypto/md5.hpp"
#include "mac/frame.hpp"
#include "util/types.hpp"

namespace manet::detect {

enum class ObservationKind : std::uint8_t {
  kFrame = 0,
  kCarrier = 1,
  kOutage = 2,
  kMarker = 3,
};

/// Marker codes (kMarker events). Values are part of the trace format.
enum class MarkerCode : std::uint32_t {
  /// Monitor-activity toggle on the recorded node (value: 0 = suspend,
  /// 1 = resume) — how mobile-handoff role changes appear in a trace.
  kActivity = 1,
  /// Last event of a trace; `at` is the end of the recorded run (value 0).
  kTraceEnd = 2,
};

struct ObservationEvent {
  ObservationKind kind = ObservationKind::kCarrier;
  /// Time the node perceived the event: decode end for frames, the
  /// transition instant for carrier/outage edges, emission time for
  /// markers. Traces hold events in non-decreasing `at` order.
  SimTime at = 0;

  // --- kFrame ---------------------------------------------------------------
  SimTime start = 0;  // air start (at == air end for frames)
  mac::FrameType type = mac::FrameType::kData;
  NodeId transmitter = kInvalidNode;
  NodeId receiver = kInvalidNode;
  SimDuration duration = 0;  // NAV field
  // PRS announcement (paper Fig. 2; zero for non-RTS frames).
  std::uint32_t seq_off = 0;
  std::uint8_t attempt = 0;
  crypto::Md5Digest digest{};

  // --- kCarrier / kOutage -----------------------------------------------------
  bool rising = false;  // carrier: busy; outage: went deaf

  // --- kMarker ---------------------------------------------------------------
  std::uint32_t marker_code = 0;
  std::uint64_t marker_value = 0;

  bool operator==(const ObservationEvent&) const = default;

  /// The decoded frame a kFrame event describes, reconstructed for the
  /// ingestion path. Only fields the detection pipeline reads survive the
  /// round trip (type, addresses, NAV duration, PRS announcement); payload
  /// identity and L3 headers are not observations and are not carried.
  mac::Frame to_frame() const {
    mac::Frame frame;
    frame.type = type;
    frame.transmitter = transmitter;
    frame.receiver = receiver;
    frame.duration = duration;
    frame.seq_off = seq_off;
    frame.attempt = attempt;
    frame.data_digest = digest;
    return frame;
  }

  static ObservationEvent from_frame(const mac::Frame& frame, SimTime start,
                                     SimTime end) {
    ObservationEvent ev;
    ev.kind = ObservationKind::kFrame;
    ev.at = end;
    ev.start = start;
    ev.type = frame.type;
    ev.transmitter = frame.transmitter;
    ev.receiver = frame.receiver;
    ev.duration = frame.duration;
    ev.seq_off = frame.seq_off;
    ev.attempt = frame.attempt;
    ev.digest = frame.data_digest;
    return ev;
  }
};

}  // namespace manet::detect
