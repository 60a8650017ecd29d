// The .mtrace binary observation-trace format: everything a monitor
// daemon would need to re-run detection offline, recorded from the
// existing observer plumbing.
//
// A trace captures ONE node's view of the air: every frame its radio
// decoded (with the PRS announcement of the paper's modified RTS), every
// carrier busy/idle transition, every radio outage edge, plus harness
// markers (monitor-activity toggles under mobile handoff). The header
// carries the protocol parameters, the monitored identities, and an exact
// snapshot of the node's carrier-sense timeline at recording start — so a
// replay reconstructs the monitor's world bit for bit even when recording
// begins mid-run (a handoff target attaches to a timeline already in some
// state: the channel may be busy or the radio deaf at that instant).
//
// Layout (all integers little-endian, fixed width):
//
//   header block:  [u32 magic "MTRC"] [u32 payload_len] [u32 crc32] [payload]
//     payload: u16 version, u16 reserved, u32 node, i64 start_time,
//              DcfParams fields, target list, CsTimeline snapshot
//   event blocks:  [u32 payload_len] [u32 event_count] [u32 crc32] [payload]
//     payload: event_count serialized ObservationEvents (u8 kind + fields)
//     A writer flushes a block every kBlockEvents events; the last event
//     block may be shorter.
//   end block:     [u32 0] [u32 0] [u32 crc32 of nothing = 0]
//     Every stream ends with it, and nothing follows it, so a stream cut
//     at a block boundary is as detectable as one cut inside a block.
//   Truncated streams, a missing end block, bytes after it, and CRC
//   mismatches raise TraceError at parse time, never at event delivery.
//
// The writer plugs into a live node as a mac::MacObserver (decoded
// frames) plus phy::RadioListener (carrier/outage edges) — register it
// AFTER the node's CsTimeline so the recorded order of carrier edges
// relative to frames matches what the hub observed. Readers implement
// ObservationSource for ObservationHub::consume().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/observation_source.hpp"
#include "mac/dcf.hpp"
#include "phy/cs_timeline.hpp"
#include "phy/radio.hpp"
#include "util/types.hpp"

namespace manet::detect {

class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kTraceMagic = 0x4352544Du;  // "MTRC" on disk
inline constexpr std::uint16_t kTraceVersion = 2;

struct TraceHeader {
  NodeId node = kInvalidNode;   // the recording monitor node (R)
  SimTime start_time = 0;       // recording start (monitor attach instant)
  mac::DcfParams params;        // protocol timing of the observed network
  std::vector<NodeId> targets;  // identities the recorded run monitored
  phy::CsTimelineSnapshot timeline;  // carrier-sense state at start_time

  bool operator==(const TraceHeader&) const = default;
};

/// CRC-32 (IEEE 802.3, reflected) over `len` bytes.
std::uint32_t trace_crc32(const std::uint8_t* data, std::size_t len);

class TraceWriter : public mac::MacObserver, public phy::RadioListener {
 public:
  /// Events per CRC'd block. Part of the format's canonical form: equal
  /// event streams serialize to equal bytes.
  static constexpr std::size_t kBlockEvents = 512;

  explicit TraceWriter(const TraceHeader& header);

  const TraceHeader& header() const { return header_; }
  std::uint64_t events_recorded() const { return events_; }

  /// Appends one event (must not decrease in `at`).
  void record(const ObservationEvent& event);
  /// Appends a kMarker event.
  void marker(MarkerCode code, std::uint64_t value, SimTime at);

  /// The serialized trace: header block, completed blocks, the pending
  /// partial block, and the end block.
  std::vector<std::uint8_t> serialize() const;
  void write_file(const std::string& path) const;

  // mac::MacObserver (decoded frames):
  void on_frame(const mac::Frame& frame, SimTime start, SimTime end) override;

  // phy::RadioListener (carrier-sense and outage edges):
  void on_carrier(bool busy, SimTime at) override;
  void on_receive(const phy::Signal&) override {}
  void on_receive_error(const phy::Signal&) override {}
  void on_transmit_end(std::uint64_t) override {}
  void on_outage(bool deaf, SimTime at) override;

 private:
  void flush_block();

  TraceHeader header_;
  std::vector<std::uint8_t> buffer_;  // header block + completed event blocks
  std::vector<std::uint8_t> block_;   // payload of the accumulating block
  std::uint32_t block_events_ = 0;
  std::uint64_t events_ = 0;
};

/// Parses a serialized trace held in memory (validates magic, version,
/// framing, and every CRC up front) and yields its events in order.
class MemoryTraceReader : public ObservationSource {
 public:
  /// Decodes `bytes` (not retained) into a buffer sized once from the
  /// block headers. Throws TraceError on truncation, corruption, or
  /// version mismatch.
  explicit MemoryTraceReader(std::span<const std::uint8_t> bytes);

  const TraceHeader& header() const { return header_; }
  std::size_t event_count() const { return events_.size(); }
  const std::vector<ObservationEvent>& events() const { return events_; }

  void rewind() { cursor_ = 0; }

  // ObservationSource:
  bool next(ObservationEvent& event) override;

 private:
  TraceHeader header_;
  std::vector<ObservationEvent> events_;
  std::size_t cursor_ = 0;
};

/// MemoryTraceReader over the contents of a .mtrace file.
class FileTraceReader : public MemoryTraceReader {
 public:
  /// Throws TraceError when the file cannot be read or fails validation.
  explicit FileTraceReader(const std::string& path);
};

/// Recording harness handle for run_multi_detection_experiment: one
/// TraceWriter per monitoring node, in monitor-creation order (the order
/// replay must aggregate in to match the live readout). Outlives the
/// network it records — observer registrations cannot be undone, so the
/// writers must not be destroyed before the simulation ends.
class TraceRecorder {
 public:
  TraceWriter& add(const TraceHeader& header) {
    writers_.push_back(std::make_unique<TraceWriter>(header));
    return *writers_.back();
  }
  TraceWriter* find(NodeId node) {
    for (auto& w : writers_) {
      if (w->header().node == node) return w.get();
    }
    return nullptr;
  }
  const std::vector<std::unique_ptr<TraceWriter>>& writers() const {
    return writers_;
  }

 private:
  std::vector<std::unique_ptr<TraceWriter>> writers_;
};

}  // namespace manet::detect
