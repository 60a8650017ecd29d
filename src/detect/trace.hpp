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
// Layout (integers little-endian; fixed width unless marked varint, which
// is unsigned LEB128 in its shortest form):
//
//   header block:  [u32 magic "MTRC"] [u32 payload_len] [u32 crc32] [payload]
//     payload: u16 version (3), u16 reserved, u32 node, i64 start_time,
//              DcfParams fields, target list, CsTimeline snapshot
//   event blocks:  [u32 payload_len] [u32 event_count] [u32 crc32] [payload]
//     payload: records, each starting with a u8 event kind:
//       frame:   kind, u8 type, u8 attempt, i64 start, i64 at,
//                u32 transmitter, u32 receiver, i64 duration, u32 seq_off,
//                16-byte digest
//       carrier: kind, u8 state of the first edge (0 idle, 1 busy),
//                varint edge count n >= 1, then n varint time deltas —
//                one maximal run of consecutive carrier edges whose states
//                alternate from the first. An edge that repeats the state
//                before it starts a new run, so any stream round-trips.
//       outage:  kind, u8 state (1 deaf), i64 at
//       marker:  kind, u32 code, u64 value, i64 at
//     Every edge's delta is its time minus the previous event's `at` (any
//     kind, across blocks; the header's start_time before the first
//     event), so `at` never decreases through a stream.
//     event_count counts single events (a run of n edges counts n); every
//     event takes at least one payload byte, which bounds a forged count.
//     A writer flushes a block every kBlockEvents events, closing any open
//     run; the last event block may be shorter.
//   end block:     [u32 0] [u32 0] [u32 crc32 of nothing = 0]
//     Every stream ends with it, and nothing follows it, so a stream cut
//     at a block boundary is as detectable as one cut inside a block.
//   Truncated streams, a missing end block, bytes after it, CRC
//   mismatches, malformed varints, empty runs and time going backwards
//   raise TraceError at parse time, never at event delivery.
//
// The writer plugs into a live node as a mac::MacObserver (decoded
// frames) plus phy::RadioListener (carrier/outage edges) — register it
// AFTER the node's CsTimeline so the recorded order of carrier edges
// relative to frames matches what the hub observed. A reader decodes the
// whole stream up front into a compact form that ObservationHub::consume()
// walks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/observation_event.hpp"
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
inline constexpr std::uint16_t kTraceVersion = 3;

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

  /// Appends one event. Throws TraceError when `at` precedes the previous
  /// event's (or, for the first event, the header's start_time).
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
  /// Appends the open carrier run's record to `payload` (nothing if no
  /// run is open).
  void put_run(std::vector<std::uint8_t>& payload) const;
  void close_run();
  void flush_block();

  TraceHeader header_;
  std::vector<std::uint8_t> buffer_;  // header block + completed event blocks
  std::vector<std::uint8_t> block_;   // payload of the accumulating block
  std::uint32_t block_events_ = 0;
  std::uint64_t events_ = 0;
  SimTime last_at_;                   // `at` of the previous event
  // The open carrier run: its edges' varint deltas, count, first state,
  // and the state that continues it.
  std::vector<std::uint8_t> run_;
  std::uint32_t run_edges_ = 0;
  bool run_first_busy_ = false;
  bool run_next_busy_ = false;
};

/// Parses a serialized trace held in memory: validates magic, version,
/// framing, every CRC, varint and count, and time order up front, and
/// keeps the events in a compact decoded form — frames, outages and
/// markers as ObservationEvents, carrier edges as absolute times grouped
/// into alternating runs.
class MemoryTraceReader {
 public:
  /// Decodes `bytes` (not retained). Throws TraceError on truncation,
  /// corruption, or version mismatch.
  explicit MemoryTraceReader(std::span<const std::uint8_t> bytes);

  const TraceHeader& header() const { return header_; }
  /// Single events, carrier edges included.
  std::size_t event_count() const { return events_.size() + edge_at_.size(); }
  std::size_t edge_count() const { return edge_at_.size(); }
  std::size_t edge_run_count() const { return runs_.size(); }
  /// Payload bytes the carrier-run records take.
  std::size_t edge_run_bytes() const { return edge_run_bytes_; }
  /// `at` of the last event (the header's start_time for an empty trace).
  SimTime end_time() const { return end_time_; }

  /// Walks the trace in recorded order: `on_event(const ObservationEvent&)`
  /// for each frame, outage and marker, and `on_run(std::span<const
  /// SimTime> at, bool busy)` for each run of carrier edges, whose states
  /// alternate starting from `busy`.
  template <class EventFn, class RunFn>
  void for_each(EventFn&& on_event, RunFn&& on_run) const {
    std::size_t e = 0;
    std::size_t k = 0;
    for (const EdgeRun& run : runs_) {
      for (; e < run.events_before; ++e) on_event(events_[e]);
      on_run(std::span<const SimTime>(edge_at_.data() + k, run.end - k), run.busy);
      k = run.end;
    }
    for (; e < events_.size(); ++e) on_event(events_[e]);
  }

  /// Every event in recorded order, carrier edges re-expanded into
  /// ObservationEvents (yielded by value) — for censuses and tests.
  class EventView {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = ObservationEvent;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = ObservationEvent;

      iterator() = default;
      ObservationEvent operator*() const;
      iterator& operator++();
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& other) const {
        return event_ == other.event_ && edge_ == other.edge_;
      }

     private:
      friend class EventView;
      iterator(const MemoryTraceReader* reader, std::size_t run, std::size_t event,
               std::size_t edge)
          : reader_(reader), run_(run), event_(event), edge_(edge) {}
      bool at_edge() const;

      const MemoryTraceReader* reader_ = nullptr;
      std::size_t run_ = 0;    // the first run not yet fully walked
      std::size_t event_ = 0;  // next index into events_
      std::size_t edge_ = 0;   // next index into edge_at_
    };

    iterator begin() const { return iterator(reader_, 0, 0, 0); }
    iterator end() const {
      return iterator(reader_, reader_->runs_.size(), reader_->events_.size(),
                      reader_->edge_at_.size());
    }

   private:
    friend class MemoryTraceReader;
    explicit EventView(const MemoryTraceReader* reader) : reader_(reader) {}
    const MemoryTraceReader* reader_;
  };
  EventView events() const { return EventView(this); }

 private:
  /// A run of alternating carrier edges: edge_at_[previous run's end, end).
  struct EdgeRun {
    std::size_t events_before;  // events_ recorded before the run
    std::size_t end;
    bool busy;                  // state of the run's first edge
  };

  void decode_block(const std::uint8_t* payload, std::size_t len,
                    std::uint32_t count);

  TraceHeader header_;
  std::vector<ObservationEvent> events_;  // frames, outages and markers
  std::vector<SimTime> edge_at_;          // carrier edges, in order
  std::vector<EdgeRun> runs_;
  std::size_t edge_run_bytes_ = 0;
  SimTime end_time_ = 0;
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
