// IEEE 802.11 DCF with the paper's verifiable-back-off modification.
//
// Implements CSMA/CA with RTS/CTS/DATA/ACK, NAV (virtual carrier sense),
// optional EIFS after corrupted receptions, binary-exponential contention
// windows, retry limits, and a drop-tail interface queue.
//
// Back-off values are dictated by the node's verifiable PRS (seeded with
// its MAC address). Every RTS announces the consumed sequence offset, the
// attempt number, and the MD5 digest of the DATA frame, per the paper's
// modified RTS. The actually-used back-off and the announced fields go
// through pluggable policies so misbehaving nodes are just configuration.
//
// Back-off countdown uses O(1) events per busy/idle transition: instead of
// an event per slot, the finish time is scheduled and the counter is
// reconciled when the medium goes busy (bulk decrement). A countdown that
// reaches zero exactly when the medium turns busy transmits anyway — the
// standard's simultaneous-transmission collision.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mac/backoff.hpp"
#include "mac/frame.hpp"
#include "mac/params.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace manet::mac {

enum class DropReason : std::uint8_t { kQueueFull, kRetryLimit };

/// Upper-layer callbacks.
class MacListener {
 public:
  virtual ~MacListener() = default;
  virtual void on_delivered(const Frame& data, SimTime at) = 0;   // receiver
  virtual void on_sent(const Frame& data, SimTime at) = 0;        // sender, ACKed
  virtual void on_dropped(const Frame& data, DropReason reason) = 0;
};

/// Promiscuous observation hook — how monitors see the air. Observers get
/// every frame this node's radio decoded (including frames addressed to
/// other nodes) with its air start/end times.
class MacObserver {
 public:
  virtual ~MacObserver() = default;
  virtual void on_frame(const Frame& frame, SimTime start, SimTime end) = 0;
};

/// A sender parked on a full interface queue (net/traffic.hpp's sources).
/// While parked it keeps its refused arrivals to itself; the MAC asks it to
/// settle them whenever its counters are read and wakes it when a frame
/// leaves the queue.
class QueueSpaceListener {
 public:
  virtual ~QueueSpaceListener() = default;
  /// Accounts every refused arrival that dispatch has reached (adding them
  /// to the MAC through count_queue_drops).
  virtual void settle() = 0;
  /// A frame just left the queue. The listener was unregistered first.
  virtual void on_queue_space() = 0;
};

struct MacStats {
  std::uint64_t enqueued = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t rts_sent = 0;
  std::uint64_t cts_sent = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t ack_sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_drops = 0;
  std::uint64_t packets_acked = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t broadcasts_sent = 0;
  std::uint64_t broadcasts_received = 0;
  std::uint64_t duplicate_data = 0;
  std::uint64_t rx_errors = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t backoffs_started = 0;
  std::uint64_t backoff_slots_total = 0;

  friend bool operator==(const MacStats&, const MacStats&) = default;
};

class DcfMac : public phy::RadioListener {
 public:
  DcfMac(sim::Simulator& simulator, phy::Radio& radio, const DcfParams& params);

  NodeId id() const { return radio_.id(); }
  const DcfParams& params() const { return params_; }
  /// Exact at any point: parked senders settle their refusals first.
  const MacStats& stats() const {
    // Logically const: settling only brings in drops that have already
    // happened in simulated time (the listeners add them through their own
    // non-const handle on this MAC).
    for (QueueSpaceListener* l : queue_listeners_) l->settle();
    return stats_;
  }
  const VerifiableBackoff& prs() const { return prs_; }

  void set_listener(MacListener* listener) { listener_ = listener; }
  void add_observer(MacObserver* observer) { observers_.push_back(observer); }
  /// Unregisters `observer`; a no-op when it is not registered.
  void remove_observer(MacObserver* observer) { std::erase(observers_, observer); }

  /// Replaces the back-off behavior (default: honest). Takes ownership.
  void set_backoff_policy(std::unique_ptr<BackoffPolicy> policy);
  /// Replaces the RTS announcement behavior (default: honest).
  void set_announce_policy(std::unique_ptr<AnnouncePolicy> policy);

  /// Registers a fake MAC identity this station also answers to (sybil
  /// attackers, mac/attackers.hpp): frames addressed to an alias are
  /// treated as addressed to this node. The announce policy picks which
  /// identity each exchange claims (AnnouncedFields::claimed).
  void add_identity_alias(NodeId alias);
  /// True for this node's own address or any registered alias.
  bool owns_address(NodeId address) const {
    if (address == id()) return true;
    for (NodeId a : identity_aliases_) {
      if (a == address) return true;
    }
    return false;
  }

  /// Queues a payload for `dest` (kBroadcastNode sends an unacknowledged
  /// group-addressed frame without RTS/CTS). Returns false (and counts a
  /// queue drop) when the interface queue is full.
  bool enqueue(NodeId dest, std::uint32_t payload_bytes, std::uint64_t payload_id);

  /// Queues a fully formed DATA frame (network layers use this to carry
  /// multi-hop headers). The frame's transmitter is overwritten with this
  /// node's address; type must be kData.
  bool enqueue_frame(Frame data);

  /// Parks `listener` until a frame next leaves the interface queue (one
  /// shot). Returns false, registering nothing, when no frame can leave
  /// because the queue is not full (or has no capacity at all).
  bool wait_for_queue_space(QueueSpaceListener* listener);
  /// Unregisters a parked listener (no-op when it is not parked).
  void cancel_queue_wait(QueueSpaceListener* listener);
  /// Counts submissions a parked listener settled as refused at a full
  /// queue (MacStats::queue_drops).
  void count_queue_drops(std::uint64_t n) { stats_.queue_drops += n; }

  std::size_t queue_length() const { return queue_.size(); }
  bool busy_with_packet() const { return current_ != nullptr; }

  /// Next PRS index this node will consume (diagnostics / tests).
  std::uint64_t next_seq_index() const { return seq_index_; }

  // phy::RadioListener:
  void on_carrier(bool busy, SimTime at) override;
  void on_receive(const phy::Signal& signal) override;
  void on_receive_error(const phy::Signal& signal) override;
  void on_transmit_end(std::uint64_t signal_id) override;

 private:
  enum class SenderPhase : std::uint8_t {
    kIdle,        // no packet in service
    kContending,  // back-off pending or counting
    kTxRts,
    kWaitCts,
    kTxData,
    kWaitAck,
  };

  enum class OwnTxKind : std::uint8_t { kRts, kCts, kData, kAck };

  bool medium_idle() const;
  void start_service();                 // begin serving queue head
  void prepare_backoff();               // draw back-off for current attempt
  void reevaluate();                    // resume/freeze countdown
  void freeze_countdown();
  void backoff_complete();
  void transmit_frame(const Frame& frame, OwnTxKind kind);
  void transmit_payload(FramePtr frame, OwnTxKind kind);
  void schedule_response(const Frame& response, OwnTxKind kind);
  void handle_cts_timeout();
  void handle_ack_timeout();
  void handle_failure();                // shared retry/drop logic
  void finish_success();
  void schedule_wake(SimTime at);
  void update_nav(SimTime until, bool from_rts);
  /// payload_digest of `data` from its transmitter, cached across retries.
  const crypto::Md5Digest& rts_digest(const Frame& data);

  sim::Simulator& sim_;
  phy::Radio& radio_;
  DcfParams params_;
  MacStats stats_;

  MacListener* listener_ = nullptr;
  std::vector<MacObserver*> observers_;

  VerifiableBackoff prs_;
  std::unique_ptr<BackoffPolicy> backoff_policy_;
  std::unique_ptr<AnnouncePolicy> announce_policy_;
  std::vector<NodeId> identity_aliases_;  // empty for every honest node

  std::deque<Frame> queue_;
  std::vector<QueueSpaceListener*> queue_listeners_;  // parked, in park order
  std::unique_ptr<Frame> current_;
  std::uint32_t attempt_ = 1;
  std::uint64_t seq_index_ = 0;

  // The last RTS digest and the (transmitter, payload) it hashes.
  crypto::Md5Digest digest_{};
  NodeId digest_transmitter_ = kInvalidNode;
  std::uint64_t digest_payload_id_ = 0;
  std::uint32_t digest_payload_bytes_ = 0;
  bool digest_valid_ = false;

  SenderPhase phase_ = SenderPhase::kIdle;
  bool backoff_pending_ = false;   // a countdown remains to be completed
  bool counting_ = false;          // countdown in progress right now
  std::uint32_t remaining_slots_ = 0;
  SimTime count_start_ = 0;        // when the current idle countdown began
  sim::EventId finish_event_ = sim::kInvalidEvent;
  sim::EventId timeout_event_ = sim::kInvalidEvent;
  sim::EventId wake_event_ = sim::kInvalidEvent;
  SimTime wake_at_ = kTimeNever;

  SimTime nav_until_ = 0;
  SimTime eifs_until_ = 0;
  SimTime busy_recipient_until_ = 0;  // we owe CTS/DATA/ACK turns until then
  bool nav_basis_rts_ = false;     // NAV most recently set by an RTS
  std::uint64_t nav_epoch_ = 0;    // invalidates pending NAV-reset checks
  SimTime last_busy_rise_ = -1;    // most recent idle->busy edge

  // The half-duplex radio carries at most one own transmission at a time,
  // so a single inline slot tracks the in-flight signal's id and kind.
  std::uint64_t own_tx_id_ = 0;
  OwnTxKind own_tx_kind_ = OwnTxKind::kRts;
  bool own_tx_active_ = false;
  std::unordered_map<NodeId, std::uint64_t> delivered_from_;  // dedup cache
};

}  // namespace manet::mac
