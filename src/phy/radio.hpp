// Half-duplex radio transceiver.
//
// Tracks every audible in-flight signal, derives physical carrier sense
// (any audible energy, or own transmission), and decodes at most one frame
// at a time:
//   * an arriving signal with power >= rx threshold starts a reception if
//     the radio is idle (not transmitting, not locked onto another frame);
//   * a concurrent arrival within `capture_threshold_db` of the locked
//     frame corrupts it (collision); a weaker one is plain interference;
//   * receptions that overlap our own transmission are lost (half duplex).
// MAC-level listeners are notified of carrier transitions, completed
// receptions, and reception errors.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/signal.hpp"
#include "util/types.hpp"

namespace manet::phy {

class Channel;

/// Callbacks a MAC (or tracker) registers with its radio.
class RadioListener {
 public:
  virtual ~RadioListener() = default;
  /// Physical carrier sense changed. Called only on edges.
  virtual void on_carrier(bool busy, SimTime at) = 0;
  /// A frame addressed through the air arrived intact.
  virtual void on_receive(const Signal& signal) = 0;
  /// A frame we had locked onto was corrupted (collision / own tx overlap).
  virtual void on_receive_error(const Signal& signal) = 0;
  /// Our own transmission finished.
  virtual void on_transmit_end(std::uint64_t signal_id) = 0;
  /// The radio entered (true) or left (false) a scheduled outage. Default
  /// no-op: most listeners only care about carrier edges, which fire too.
  virtual void on_outage(bool /*deaf*/, SimTime /*at*/) {}
};

class Radio {
 public:
  Radio(NodeId id, Channel& channel);

  NodeId id() const { return id_; }

  /// Adds a listener (MAC first, then any trackers). Not removable; the
  /// topology of a scenario is fixed at build time.
  void add_listener(RadioListener* listener) { listeners_.push_back(listener); }

  /// Begins transmitting. Precondition: not already transmitting.
  /// Returns the signal id.
  std::uint64_t transmit(PayloadPtr payload, SimDuration airtime);

  bool transmitting() const { return transmitting_; }

  /// Physical carrier sense: audible energy or own transmission.
  bool carrier_busy() const { return transmitting_ || !incident_.empty(); }

  /// Fault-injected receiver outage. While deaf the radio drops all
  /// incident energy (any in-progress reception is silently lost) and
  /// ignores new signals; transmission still works. Listeners see the
  /// carrier edge plus an on_outage notification.
  void set_outage(bool deaf);
  bool in_outage() const { return outage_; }

  // --- Channel-facing interface ---
  /// Attach-order index assigned by Channel::attach; lets the channel map
  /// a transmitting radio to its grid/cache row without a hash lookup.
  void set_channel_index(std::uint32_t index) { channel_index_ = index; }
  std::uint32_t channel_index() const { return channel_index_; }
  /// Starts receiving `signal` (read during the call only: the radio keeps
  /// its id and power, and copies the whole signal only when it locks onto
  /// the frame).
  void signal_start(const Signal& signal, double rx_threshold_dbm,
                    double capture_threshold_db);
  /// Ends the previously-started signal `id`. A locked frame is handed to
  /// the listeners from the radio's own copy (the channel does not retain
  /// per-receiver signals until end-of-air). A no-op when the signal is no
  /// longer tracked (an outage wiped it), matching the outage semantics:
  /// a deaf radio saw the energy vanish already.
  void signal_end(std::uint64_t signal_id);
  void own_transmit_end(std::uint64_t signal_id);

 private:
  void notify_carrier_if_changed();

  NodeId id_;
  Channel& channel_;
  std::uint32_t channel_index_ = 0;
  std::vector<RadioListener*> listeners_;

  /// What the radio keeps of an audible in-flight signal.
  struct Incident {
    std::uint64_t id = 0;
    double rx_power_dbm = 0.0;
  };

  // Audible signals, unordered (every use is an any-of or a lookup by id).
  // A flat vector: concurrent in-flight signals at one receiver are few
  // (bounded by simultaneous transmitters in CS range), so linear scans
  // beat a hash map and per-delivery rehashing.
  std::vector<Incident> incident_;
  bool transmitting_ = false;
  bool last_carrier_ = false;
  bool outage_ = false;

  // Reception lock state: the locked frame's full signal.
  bool receiving_ = false;
  Signal rx_signal_;
  bool rx_corrupted_ = false;
};

}  // namespace manet::phy
