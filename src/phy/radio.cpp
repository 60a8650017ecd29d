#include "phy/radio.hpp"

#include <cassert>

#include "phy/channel.hpp"
#include "sim/simulator.hpp"

namespace manet::phy {

Radio::Radio(NodeId id, Channel& channel) : id_(id), channel_(channel) {
  incident_.reserve(8);
  channel.attach(this);
}

std::uint64_t Radio::transmit(PayloadPtr payload, SimDuration airtime) {
  assert(!transmitting_ && "half-duplex radio asked to transmit twice");
  transmitting_ = true;
  // Transmitting while locked onto a frame corrupts that reception.
  if (receiving_) rx_corrupted_ = true;
  notify_carrier_if_changed();
  return channel_.transmit(this, std::move(payload), airtime);
}

void Radio::set_outage(bool deaf) {
  if (deaf == outage_) return;
  outage_ = deaf;
  if (deaf) {
    // All audible energy vanishes; a locked frame is lost without a trace
    // (a deaf radio cannot even tell a reception was in progress).
    incident_.clear();
    receiving_ = false;
    rx_corrupted_ = false;
  }
  const SimTime at = channel_.simulator().now();
  for (auto* l : listeners_) l->on_outage(deaf, at);
  notify_carrier_if_changed();
}

void Radio::signal_start(const Signal& signal, double rx_threshold_dbm,
                         double capture_threshold_db) {
  if (outage_) return;  // deaf: not even energy
  incident_.push_back(Incident{signal.id, signal.rx_power_dbm});

  if (transmitting_) {
    // Half duplex: we cannot decode anything while transmitting; the energy
    // still counts toward carrier sense (trivially busy already).
    notify_carrier_if_changed();
    return;
  }

  if (receiving_) {
    // Concurrent arrival: corrupts the locked frame unless it is far weaker.
    if (signal.rx_power_dbm > rx_signal_.rx_power_dbm - capture_threshold_db) {
      rx_corrupted_ = true;
    }
  } else if (signal.rx_power_dbm >= rx_threshold_dbm) {
    // Lock onto this frame if no comparable interference is already present.
    bool blocked = false;
    for (const Incident& s : incident_) {
      if (s.id == signal.id) continue;
      if (s.rx_power_dbm > signal.rx_power_dbm - capture_threshold_db) {
        blocked = true;
        break;
      }
    }
    receiving_ = true;
    rx_signal_ = signal;
    rx_corrupted_ = blocked || signal.corrupted;
  }
  notify_carrier_if_changed();
}

void Radio::signal_end(std::uint64_t signal_id) {
  auto it = incident_.begin();
  for (; it != incident_.end(); ++it) {
    if (it->id == signal_id) break;
  }
  if (it == incident_.end()) return;  // outage wiped it; nothing to finish
  *it = incident_.back();
  incident_.pop_back();

  if (receiving_ && signal_id == rx_signal_.id) {
    receiving_ = false;
    const bool ok = !rx_corrupted_ && !transmitting_;
    rx_corrupted_ = false;
    // Hand out a local: a listener may transmit from the callback, and
    // nothing it sets off may disturb the frame being reported.
    const Signal signal = std::move(rx_signal_);
    if (ok) {
      for (auto* l : listeners_) l->on_receive(signal);
    } else {
      for (auto* l : listeners_) l->on_receive_error(signal);
    }
  }
  notify_carrier_if_changed();
}

void Radio::own_transmit_end(std::uint64_t signal_id) {
  assert(transmitting_);
  transmitting_ = false;
  for (auto* l : listeners_) l->on_transmit_end(signal_id);
  notify_carrier_if_changed();
}

void Radio::notify_carrier_if_changed() {
  const bool busy = carrier_busy();
  if (busy == last_carrier_) return;
  last_carrier_ = busy;
  const SimTime at = channel_.simulator().now();
  for (auto* l : listeners_) l->on_carrier(busy, at);
}

}  // namespace manet::phy
