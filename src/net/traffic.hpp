// Traffic generators: the paper's CBR and Poisson sources.
//
// A source enqueues fixed-size payloads into its node's MAC for a fixed
// destination (the paper's workload sends each flow to a one-hop neighbor).
// Sources schedule themselves on the simulator; no background threads.
//
// Parking. Past saturation nearly every arrival meets a full drop-tail
// queue, and a refused one changes nothing but two counters. A source
// whose arrival was refused by a sink that offers parking (parking_mac())
// therefore stops scheduling one event per arrival: it remembers its next
// arrival's dispatch-order key and waits on the MAC. Its arrivals still
// happen, in the same order and with the same random draws; they are
// settled (generated() and MacStats::queue_drops) whenever either counter
// is read, and when a frame leaves the queue the source settles every
// arrival dispatch order puts before that instant and schedules its next
// arrival as a real event again. DESIGN.md §4l gives the ordering argument.
#pragma once

#include <cstdint>
#include <memory>

#include "mac/dcf.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace manet::net {

/// Where traffic sources hand their packets: either a MAC directly (the
/// paper's one-hop flows) or a routing layer (multi-hop AODV).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// Returns false when the packet was refused (queue full).
  virtual bool submit(NodeId dest, std::uint32_t payload_bytes,
                      std::uint64_t payload_id) = 0;

  /// The MAC a refused source may park on (see the file comment), or null.
  /// Only a sink whose refusal has no effect beyond MacStats::queue_drops
  /// may return one; sinks that record or forward per submission keep
  /// their sources dispatching every arrival.
  virtual mac::DcfMac* parking_mac() { return nullptr; }
};

/// Adapts a DCF MAC into a PacketSink (single-hop delivery).
class DirectMacSink : public PacketSink {
 public:
  explicit DirectMacSink(mac::DcfMac& mac) : mac_(mac) {}
  bool submit(NodeId dest, std::uint32_t payload_bytes,
              std::uint64_t payload_id) override {
    return mac_.enqueue(dest, payload_bytes, payload_id);
  }
  mac::DcfMac* parking_mac() override { return &mac_; }

 private:
  mac::DcfMac& mac_;
};

class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Begins generating at `start` until `stop`.
  virtual void start(SimTime start, SimTime stop) = 0;

  virtual NodeId source() const = 0;
  virtual NodeId destination() const = 0;
  virtual std::uint64_t generated() const = 0;

  /// Changes the average packet rate (packets/s) for subsequent arrivals —
  /// used by the load calibrator.
  virtual void set_rate(double packets_per_second) = 0;
  virtual double rate() const = 0;

  /// Redirects future packets to a new destination (mobile scenarios hand
  /// the flow to whichever neighbor currently monitors the sender).
  virtual void set_destination(NodeId dest) = 0;
};

/// The arrival process shared by the CBR and Poisson sources: one event
/// per arrival, or parked on a full queue (see the file comment).
class ArrivalSource : public TrafficSource, private mac::QueueSpaceListener {
 public:
  // The simulator and a parked-on MAC hold this source's address.
  ArrivalSource(const ArrivalSource&) = delete;
  ArrivalSource& operator=(const ArrivalSource&) = delete;
  ~ArrivalSource() override;

  NodeId source() const override { return self_; }
  NodeId destination() const override { return dest_; }
  std::uint64_t generated() const override;
  /// Throws std::invalid_argument unless the rate is finite and positive.
  void set_rate(double packets_per_second) override;
  double rate() const override { return rate_; }
  void set_destination(NodeId dest) override;

 protected:
  ArrivalSource(sim::Simulator& simulator, NodeId self, PacketSink& sink,
                NodeId dest, double packets_per_second,
                std::uint32_t payload_bytes, std::uint64_t seed);

  /// Time from one arrival to the next at the current rate.
  virtual SimDuration next_gap() = 0;

  /// Schedules an arrival at `t` (arrivals at or after stop_ generate
  /// nothing and end the process).
  void schedule_arrival(SimTime t);

  sim::Simulator& sim_;
  util::Xoshiro256ss rng_;
  double rate_;
  SimTime stop_ = 0;

 private:
  void arrive();
  // mac::QueueSpaceListener:
  void settle() override;
  void on_queue_space() override;

  NodeId self_;
  PacketSink& sink_;
  NodeId dest_;
  std::uint32_t payload_bytes_;
  std::uint64_t generated_ = 0;
  // While parked: the MAC waited on, and the next arrival's key. Its seq is
  // exact for the first arrival after a dispatched one (reserved when it
  // parked) and kUnknownSeq for later ones, which DESIGN.md §4l covers.
  mac::DcfMac* parked_on_ = nullptr;
  sim::EventKey next_;
};

/// Constant-bit-rate source with a uniformly jittered start.
class CbrSource : public ArrivalSource {
 public:
  CbrSource(sim::Simulator& simulator, NodeId self, PacketSink& sink, NodeId dest,
            double packets_per_second, std::uint32_t payload_bytes,
            std::uint64_t seed);

  void start(SimTime start, SimTime stop) override;

 private:
  SimDuration next_gap() override;
};

/// Poisson source: exponential inter-arrival times.
class PoissonSource : public ArrivalSource {
 public:
  PoissonSource(sim::Simulator& simulator, NodeId self, PacketSink& sink, NodeId dest,
                double packets_per_second, std::uint32_t payload_bytes,
                std::uint64_t seed);

  void start(SimTime start, SimTime stop) override;

 private:
  SimDuration next_gap() override;
};

}  // namespace manet::net
