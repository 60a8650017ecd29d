// Equivalence oracle for net/traffic.hpp: the CBR and Poisson sources in
// their plain form, one simulator event per arrival whatever the sink
// does with it. The library's sources park on a full queue instead; every
// result must match these (traffic_oracle_test.cpp).
#pragma once

#include <cstdint>

#include "net/traffic.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace manet::oracle {

namespace detail {
inline std::uint64_t payload_id(NodeId src, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(src) << 40) | counter;
}
}  // namespace detail

class EagerCbrSource : public net::TrafficSource {
 public:
  EagerCbrSource(sim::Simulator& simulator, NodeId self, net::PacketSink& sink,
                 NodeId dest, double packets_per_second,
                 std::uint32_t payload_bytes, std::uint64_t seed)
      : sim_(simulator), self_(self), sink_(sink), dest_(dest),
        rate_(packets_per_second), payload_bytes_(payload_bytes), rng_(seed) {}

  void start(SimTime start, SimTime stop) override {
    stop_ = stop;
    const SimDuration period = seconds_to_time(1.0 / rate_);
    const SimTime first = start + static_cast<SimDuration>(
                                      rng_.uniform() * static_cast<double>(period));
    sim_.at(first, [this] { emit(); });
  }
  NodeId source() const override { return self_; }
  NodeId destination() const override { return dest_; }
  std::uint64_t generated() const override { return generated_; }
  void set_rate(double pps) override { rate_ = pps; }
  double rate() const override { return rate_; }
  void set_destination(NodeId dest) override { dest_ = dest; }

 private:
  void emit() {
    if (sim_.now() >= stop_) return;
    sink_.submit(dest_, payload_bytes_, detail::payload_id(self_, ++generated_));
    sim_.after(seconds_to_time(1.0 / rate_), [this] { emit(); });
  }

  sim::Simulator& sim_;
  NodeId self_;
  net::PacketSink& sink_;
  NodeId dest_;
  double rate_;
  std::uint32_t payload_bytes_;
  util::Xoshiro256ss rng_;
  SimTime stop_ = 0;
  std::uint64_t generated_ = 0;
};

class EagerPoissonSource : public net::TrafficSource {
 public:
  EagerPoissonSource(sim::Simulator& simulator, NodeId self, net::PacketSink& sink,
                     NodeId dest, double packets_per_second,
                     std::uint32_t payload_bytes, std::uint64_t seed)
      : sim_(simulator), self_(self), sink_(sink), dest_(dest),
        rate_(packets_per_second), payload_bytes_(payload_bytes), rng_(seed) {}

  void start(SimTime start, SimTime stop) override {
    stop_ = stop;
    sim_.at(start, [this] { schedule_next(); });
  }
  NodeId source() const override { return self_; }
  NodeId destination() const override { return dest_; }
  std::uint64_t generated() const override { return generated_; }
  void set_rate(double pps) override { rate_ = pps; }
  double rate() const override { return rate_; }
  void set_destination(NodeId dest) override { dest_ = dest; }

 private:
  void schedule_next() {
    if (sim_.now() >= stop_) return;
    sim_.after(seconds_to_time(rng_.exponential(rate_)), [this] { emit(); });
  }
  void emit() {
    if (sim_.now() >= stop_) return;
    sink_.submit(dest_, payload_bytes_, detail::payload_id(self_, ++generated_));
    schedule_next();
  }

  sim::Simulator& sim_;
  NodeId self_;
  net::PacketSink& sink_;
  NodeId dest_;
  double rate_;
  std::uint32_t payload_bytes_;
  util::Xoshiro256ss rng_;
  SimTime stop_ = 0;
  std::uint64_t generated_ = 0;
};

}  // namespace manet::oracle
