#include "net/traffic.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace manet::net {

namespace {
/// Payload ids are globally unique and traceable to the source.
std::uint64_t make_payload_id(NodeId src, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(src) << 40) | counter;
}

/// The seq of a deferred arrival whose eager seq is not known: it orders
/// after any event sharing its time and scheduling instant.
constexpr std::uint64_t kUnknownSeq = std::numeric_limits<std::uint64_t>::max();

double checked_rate(double packets_per_second) {
  if (!std::isfinite(packets_per_second) || packets_per_second <= 0.0) {
    throw std::invalid_argument("traffic rate must be finite and positive");
  }
  return packets_per_second;
}
}  // namespace

ArrivalSource::ArrivalSource(sim::Simulator& simulator, NodeId self,
                             PacketSink& sink, NodeId dest,
                             double packets_per_second,
                             std::uint32_t payload_bytes, std::uint64_t seed)
    : sim_(simulator),
      rng_(seed),
      rate_(checked_rate(packets_per_second)),
      self_(self),
      sink_(sink),
      dest_(dest),
      payload_bytes_(payload_bytes) {}

ArrivalSource::~ArrivalSource() {
  if (parked_on_ != nullptr) parked_on_->cancel_queue_wait(this);
}

std::uint64_t ArrivalSource::generated() const {
  // Logically const: settling counts arrivals that have already happened.
  if (parked_on_ != nullptr) const_cast<ArrivalSource*>(this)->settle();
  return generated_;
}

void ArrivalSource::set_rate(double packets_per_second) {
  checked_rate(packets_per_second);
  settle();  // arrivals already past were drawn at the old rate
  rate_ = packets_per_second;
}

void ArrivalSource::set_destination(NodeId dest) {
  settle();
  dest_ = dest;
}

void ArrivalSource::schedule_arrival(SimTime t) {
  sim_.at(t, [this] { arrive(); });
}

void ArrivalSource::arrive() {
  if (sim_.now() >= stop_) return;
  const bool accepted =
      sink_.submit(dest_, payload_bytes_, make_payload_id(self_, ++generated_));
  const SimTime next = sim_.now() + next_gap();
  if (!accepted) {
    mac::DcfMac* mac = sink_.parking_mac();
    if (mac != nullptr && mac->wait_for_queue_space(this)) {
      // The seq reserved here is the one schedule_arrival would take now.
      parked_on_ = mac;
      next_ = sim::EventKey{next, sim_.now(), sim_.reserve_seq()};
      return;
    }
  }
  schedule_arrival(next);
}

void ArrivalSource::settle() {
  if (parked_on_ == nullptr) return;
  const sim::EventKey& reached = sim_.progress();
  std::uint64_t refused = 0;
  while (next_.time < stop_ && next_ < reached) {
    ++generated_;  // consumes the payload id, as a refused submit would
    ++refused;
    next_ = sim::EventKey{next_.time + next_gap(), next_.time, kUnknownSeq};
  }
  parked_on_->count_queue_drops(refused);
}

void ArrivalSource::on_queue_space() {
  settle();
  parked_on_ = nullptr;
  if (next_.time >= stop_) return;  // the process ended while parked
  sim::EventKey key = next_;
  if (key.seq == kUnknownSeq) key.seq = sim_.reserve_seq();
  sim_.at_key(key, [this] { arrive(); });
}

CbrSource::CbrSource(sim::Simulator& simulator, NodeId self, PacketSink& sink,
                     NodeId dest, double packets_per_second,
                     std::uint32_t payload_bytes, std::uint64_t seed)
    : ArrivalSource(simulator, self, sink, dest, packets_per_second,
                    payload_bytes, seed) {}

void CbrSource::start(SimTime start, SimTime stop) {
  stop_ = stop;
  // Jitter the first packet uniformly over one period so CBR sources do not
  // phase-lock across the network.
  const SimDuration period = next_gap();
  schedule_arrival(start + static_cast<SimDuration>(
                               rng_.uniform() * static_cast<double>(period)));
}

SimDuration CbrSource::next_gap() { return seconds_to_time(1.0 / rate_); }

PoissonSource::PoissonSource(sim::Simulator& simulator, NodeId self,
                             PacketSink& sink, NodeId dest,
                             double packets_per_second,
                             std::uint32_t payload_bytes, std::uint64_t seed)
    : ArrivalSource(simulator, self, sink, dest, packets_per_second,
                    payload_bytes, seed) {}

void PoissonSource::start(SimTime start, SimTime stop) {
  stop_ = stop;
  sim_.at(start, [this] {
    if (sim_.now() < stop_) schedule_arrival(sim_.now() + next_gap());
  });
}

SimDuration PoissonSource::next_gap() {
  return seconds_to_time(rng_.exponential(rate_));
}

}  // namespace manet::net
