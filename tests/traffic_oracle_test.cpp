// Parked traffic sources against the eager oracle (eager_traffic.hpp).
//
// The library's sources stop scheduling one event per arrival while their
// MAC queue is full. Everything observable must stay identical to the
// one-event-per-arrival sources: generated(), every MacStats field, channel
// transmissions, the order frames leave each queue, and a monitor's .mtrace
// bytes — at the end of a run and at reads taken mid-run.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "detect/trace.hpp"
#include "eager_traffic.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "util/rng.hpp"

namespace manet {
namespace {

struct Flow {
  NodeId src;
  NodeId dst;
};

struct Spec {
  net::TrafficKind kind = net::TrafficKind::kPoisson;
  double rate = 3000.0;
  std::vector<Flow> flows{{5, 6}, {10, 9}, {0, 4}, {15, 14}};
  std::uint64_t seed = 1;
  SimTime traffic_stop = seconds_to_time(2.0);
  SimTime end = seconds_to_time(2.5);
  // Mid-run changes (disabled when negative).
  SimTime rate_change_at = -1;
  double new_rate = 0.0;
  SimTime redirect_at = -1;
  NodeId redirect_to = kInvalidNode;  // new destination of flow 0
  // Reads from inside scheduled events, and bare Simulator::run_until
  // checkpoints with a read after each.
  std::vector<SimTime> event_reads;
  std::vector<SimTime> bare_stops;
};

/// What one run exposes; equal for the eager and the parked sources.
struct Outcome {
  std::vector<std::vector<std::uint64_t>> reads;  // generated() per read
  std::vector<std::vector<mac::MacStats>> mac_reads;
  std::vector<std::uint64_t> sent;                // payload ids, in ACK order
  std::uint64_t transmissions = 0;
  std::vector<std::uint8_t> trace;
  std::uint64_t events = 0;
};

/// Logs every ACKed payload (the order frames left the queues).
class SentLog : public mac::MacListener {
 public:
  explicit SentLog(std::vector<std::uint64_t>& out) : out_(out) {}
  void on_delivered(const mac::Frame&, SimTime) override {}
  void on_sent(const mac::Frame& data, SimTime) override {
    out_.push_back(data.payload_id);
  }
  void on_dropped(const mac::Frame&, mac::DropReason) override {}

 private:
  std::vector<std::uint64_t>& out_;
};

net::ScenarioConfig grid_4x4(std::uint64_t seed, net::TrafficKind kind) {
  net::ScenarioConfig cfg;
  cfg.grid_rows = 4;
  cfg.grid_cols = 4;
  cfg.seed = seed;
  cfg.traffic = kind;
  return cfg;
}

template <bool kEager>
std::unique_ptr<net::TrafficSource> make_source(net::Network& net,
                                                net::TrafficKind kind, Flow f,
                                                double rate, std::uint64_t seed) {
  sim::Simulator& sim = net.simulator();
  net::PacketSink& sink = net.sink(f.src);
  const std::uint32_t bytes = net.config().payload_bytes;
  if (kind == net::TrafficKind::kCbr) {
    if constexpr (kEager) {
      return std::make_unique<oracle::EagerCbrSource>(sim, f.src, sink, f.dst, rate,
                                                      bytes, seed);
    } else {
      return std::make_unique<net::CbrSource>(sim, f.src, sink, f.dst, rate, bytes,
                                              seed);
    }
  }
  if constexpr (kEager) {
    return std::make_unique<oracle::EagerPoissonSource>(sim, f.src, sink, f.dst,
                                                        rate, bytes, seed);
  } else {
    return std::make_unique<net::PoissonSource>(sim, f.src, sink, f.dst, rate,
                                                bytes, seed);
  }
}

template <bool kEager>
Outcome run(const Spec& spec) {
  net::Network net(grid_4x4(spec.seed, spec.kind));
  sim::Simulator& sim = net.simulator();
  Outcome out;

  std::vector<std::unique_ptr<SentLog>> logs;
  for (NodeId i = 0; i < net.size(); ++i) {
    logs.push_back(std::make_unique<SentLog>(out.sent));
    net.mac(i).set_listener(logs.back().get());
  }
  detect::TraceHeader header;
  header.node = spec.flows.front().dst;
  header.params = net.config().mac;
  detect::TraceWriter writer(header);
  net.mac(header.node).add_observer(&writer);
  net.radio(header.node).add_listener(&writer);

  std::vector<std::unique_ptr<net::TrafficSource>> sources;
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    sources.push_back(make_source<kEager>(net, spec.kind, spec.flows[i], spec.rate,
                                          util::mix64(spec.seed * 131 + i)));
    sources.back()->start(seconds_to_time(0.01 * static_cast<double>(i)),
                          spec.traffic_stop);
  }

  // Either counter settles parked sources, so alternate which is read first.
  const auto read = [&] {
    const auto read_generated = [&] {
      std::vector<std::uint64_t> generated;
      for (const auto& s : sources) generated.push_back(s->generated());
      out.reads.push_back(std::move(generated));
    };
    const bool generated_first = out.reads.size() % 2 == 0;
    if (generated_first) read_generated();
    std::vector<mac::MacStats> stats;
    for (NodeId i = 0; i < net.size(); ++i) stats.push_back(net.mac(i).stats());
    out.mac_reads.push_back(std::move(stats));
    if (!generated_first) read_generated();
  };
  for (const SimTime t : spec.event_reads) sim.at(t, read);
  if (spec.rate_change_at >= 0) {
    sim.at(spec.rate_change_at, [&] {
      for (auto& s : sources) s->set_rate(spec.new_rate);
    });
  }
  if (spec.redirect_at >= 0) {
    sim.at(spec.redirect_at, [&] { sources.front()->set_destination(spec.redirect_to); });
  }

  for (const SimTime t : spec.bare_stops) {
    sim.run_until(t);
    read();
  }
  sim.run_until(spec.end);
  read();
  out.transmissions = net.channel().transmissions();
  out.trace = writer.serialize();
  out.events = sim.dispatched_events();
  return out;
}

void expect_equivalent(const Spec& spec) {
  const Outcome eager = run<true>(spec);
  const Outcome parked = run<false>(spec);
  EXPECT_EQ(parked.reads, eager.reads);
  EXPECT_TRUE(parked.mac_reads == eager.mac_reads);
  EXPECT_EQ(parked.sent, eager.sent);
  EXPECT_EQ(parked.transmissions, eager.transmissions);
  EXPECT_TRUE(parked.trace == eager.trace) << "trace bytes differ";
  EXPECT_LE(parked.events, eager.events);
  // The runs are not vacuous: traffic flowed and a frame was recorded.
  EXPECT_GT(eager.reads.back().front(), 0u);
  EXPECT_GT(eager.trace.size(), 100u);
}

std::uint64_t total_queue_drops(const std::vector<mac::MacStats>& stats) {
  std::uint64_t n = 0;
  for (const auto& s : stats) n += s.queue_drops;
  return n;
}

class Oracle : public ::testing::TestWithParam<net::TrafficKind> {};

TEST_P(Oracle, RatesBelowAtAndFarAboveSaturation) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const double rate : {20.0, 300.0, 3000.0}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " rate " << rate);
      Spec spec;
      spec.kind = GetParam();
      spec.seed = seed;
      spec.rate = rate;
      expect_equivalent(spec);
    }
  }
}

TEST_P(Oracle, FarAboveSaturationSkipsMostArrivalEvents) {
  Spec spec;
  spec.kind = GetParam();
  const Outcome eager = run<true>(spec);
  const Outcome parked = run<false>(spec);
  // Nearly every refused arrival is settled in place rather than dispatched.
  const std::uint64_t drops = total_queue_drops(eager.mac_reads.back());
  EXPECT_GT(drops, 10000u);
  EXPECT_GT(eager.events - parked.events, drops * 9 / 10);
}

TEST_P(Oracle, TwoFlowsFromOneNodeShareItsQueue) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Spec spec;
    spec.kind = GetParam();
    spec.seed = seed;
    spec.flows = {{5, 6}, {5, 9}, {10, 9}, {6, 2}};
    spec.rate = 2000.0;
    expect_equivalent(spec);
  }
}

TEST_P(Oracle, SetRateAndSetDestinationMidRun) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Spec spec;
    spec.kind = GetParam();
    spec.seed = seed;
    spec.rate_change_at = seconds_to_time(0.7);
    spec.new_rate = 150.0;                 // from far above to near saturation
    spec.redirect_at = seconds_to_time(1.1);
    spec.redirect_to = 1;                  // flow 0: 5 -> 1 (still one hop)
    expect_equivalent(spec);

    spec.rate = 100.0;                     // and from below to far above
    spec.new_rate = 4000.0;
    expect_equivalent(spec);
  }
}

TEST_P(Oracle, ReadsMidRunAndAfterBareRunUntil) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Spec spec;
    spec.kind = GetParam();
    spec.seed = seed;
    spec.event_reads = {seconds_to_time(0.3), seconds_to_time(0.3) + 1,
                        seconds_to_time(0.9), seconds_to_time(1.9)};
    spec.bare_stops = {seconds_to_time(0.5), seconds_to_time(0.5) + 7,
                       seconds_to_time(1.25), seconds_to_time(2.0)};
    expect_equivalent(spec);
  }
}

TEST_P(Oracle, StopInsideAParkedStretch) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Spec spec;
    spec.kind = GetParam();
    spec.seed = seed;
    spec.traffic_stop = seconds_to_time(1.23456789);  // queues full, sources parked
    spec.end = seconds_to_time(1.8);                  // long enough to drain
    spec.bare_stops = {seconds_to_time(1.2), seconds_to_time(1.3)};
    expect_equivalent(spec);
  }
}

INSTANTIATE_TEST_SUITE_P(Sources, Oracle,
                         ::testing::Values(net::TrafficKind::kPoisson,
                                           net::TrafficKind::kCbr),
                         [](const auto& info) {
                           return info.param == net::TrafficKind::kCbr ? "Cbr"
                                                                       : "Poisson";
                         });

// --- forced same-nanosecond ties --------------------------------------------

/// Records the dispatch-order key of every event that ACKs a frame at one
/// node: the event that frees a queue slot.
class PopLog : public mac::MacListener {
 public:
  PopLog(sim::Simulator& sim, std::vector<std::uint64_t>& sent)
      : sim_(sim), sent_(sent) {}
  void on_delivered(const mac::Frame&, SimTime) override {}
  void on_sent(const mac::Frame& data, SimTime) override {
    pops.push_back({sim_.progress().time, sim_.progress().scheduled_at});
    sent_.push_back(data.payload_id);
  }
  void on_dropped(const mac::Frame&, mac::DropReason) override {}

  std::vector<std::pair<SimTime, SimTime>> pops;  // (time, scheduled_at)

 private:
  sim::Simulator& sim_;
  std::vector<std::uint64_t>& sent_;
};

struct TieRun {
  std::vector<std::pair<SimTime, SimTime>> pops;
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> generated;
  mac::MacStats stats;
};

constexpr NodeId kTieNode = 5;
constexpr NodeId kTieDest = 6;
constexpr std::uint64_t kSaturatingSeed = 77;
constexpr std::uint64_t kAlignedSeed = 78;

/// Node 5 saturated by a Poisson source; optionally a CBR source on the same
/// node with period `period` whose arrival number `k` lands at `at`.
template <bool kEager>
TieRun run_tie(SimDuration period, int k, SimTime at) {
  net::Network net(grid_4x4(3, net::TrafficKind::kPoisson));
  TieRun out;
  PopLog log(net.simulator(), out.sent);
  net.mac(kTieNode).set_listener(&log);
  const SimTime stop = seconds_to_time(0.8);
  std::vector<std::unique_ptr<net::TrafficSource>> sources;
  sources.push_back(make_source<kEager>(net, net::TrafficKind::kPoisson,
                                        {kTieNode, kTieDest}, 5000.0, kSaturatingSeed));
  sources.back()->start(0, stop);
  if (period > 0) {
    const double rate = 1e9 / static_cast<double>(period);
    EXPECT_EQ(seconds_to_time(1.0 / rate), period);
    // Undo the start jitter so the k-th arrival (from 0) lands on `at`.
    util::Xoshiro256ss jitter_rng(kAlignedSeed);
    const auto jitter = static_cast<SimDuration>(jitter_rng.uniform() *
                                                 static_cast<double>(period));
    sources.push_back(make_source<kEager>(net, net::TrafficKind::kCbr,
                                          {kTieNode, kTieDest}, rate, kAlignedSeed));
    sources.back()->start(at - k * period - jitter, stop);
  }
  net.run_until(seconds_to_time(1.0));
  out.pops = log.pops;
  for (const auto& s : sources) out.generated.push_back(s->generated());
  out.stats = net.mac(kTieNode).stats();
  return out;
}

TEST(OracleTie, ArrivalAtTheInstantAQueueSlotFrees) {
  // The saturated node's frame departures do not depend on which source
  // fills a freed slot, so the oracle run without the aligned source tells
  // where they fall.
  const TieRun base = run_tie<true>(0, 0, 0);
  ASSERT_GT(base.pops.size(), 100u);
  const auto [at, scheduled_at] = base.pops[base.pops.size() / 2];
  const SimDuration lead = at - scheduled_at;  // how far ahead the pop was scheduled
  ASSERT_GT(lead, 2000);
  constexpr int k = 40;
  // A period one microsecond longer than `lead` puts the aligned arrival's
  // scheduling instant before the pop's: it is refused. One microsecond
  // shorter puts it after: the arrival takes the freed slot.
  for (const bool arrival_first : {true, false}) {
    SCOPED_TRACE(arrival_first ? "arrival before the pop" : "arrival after the pop");
    const SimDuration period = arrival_first ? lead + 1000 : lead - 1000;
    const TieRun eager = run_tie<true>(period, k, at);
    const TieRun parked = run_tie<false>(period, k, at);
    ASSERT_EQ(eager.pops, base.pops);
    EXPECT_EQ(parked.pops, eager.pops);
    EXPECT_EQ(parked.sent, eager.sent);
    EXPECT_EQ(parked.generated, eager.generated);
    EXPECT_TRUE(parked.stats == eager.stats);
    // The aligned source's arrival k has payload counter k + 1, far below
    // the saturating source's counters by then; it is ACKed only if it took
    // the slot.
    const std::uint64_t aligned_id =
        (static_cast<std::uint64_t>(kTieNode) << 40) | static_cast<std::uint64_t>(k + 1);
    bool aligned_sent = false;
    for (std::size_t i = 0; i < eager.sent.size(); ++i) {
      if (eager.sent[i] == aligned_id && eager.pops[i].first > at) aligned_sent = true;
    }
    EXPECT_EQ(aligned_sent, !arrival_first);
  }
}

/// Logs every submission and whether it was accepted. Only for eager runs:
/// wrapping a sink turns parking off.
class SubmitLog : public net::PacketSink {
 public:
  SubmitLog(sim::Simulator& sim, net::PacketSink& inner) : sim_(sim), inner_(inner) {}
  bool submit(NodeId dest, std::uint32_t bytes, std::uint64_t payload_id) override {
    const bool accepted = inner_.submit(dest, bytes, payload_id);
    log.emplace_back(sim_.now(), accepted);
    return accepted;
  }

  std::vector<std::pair<SimTime, bool>> log;

 private:
  sim::Simulator& sim_;
  net::PacketSink& inner_;
};

net::ScenarioConfig one_slot_queue() {
  net::ScenarioConfig cfg = grid_4x4(5, net::TrafficKind::kCbr);
  cfg.mac.queue_capacity = 1;
  return cfg;
}

constexpr double kOneSlotRate = 1000.0 / 1.5;  // a little under two per service time

/// A read at the next arrival's instant, scheduled from an event that runs
/// at `at` just after the refused arrival there: (generated, queue drops)
/// at that read and at the end.
template <bool kEager>
std::vector<std::uint64_t> run_read_tie(SimTime at, SimTime next) {
  net::Network net(one_slot_queue());
  sim::Simulator& sim = net.simulator();
  auto source = make_source<kEager>(net, net::TrafficKind::kCbr, {kTieNode, kTieDest},
                                    kOneSlotRate, kAlignedSeed);
  source->start(0, seconds_to_time(0.5));
  std::vector<std::uint64_t> reads;
  const auto read = [&] {
    reads.push_back(source->generated());
    reads.push_back(net.mac(kTieNode).stats().queue_drops);
  };
  // Scheduled at an instant after the previous arrival, so it runs after
  // the arrival at `at`; the read it schedules then ties with the next
  // arrival in time and scheduling instant, and only the seq reserved when
  // the arrival at `at` parked orders the two.
  sim.at(at - 1, [&] { sim.at(at, [&] { sim.at(next, read); }); });
  net.run_until(seconds_to_time(0.6));
  read();
  return reads;
}

TEST(OracleTie, ReadTiedWithTheFirstDeferredArrival) {
  // A one-slot queue: after each accepted arrival the next is refused by a
  // dispatched arrival event, which parks the source.
  net::Network net(one_slot_queue());
  SubmitLog log(net.simulator(), net.sink(kTieNode));
  oracle::EagerCbrSource source(net.simulator(), kTieNode, log, kTieDest, kOneSlotRate,
                                net.config().payload_bytes, kAlignedSeed);
  source.start(0, seconds_to_time(0.5));
  net.run_until(seconds_to_time(0.6));
  std::size_t j = 1;
  while (j + 1 < log.log.size() &&
         !(log.log[j].first > seconds_to_time(0.1) && log.log[j - 1].second &&
           !log.log[j].second)) {
    ++j;
  }
  ASSERT_LT(j + 1, log.log.size());
  const SimTime at = log.log[j].first;
  const SimTime next = log.log[j + 1].first;

  const auto eager = run_read_tie<true>(at, next);
  const auto parked = run_read_tie<false>(at, next);
  EXPECT_EQ(parked, eager);
  EXPECT_EQ(eager.front(), j + 2);  // the read saw the arrival at `next`
}

}  // namespace
}  // namespace manet
