// The binary observation-trace format (src/detect/trace.*) and the
// replay path (src/detect/replay.*).
//
// Two layers of guarantees:
//  * Format: serialization round-trips bytes and events exactly, the
//    canonical form is deterministic (equal event streams -> equal
//    bytes), and truncation / corruption / foreign data are rejected at
//    parse time with TraceError.
//  * Fidelity: detection replayed from a recorded trace is byte-identical
//    to the live run that recorded it — same WindowResult sequences, same
//    MonitorStats — across static, mobile-handoff, lossy, and attacker
//    scenarios and across seeds. This is the PR's core acceptance
//    criterion: one detection implementation, two observation sources.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/replay.hpp"
#include "detect/trace.hpp"

namespace manet::detect {
namespace {

// --- Format round-trip -------------------------------------------------------

TraceHeader sample_header() {
  TraceHeader h;
  h.node = 7;
  h.start_time = 1500 * kMillisecond;
  h.params.cw_min = 15;
  h.params.use_eifs = true;
  h.targets = {3, 4, 5};
  h.timeline.retention = 10 * kSecond;
  h.timeline.current_busy = true;
  h.timeline.initial_busy = false;
  h.timeline.last_edge = 1499 * kMillisecond;
  h.timeline.cum_busy = 321 * kMillisecond;
  h.timeline.transitions = {{1 * kSecond, true}, {1499 * kMillisecond, false}};
  h.timeline.outages = {{2 * kMillisecond, 5 * kMillisecond}};
  return h;
}

std::vector<ObservationEvent> sample_events(std::size_t n) {
  std::vector<ObservationEvent> events;
  SimTime t = 1500 * kMillisecond;
  for (std::size_t i = 0; i < n; ++i) {
    ObservationEvent ev;
    switch (i % 4) {
      case 0: {
        mac::Frame rts;
        rts.type = mac::FrameType::kRts;
        rts.transmitter = 3;
        rts.receiver = 7;
        rts.duration = 500 * kMicrosecond;
        rts.seq_off = static_cast<std::uint32_t>(i % 8192);
        rts.attempt = static_cast<std::uint8_t>(1 + i % 7);
        rts.data_digest[0] = static_cast<std::uint8_t>(i);
        rts.data_digest[15] = 0xAB;
        ev = ObservationEvent::from_frame(rts, t, t + 496 * kMicrosecond);
        break;
      }
      case 1:
        ev.kind = ObservationKind::kCarrier;
        ev.rising = (i % 8) == 1;
        ev.at = t;
        break;
      case 2:
        ev.kind = ObservationKind::kOutage;
        ev.rising = (i % 8) == 2;
        ev.at = t;
        break;
      case 3:
        ev.kind = ObservationKind::kMarker;
        ev.marker_code = static_cast<std::uint32_t>(MarkerCode::kActivity);
        ev.marker_value = i % 2;
        ev.at = t;
        break;
    }
    events.push_back(ev);
    t += 100 * kMicrosecond;
  }
  return events;
}

TEST(TraceFormat, RoundTripPreservesHeaderAndEvents) {
  const TraceHeader header = sample_header();
  // More than one block's worth, plus a partial final block.
  const auto events = sample_events(TraceWriter::kBlockEvents * 2 + 37);

  TraceWriter writer(header);
  for (const auto& ev : events) writer.record(ev);
  EXPECT_EQ(writer.events_recorded(), events.size());

  MemoryTraceReader reader(writer.serialize());
  EXPECT_EQ(reader.header(), header);
  ASSERT_EQ(reader.event_count(), events.size());

  ObservationEvent ev;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(reader.next(ev)) << "event " << i;
    EXPECT_EQ(ev, events[i]) << "event " << i;
  }
  EXPECT_FALSE(reader.next(ev));

  reader.rewind();
  ASSERT_TRUE(reader.next(ev));
  EXPECT_EQ(ev, events[0]);
}

TEST(TraceFormat, SerializationIsCanonical) {
  // Equal event streams must serialize to equal bytes (the live-vs-replay
  // CI stage diffs trace bytes, not parsed structures).
  const TraceHeader header = sample_header();
  const auto events = sample_events(700);
  TraceWriter a(header);
  TraceWriter b(header);
  for (const auto& ev : events) {
    a.record(ev);
    b.record(ev);
  }
  EXPECT_EQ(a.serialize(), b.serialize());

  // serialize() must not disturb writer state (the pending partial block).
  const auto first = a.serialize();
  EXPECT_EQ(first, a.serialize());
}

TEST(TraceFormat, FileReaderMatchesMemoryReader) {
  const TraceHeader header = sample_header();
  const auto events = sample_events(100);
  TraceWriter writer(header);
  for (const auto& ev : events) writer.record(ev);

  const std::string path = ::testing::TempDir() + "/trace_test_roundtrip.mtrace";
  writer.write_file(path);

  FileTraceReader file(path);
  MemoryTraceReader mem(writer.serialize());
  EXPECT_EQ(file.header(), mem.header());
  ASSERT_EQ(file.event_count(), mem.event_count());
  EXPECT_EQ(file.events(), mem.events());
  std::remove(path.c_str());
}

TEST(TraceFormat, RejectsTruncationAndCorruption) {
  TraceWriter writer(sample_header());
  for (const auto& ev : sample_events(50)) writer.record(ev);
  const std::vector<std::uint8_t> bytes = writer.serialize();

  // Truncation anywhere — inside the header, at a block boundary, inside
  // the final block — must throw, never yield a partial parse.
  for (std::size_t cut : {std::size_t{2}, std::size_t{10}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(MemoryTraceReader{truncated}, TraceError) << "cut=" << cut;
  }

  // A flipped payload byte fails its block CRC (the last 12 bytes are the
  // end block).
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[bytes.size() - 12 - 3] ^= 0x40;
  EXPECT_THROW(MemoryTraceReader{corrupt}, TraceError);

  // So does a flipped end-block CRC, and bytes after the end block.
  corrupt = bytes;
  corrupt[bytes.size() - 1] ^= 0x01;
  EXPECT_THROW(MemoryTraceReader{corrupt}, TraceError);
  corrupt = bytes;
  corrupt.push_back(0);
  EXPECT_THROW(MemoryTraceReader{corrupt}, TraceError);

  // Corrupting the header payload fails the header CRC.
  corrupt = bytes;
  corrupt[14] ^= 0x01;
  EXPECT_THROW(MemoryTraceReader{corrupt}, TraceError);

  // Foreign bytes: wrong magic.
  corrupt = bytes;
  corrupt[0] ^= 0xFF;
  EXPECT_THROW(MemoryTraceReader{corrupt}, TraceError);

  EXPECT_THROW(FileTraceReader{"/nonexistent/path.mtrace"}, TraceError);
  EXPECT_NO_THROW(MemoryTraceReader{bytes});
}

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32_le(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes[at + i]} << (8 * i);
  return v;
}

TEST(TraceFormat, RejectsEveryCutOfAMultiBlockTrace) {
  TraceWriter writer(sample_header());
  for (const auto& ev : sample_events(TraceWriter::kBlockEvents * 2 + 37)) {
    writer.record(ev);
  }
  const std::vector<std::uint8_t> bytes = writer.serialize();

  // Block boundaries from the framing: the header block, three event
  // blocks, then the 12-byte end block.
  std::vector<std::size_t> boundaries;
  std::size_t at = 12 + get_u32_le(bytes, 4);
  boundaries.push_back(at);
  while (get_u32_le(bytes, at) != 0) {
    at += 12 + get_u32_le(bytes, at);
    boundaries.push_back(at);
  }
  ASSERT_EQ(boundaries.size(), 4u);
  ASSERT_EQ(at + 12, bytes.size());
  for (const std::size_t cut : boundaries) {
    const std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(MemoryTraceReader{truncated}, TraceError) << "boundary cut=" << cut;
  }
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(MemoryTraceReader{truncated}, TraceError) << "cut=" << cut;
  }
  EXPECT_EQ(MemoryTraceReader{bytes}.event_count(), TraceWriter::kBlockEvents * 2 + 37);
}

TEST(TraceFormat, RejectsAForgedEventCount) {
  // A CRC-valid block claiming 2^32 - 1 events in 100 bytes must be
  // refused before it sizes anything.
  TraceWriter writer(sample_header());
  std::vector<std::uint8_t> bytes = writer.serialize();
  bytes.resize(bytes.size() - 12);  // drop the end block
  const std::vector<std::uint8_t> payload(100, 0);
  put_u32_le(bytes, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(bytes, 0xFFFFFFFFu);
  put_u32_le(bytes, trace_crc32(payload.data(), payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  for (int i = 0; i < 3; ++i) put_u32_le(bytes, 0);  // end block
  EXPECT_THROW(MemoryTraceReader{bytes}, TraceError);
}

// --- Live vs replay fidelity -------------------------------------------------

net::ScenarioConfig tiny_grid(double seconds, std::uint64_t seed) {
  net::ScenarioConfig cfg;
  cfg.grid_rows = 3;
  cfg.grid_cols = 4;
  cfg.num_flows = 5;
  cfg.sim_seconds = seconds;
  cfg.seed = seed;
  return cfg;
}

MonitorConfig small_monitor(std::size_t ss = 10) {
  MonitorConfig m;
  m.sample_size = ss;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 3.0;
  m.fixed_contenders = 8.0;
  return m;
}

MultiDetectionConfig base_config(double seconds, std::uint64_t seed) {
  MultiDetectionConfig cfg;
  cfg.scenario = tiny_grid(seconds, seed);
  cfg.rate_pps = 25;
  cfg.pm = 60;
  cfg.monitors = {small_monitor(10), small_monitor(25)};
  cfg.collect_windows = true;
  return cfg;
}

/// Runs `cfg` live with trace recording, replays the recorded traces
/// (through full serialization), and asserts every deterministic output
/// matches exactly.
void expect_replay_matches_live(MultiDetectionConfig cfg) {
  cfg.collect_windows = true;
  TraceRecorder recorder;
  cfg.trace = &recorder;
  const MultiDetectionResult live = run_multi_detection_experiment(cfg);
  ASSERT_FALSE(recorder.writers().empty());

  const MultiDetectionResult replayed =
      replay_detection(recorder, cfg.monitors, cfg.warmup_s,
                       /*collect_windows=*/true);

  EXPECT_EQ(replayed.handoffs, live.handoffs);
  EXPECT_EQ(replayed.monitor_nodes, live.monitor_nodes);
  ASSERT_EQ(replayed.per_config.size(), live.per_config.size());
  for (std::size_t i = 0; i < live.per_config.size(); ++i) {
    const DetectionResult& l = live.per_config[i];
    const DetectionResult& r = replayed.per_config[i];
    EXPECT_EQ(r.windows, l.windows) << "config " << i;
    EXPECT_EQ(r.flagged, l.flagged) << "config " << i;
    EXPECT_EQ(r.flagged_statistical, l.flagged_statistical) << "config " << i;
    EXPECT_EQ(r.stats, l.stats) << "config " << i;
    ASSERT_EQ(r.window_log.size(), l.window_log.size()) << "config " << i;
    for (std::size_t w = 0; w < l.window_log.size(); ++w) {
      EXPECT_EQ(r.window_log[w], l.window_log[w])
          << "config " << i << " window " << w;
    }
  }
}

TEST(TraceReplay, StaticGridBitIdenticalAcrossSeeds) {
  for (std::uint64_t seed : {7u, 41u, 1234u}) {
    SCOPED_TRACE(seed);
    expect_replay_matches_live(base_config(30, seed));
  }
}

TEST(TraceReplay, HonestRunBitIdentical) {
  MultiDetectionConfig cfg = base_config(30, 23);
  cfg.pm = 0.0;
  expect_replay_matches_live(cfg);
}

TEST(TraceReplay, MobileHandoffBitIdenticalAcrossSeeds) {
  // Handoffs exercise mid-run recording starts (timeline snapshots with
  // pre-attach history) and the kActivity marker path.
  for (std::uint64_t seed : {11u, 97u}) {
    SCOPED_TRACE(seed);
    MultiDetectionConfig cfg = base_config(40, seed);
    cfg.scenario.mobility = net::MobilityKind::kRandomWaypoint;
    cfg.scenario.max_speed_mps = 20.0;
    cfg.scenario.pause_s = 0.0;
    cfg.mobile_handoff = true;
    expect_replay_matches_live(cfg);
  }
}

TEST(TraceReplay, LossyScenarioBitIdentical) {
  MultiDetectionConfig cfg = base_config(30, 77);
  cfg.scenario.faults.loss_probability = 0.10;
  cfg.scenario.faults.corrupt_probability = 0.03;
  cfg.scenario.faults.outages.push_back(
      {.node = 1, .start = 5 * kSecond, .stop = 7 * kSecond});
  expect_replay_matches_live(cfg);
}

TEST(TraceReplay, RtsFloodAttackerBitIdentical) {
  // Exercises the single-shot rts_gap_bound verdict path in replay.
  MultiDetectionConfig cfg = base_config(20, 5);
  cfg.pm = 0.0;
  cfg.attacker.kind = AttackerKind::kRtsFlood;
  cfg.attacker.flood_pps = 400.0;
  for (MonitorConfig& m : cfg.monitors) m.rts_gap_bound = true;
  expect_replay_matches_live(cfg);
}

TEST(TraceReplay, SybilAttackerBitIdentical) {
  // Multi-target traces: the header carries every sybil alias and replay
  // rebuilds the config-major x target view matrix.
  MultiDetectionConfig cfg = base_config(20, 9);
  cfg.pm = 0.0;
  cfg.attacker.kind = AttackerKind::kSybil;
  cfg.attacker.pm = 70.0;
  cfg.attacker.group = 3;
  expect_replay_matches_live(cfg);
}

TEST(TraceReplay, SequentialDetectorsBitIdentical) {
  // The CUSUM/SPRT paths run identically from a trace.
  MultiDetectionConfig cfg = base_config(30, 13);
  cfg.monitors = {small_monitor(10), small_monitor(10)};
  cfg.monitors[0].detector = DetectorKind::kCusum;
  cfg.monitors[1].detector = DetectorKind::kSprt;
  expect_replay_matches_live(cfg);
}

TEST(TraceReplay, RecordedTraceHeaderDescribesTheRun) {
  MultiDetectionConfig cfg = base_config(20, 3);
  TraceRecorder recorder;
  cfg.trace = &recorder;
  run_multi_detection_experiment(cfg);
  ASSERT_EQ(recorder.writers().size(), 1u);
  const TraceWriter& w = *recorder.writers().front();
  EXPECT_EQ(w.header().start_time, 0);
  EXPECT_EQ(w.header().targets.size(), 1u);
  EXPECT_GT(w.events_recorded(), 0u);
  // The stream ends with the kTraceEnd marker at the stop time.
  MemoryTraceReader reader(w.serialize());
  ASSERT_GT(reader.event_count(), 0u);
  const ObservationEvent& last = reader.events().back();
  EXPECT_EQ(last.kind, ObservationKind::kMarker);
  EXPECT_EQ(last.marker_code, static_cast<std::uint32_t>(MarkerCode::kTraceEnd));
  EXPECT_EQ(last.at, seconds_to_time(cfg.scenario.sim_seconds));
}

}  // namespace
}  // namespace manet::detect
