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

std::vector<ObservationEvent> all_events(const MemoryTraceReader& reader) {
  const auto view = reader.events();
  return {view.begin(), view.end()};
}

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
        // A frame is perceived at its decode end: `at` is the air end.
        ev = ObservationEvent::from_frame(rts, t - 496 * kMicrosecond, t);
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
  EXPECT_EQ(all_events(reader), events);
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
  EXPECT_EQ(all_events(file), all_events(mem));
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

// --- v3 edge runs, time order, malformed records ------------------------------

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_i64_le(std::vector<std::uint8_t>& out, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i)));
  }
}

/// `header`'s trace with one hand-built event block (payload, event count)
/// between the header block and the end block.
std::vector<std::uint8_t> with_block(const TraceHeader& header,
                                     const std::vector<std::uint8_t>& payload,
                                     std::uint32_t count) {
  std::vector<std::uint8_t> bytes = TraceWriter(header).serialize();
  bytes.resize(bytes.size() - 12);  // drop the end block
  put_u32_le(bytes, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(bytes, count);
  put_u32_le(bytes, trace_crc32(payload.data(), payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  for (int i = 0; i < 3; ++i) put_u32_le(bytes, 0);
  return bytes;
}

ObservationEvent edge(bool busy, SimTime at) {
  ObservationEvent ev;
  ev.kind = ObservationKind::kCarrier;
  ev.rising = busy;
  ev.at = at;
  return ev;
}

TEST(TraceFormat, WriterRejectsTimeGoingBackwards) {
  const TraceHeader header = sample_header();
  const SimTime t0 = header.start_time;
  TraceWriter writer(header);
  writer.record(edge(true, t0 + 5 * kMillisecond));
  writer.record(edge(false, t0 + 6 * kMillisecond));
  EXPECT_THROW(writer.record(edge(true, t0 + 1 * kMillisecond)), TraceError);
  EXPECT_THROW(writer.marker(MarkerCode::kTraceEnd, 0, t0 + 2 * kMillisecond),
               TraceError);
  EXPECT_EQ(writer.events_recorded(), 2u);
  // Equal times are fine; so is carrying on after a refused event.
  writer.record(edge(true, t0 + 6 * kMillisecond));
  EXPECT_EQ(MemoryTraceReader{writer.serialize()}.event_count(), 3u);
  // Nothing may precede the recording start.
  TraceWriter early(header);
  EXPECT_THROW(early.record(edge(true, t0 - 1)), TraceError);
}

TEST(TraceFormat, ReaderRejectsTimeGoingBackwards) {
  // Edges at start + 5 and + 6 ms, then an outage edge at `outage_ms`.
  const TraceHeader header = sample_header();
  const auto trace = [&](SimTime outage_ms) {
    std::vector<std::uint8_t> payload = {1, 1, 2};
    put_varint(payload, 5 * kMillisecond);
    put_varint(payload, 1 * kMillisecond);
    payload.push_back(2);
    payload.push_back(1);
    put_i64_le(payload, header.start_time + outage_ms * kMillisecond);
    return with_block(header, payload, 3);
  };
  EXPECT_THROW(MemoryTraceReader{trace(1)}, TraceError);
  const MemoryTraceReader ok(trace(7));
  EXPECT_EQ(ok.event_count(), 3u);
  EXPECT_EQ(ok.end_time(), header.start_time + 7 * kMillisecond);

  // A marker before the header's recording start.
  std::vector<std::uint8_t> payload = {3, 2, 0, 0, 0};
  for (int i = 0; i < 8; ++i) payload.push_back(0);
  put_i64_le(payload, header.start_time - 1);
  EXPECT_THROW(MemoryTraceReader(with_block(header, payload, 1)), TraceError);
}

TEST(TraceFormat, EdgeRunsRoundTripAnyEdgeStream) {
  // Repeated states, edges at one instant, a frame between edges, and an
  // alternating run longer than a block: every edge comes back with its
  // state and time, and runs split exactly where the states repeat or a
  // block ends.
  const TraceHeader header = sample_header();
  SimTime t = header.start_time;
  std::vector<ObservationEvent> events = {
      edge(true, t), edge(true, t), edge(false, t + 3), edge(false, t + 3)};
  mac::Frame cts;
  cts.type = mac::FrameType::kCts;
  cts.transmitter = 4;
  events.push_back(ObservationEvent::from_frame(cts, t, t + 9));
  t += 9;
  bool busy = true;
  for (std::size_t i = 0; i < TraceWriter::kBlockEvents + 100; ++i) {
    t += static_cast<SimTime>(1 + (i * 7919) % 300000);
    events.push_back(edge(busy, t));
    busy = !busy;
  }
  events.push_back(edge(!busy, t + kSecond));  // repeats the last state

  TraceWriter writer(header);
  for (const auto& ev : events) writer.record(ev);
  const MemoryTraceReader reader(writer.serialize());
  EXPECT_EQ(all_events(reader), events);
  EXPECT_EQ(reader.edge_count(), events.size() - 1);
  // {busy}, {busy, idle}, {idle}, then the long run split at the block end
  // (the first block holds 5 + 507 events), then the repeated state.
  EXPECT_EQ(reader.edge_run_count(), 6u);
  EXPECT_EQ(reader.end_time(), t + kSecond);
}

TEST(TraceFormat, RecordedEdgesTakeAboutThreeBytes) {
  MultiDetectionConfig cfg;
  cfg.scenario.grid_rows = 3;
  cfg.scenario.grid_cols = 3;
  cfg.scenario.num_flows = 5;
  cfg.scenario.sim_seconds = 5;
  cfg.scenario.seed = 3;
  cfg.rate_pps = 25;
  MonitorConfig m;
  m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 3.0;
  m.fixed_contenders = 8.0;
  cfg.monitors = {m};
  TraceRecorder recorder;
  cfg.trace = &recorder;
  run_multi_detection_experiment(cfg);
  const MemoryTraceReader reader(recorder.writers().front()->serialize());
  ASSERT_GT(reader.edge_count(), 1000u);
  EXPECT_LT(reader.edge_run_count(), reader.edge_count() / 2);
  EXPECT_LT(static_cast<double>(reader.edge_run_bytes()),
            4.0 * static_cast<double>(reader.edge_count()));
}

TEST(TraceFormat, RefusesVersion2) {
  std::vector<std::uint8_t> bytes = TraceWriter(sample_header()).serialize();
  ASSERT_EQ(bytes[12], kTraceVersion);
  bytes[12] = 2;  // the header payload's u16 version
  const std::uint32_t len = get_u32_le(bytes, 4);
  const std::uint32_t crc = trace_crc32(bytes.data() + 12, len);
  for (int i = 0; i < 4; ++i) bytes[8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  try {
    MemoryTraceReader{bytes};
    ADD_FAILURE() << "a version-2 stream was accepted";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, RejectsMalformedEdgeRuns) {
  const TraceHeader header = sample_header();
  const std::vector<std::uint8_t> ff9(9, 0xFF);
  struct Case {
    const char* what;
    std::vector<std::uint8_t> payload;
    std::uint32_t count;
  };
  std::vector<Case> cases = {
      {"empty run", {1, 0, 0}, 1},
      {"empty run, no count", {1, 0, 0}, 0},
      {"empty run before a run", {1, 0, 0, 1, 0, 1, 5}, 1},
      {"overlong delta", {1, 0, 1, 0x85, 0x00}, 1},
      {"overlong count", {1, 0, 0x81, 0x00, 5}, 1},
      {"truncated delta", {1, 0, 1, 0x80}, 1},
      {"run longer than its block", {1, 0, 2, 1, 1}, 1},
      {"run longer than its payload", {1, 0, 3, 1, 1}, 3},
      {"bad state byte", {1, 2, 1, 1}, 1},
      {"unknown kind", {4, 0, 1, 1}, 1},
  };
  Case overflow{"delta wider than 64 bits", {1, 0, 1}, 1};
  overflow.payload.insert(overflow.payload.end(), ff9.begin(), ff9.end());
  overflow.payload.push_back(0x02);
  cases.push_back(overflow);
  Case past_end{"edge time past the end of time", {1, 0, 1}, 1};
  past_end.payload.insert(past_end.payload.end(), ff9.begin(), ff9.end());
  past_end.payload.push_back(0x01);  // 2^64 - 1
  cases.push_back(past_end);
  Case huge{"run count beyond 32 bits", {1, 0}, 1};
  put_varint(huge.payload, (std::uint64_t{1} << 32) + 1);
  huge.payload.push_back(1);
  cases.push_back(huge);
  for (const Case& c : cases) {
    EXPECT_THROW(MemoryTraceReader(with_block(header, c.payload, c.count)), TraceError)
        << c.what;
  }
  const MemoryTraceReader ok(with_block(header, {1, 0, 2, 1, 1}, 2));
  EXPECT_EQ(ok.edge_count(), 2u);
  EXPECT_EQ(ok.end_time(), header.start_time + 2);
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
  const ObservationEvent last = all_events(reader).back();
  EXPECT_EQ(last.kind, ObservationKind::kMarker);
  EXPECT_EQ(last.marker_code, static_cast<std::uint32_t>(MarkerCode::kTraceEnd));
  EXPECT_EQ(last.at, seconds_to_time(cfg.scenario.sim_seconds));
}

}  // namespace
}  // namespace manet::detect
