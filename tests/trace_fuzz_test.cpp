// Seeded mutation fuzzing of the .mtrace reader (src/detect/trace.*).
//
// The corpus is one recorded multi-block trace. Every mutant — bit flips
// (raw, and with the touched block's CRC recomputed so the decoder sees
// the damage), every cut, forged event counts and payload lengths, forged
// header list lengths, overlong and overflowing varints, zero-length and
// over-long carrier runs, and block splices — must either parse or raise
// TraceError. An accepted mutant must describe a valid stream: its events
// re-expand in non-decreasing time and survive a write/read round trip.
// No mutant may crash, hang, or make an allocation sized by an unchecked
// length: this binary replaces operator new to record the largest single
// request made while a reader is constructed, and bounds it by the input
// size.
//
// The budget is fixed (seed and iteration count are constants), so the
// test is deterministic; scripts/check.sh also runs it under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "detect/experiment.hpp"
#include "detect/trace.hpp"
#include "util/rng.hpp"

namespace {
bool g_track_allocations = false;
std::size_t g_largest_allocation = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocations && size > g_largest_allocation) g_largest_allocation = size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace manet::detect {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t kSeed = 0x6d74726163650003ULL;
constexpr int kMutants = 6000;

/// A recorded trace of a small static grid: a few thousand events, so
/// several blocks, with frames, carrier runs and the end marker.
const Bytes& corpus() {
  static const Bytes bytes = [] {
    MultiDetectionConfig cfg;
    cfg.scenario.grid_rows = 3;
    cfg.scenario.grid_cols = 3;
    cfg.scenario.num_flows = 5;
    cfg.scenario.sim_seconds = 2;
    cfg.scenario.seed = 17;
    cfg.rate_pps = 25;
    cfg.pm = 60;
    MonitorConfig m;
    m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 3.0;
    m.fixed_contenders = 8.0;
    cfg.monitors = {m};
    TraceRecorder recorder;
    cfg.trace = &recorder;
    run_multi_detection_experiment(cfg);
    return recorder.writers().front()->serialize();
  }();
  return bytes;
}

std::uint32_t get_u32(const Bytes& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[at + i]} << (8 * i);
  return v;
}

void set_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Where a block's framing starts: its length word (for the header block,
/// the word after the magic), and the offsets of its count and CRC words
/// (the header block has no count).
struct Block {
  std::size_t len_at;
  std::size_t crc_at;
  std::size_t payload_at;
  bool header;

  std::size_t len(const Bytes& b) const { return get_u32(b, len_at); }
  void fix_crc(Bytes& b) const {
    set_u32(b, crc_at, trace_crc32(b.data() + payload_at, len(b)));
  }
};

/// The header block and every event block of a well-formed stream (the
/// end block excluded).
std::vector<Block> blocks_of(const Bytes& b) {
  std::vector<Block> blocks = {{4, 8, 12, true}};
  std::size_t at = 12 + get_u32(b, 4);
  while (get_u32(b, at) != 0) {
    blocks.push_back({at, at + 8, at + 12, false});
    at += 12 + get_u32(b, at);
  }
  return blocks;
}

/// Offsets of the header's three list lengths: targets, then the timeline
/// snapshot's transitions and outages. The header payload starts with
/// version, reserved, node and start time (16 bytes) and the DcfParams
/// (85 bytes); the snapshot puts 35 bytes of scalars before its lists.
std::vector<std::size_t> header_lists(const Bytes& b) {
  const std::size_t targets_at = 12 + 16 + 85;
  const std::size_t transitions_at = targets_at + 4 + 4 * get_u32(b, targets_at) + 35;
  const std::size_t outages_at = transitions_at + 4 + 9 * get_u32(b, transitions_at);
  return {targets_at, transitions_at, outages_at};
}

std::uint32_t interesting_u32(util::Xoshiro256ss& rng, std::uint32_t near) {
  switch (rng.uniform_int(7)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 0xFFFFFFFFu;
    case 3: return 0x7FFFFFFFu;
    case 4: return near + 1;
    case 5: return near > 0 ? near - 1 : 0;
    default: return static_cast<std::uint32_t>(rng());
  }
}

/// A malformed or borderline carrier-run record.
Bytes odd_run(util::Xoshiro256ss& rng) {
  const auto varint = [](Bytes& out, std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
  };
  Bytes r = {1, static_cast<std::uint8_t>(rng.uniform_int(3))};
  switch (rng.uniform_int(6)) {
    case 0:  // zero-length run
      r.push_back(0);
      break;
    case 1:  // overlong count
      r.insert(r.end(), {0x81, 0x80, 0x00, 0x05});
      break;
    case 2:  // delta wider than 64 bits
      r.push_back(1);
      r.insert(r.end(), 9, 0xFF);
      r.push_back(0x7F);
      break;
    case 3:  // overlong delta
      r.insert(r.end(), {1, 0x85, 0x80, 0x00});
      break;
    case 4:  // a count far beyond the payload
      varint(r, rng() >> rng.uniform_int(64));
      r.push_back(1);
      break;
    default:  // a valid run of random deltas
      r.push_back(3);
      for (int i = 0; i < 3; ++i) varint(r, rng() >> (10 + rng.uniform_int(54)));
      break;
  }
  return r;
}

Bytes mutate(const Bytes& base, util::Xoshiro256ss& rng) {
  Bytes b = base;
  const std::vector<Block> blocks = blocks_of(b);
  const Block& blk = blocks[rng.uniform_int(blocks.size())];
  const std::size_t len = blk.len(b);
  switch (rng.uniform_int(9)) {
    case 0: {  // raw bit flips anywhere
      const std::uint64_t flips = 1 + rng.uniform_int(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        b[rng.uniform_int(b.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
      break;
    }
    case 1: {  // bit flips inside one payload, CRC recomputed
      if (len == 0) break;
      const std::uint64_t flips = 1 + rng.uniform_int(3);
      for (std::uint64_t i = 0; i < flips; ++i) {
        b[blk.payload_at + rng.uniform_int(len)] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
      blk.fix_crc(b);
      break;
    }
    case 2: {  // a forged event count (not covered by the CRC)
      if (blk.header) break;
      set_u32(b, blk.len_at + 4, interesting_u32(rng, get_u32(b, blk.len_at + 4)));
      break;
    }
    case 3: {  // a forged payload length
      set_u32(b, blk.len_at, interesting_u32(rng, static_cast<std::uint32_t>(len)));
      break;
    }
    case 4: {  // an interesting word over a payload, CRC recomputed:
               // reaches the header's list lengths and fixed-width fields
      if (len < 4) break;
      set_u32(b, blk.payload_at + rng.uniform_int(len - 3),
              interesting_u32(rng, static_cast<std::uint32_t>(len)));
      blk.fix_crc(b);
      break;
    }
    case 5: {  // a malformed run spliced into an event payload
      if (blk.header) break;
      const Bytes run = odd_run(rng);
      const std::size_t at = blk.payload_at + (rng.bernoulli(0.5) ? 0 : len);
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), run.begin(), run.end());
      set_u32(b, blk.len_at, static_cast<std::uint32_t>(len + run.size()));
      if (rng.bernoulli(0.5)) {
        set_u32(b, blk.len_at + 4,
                get_u32(b, blk.len_at + 4) + static_cast<std::uint32_t>(rng.uniform_int(4)));
      }
      blk.fix_crc(b);
      break;
    }
    case 6: {  // bytes inserted into or erased from a payload, framing fixed
      if (len == 0) break;
      const std::size_t at = blk.payload_at + rng.uniform_int(len);
      if (rng.bernoulli(0.5)) {
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
                 static_cast<std::uint8_t>(rng.bernoulli(0.5) ? 0x80 : rng()));
        set_u32(b, blk.len_at, static_cast<std::uint32_t>(len + 1));
      } else {
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(at));
        set_u32(b, blk.len_at, static_cast<std::uint32_t>(len - 1));
      }
      blk.fix_crc(b);
      break;
    }
    case 7: {  // a forged header list length, CRC recomputed
      const std::vector<std::size_t> lists = header_lists(b);
      const std::size_t at = lists[rng.uniform_int(lists.size())];
      set_u32(b, at, interesting_u32(rng, get_u32(b, at)));
      blocks.front().fix_crc(b);
      break;
    }
    default: {  // an event block duplicated or dropped (CRCs stay valid)
      if (blk.header) break;
      const auto first = b.begin() + static_cast<std::ptrdiff_t>(blk.len_at);
      const auto last = first + static_cast<std::ptrdiff_t>(12 + len);
      if (rng.bernoulli(0.5)) {
        const Bytes copy(first, last);
        b.insert(last, copy.begin(), copy.end());
      } else {
        b.erase(first, last);
      }
      break;
    }
  }
  return b;
}

/// Parses `bytes`; on success checks the decoded stream describes a valid
/// trace. Returns whether it was accepted.
bool check(const Bytes& bytes) {
  g_largest_allocation = 0;
  g_track_allocations = true;
  std::unique_ptr<MemoryTraceReader> reader;
  try {
    reader = std::make_unique<MemoryTraceReader>(bytes);
  } catch (const TraceError&) {
    g_track_allocations = false;
    return false;
  }
  g_track_allocations = false;
  // Every decoded structure is bounded by a small multiple of the input
  // (an 88-byte event needs at least a 10-byte record, an 8-byte edge time
  // at least one byte, and vectors at most double their contents).
  EXPECT_LE(g_largest_allocation, 24 * bytes.size() + 4096);

  std::vector<ObservationEvent> events;
  SimTime last = reader->header().start_time;
  for (const ObservationEvent& ev : reader->events()) {
    if (events.size() == reader->event_count()) {
      ADD_FAILURE() << "events() yields more than event_count() events";
      break;
    }
    EXPECT_GE(ev.at, last);
    last = ev.at;
    events.push_back(ev);
  }
  EXPECT_EQ(events.size(), reader->event_count());
  EXPECT_EQ(last, reader->end_time());

  TraceWriter writer(reader->header());
  for (const ObservationEvent& ev : events) writer.record(ev);
  const MemoryTraceReader again(writer.serialize());
  EXPECT_EQ(again.header(), reader->header());
  const auto view = again.events();
  EXPECT_TRUE(std::vector<ObservationEvent>(view.begin(), view.end()) == events);
  return true;
}

TEST(TraceFuzz, CorpusIsAMultiBlockTraceWithEdgeRuns) {
  const MemoryTraceReader reader(corpus());
  const std::vector<std::size_t> lists = header_lists(corpus());
  EXPECT_EQ(get_u32(corpus(), lists[0]), reader.header().targets.size());
  EXPECT_EQ(get_u32(corpus(), lists[1]), reader.header().timeline.transitions.size());
  EXPECT_EQ(get_u32(corpus(), lists[2]), reader.header().timeline.outages.size());
  EXPECT_GE(blocks_of(corpus()).size(), 4u);  // header + at least 3 event blocks
  EXPECT_GT(reader.edge_run_count(), 100u);
  EXPECT_TRUE(check(corpus()));
}

TEST(TraceFuzz, EveryCutIsRejected) {
  const Bytes& bytes = corpus();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(check(Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut))))
        << "cut=" << cut;
  }
}

TEST(TraceFuzz, MutantsAreAcceptedOrRejectedWithTraceError) {
  util::Xoshiro256ss rng(kSeed);
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const Bytes mutant = mutate(corpus(), rng);
    if (check(mutant)) ++accepted;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "mutant " << i << " (" << mutant.size() << " bytes)";
      break;
    }
  }
  // Most mutants are caught; the few accepted ones (a forged count that
  // still matches, a dropped block) are valid streams, checked above.
  EXPECT_LT(accepted, kMutants / 2);
}

}  // namespace
}  // namespace manet::detect
