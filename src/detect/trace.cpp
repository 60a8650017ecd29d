#include "detect/trace.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>

#include "util/crc32.hpp"

namespace manet::detect {
namespace {

// --- Little-endian fixed-width (de)serialization ----------------------------

struct ByteWriter {
  std::vector<std::uint8_t>& out;

  template <class T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    for (std::size_t i = sizeof(T); i-- > 0;) out.push_back(raw[i]);
#else
    out.insert(out.end(), raw, raw + sizeof(T));
#endif
  }
  void put_u8(std::uint8_t v) { put(v); }
  void put_u16(std::uint16_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_i64(std::int64_t v) { put(v); }
  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }
  void put_bytes(const std::uint8_t* data, std::size_t len) {
    out.insert(out.end(), data, data + len);
  }
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
  }
};

struct ByteReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (size - pos < n) throw TraceError("trace: truncated payload");
  }
  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    std::uint8_t raw[sizeof(T)];
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    for (std::size_t i = sizeof(T); i-- > 0;) raw[i] = data[pos++];
#else
    std::memcpy(raw, data + pos, sizeof(T));
    pos += sizeof(T);
#endif
    T value;
    std::memcpy(&value, raw, sizeof(T));
    return value;
  }
  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint16_t get_u16() { return get<std::uint16_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  std::int64_t get_i64() { return get<std::int64_t>(); }
  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  void get_bytes(std::uint8_t* dst, std::size_t len) {
    need(len);
    std::memcpy(dst, data + pos, len);
    pos += len;
  }
  bool get_bool() {
    const std::uint8_t v = get_u8();
    if (v > 1) throw TraceError("trace: bad state byte " + std::to_string(v));
    return v != 0;
  }
  /// Unsigned LEB128 in its shortest form: a value wider than 64 bits and
  /// a redundant trailing zero group are both refused.
  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (pos == size) throw TraceError("trace: truncated payload");
      const std::uint8_t b = data[pos++];
      if (shift == 63 && b > 1) throw TraceError("trace: varint overflows 64 bits");
      v |= std::uint64_t{b & 0x7Fu} << shift;
      if (b < 0x80) {
        if (b == 0 && shift > 0) throw TraceError("trace: overlong varint");
        return v;
      }
    }
  }
  std::size_t left() const { return size - pos; }
  /// A u32 element count, refused unless the unread bytes could hold that
  /// many `element_bytes`-byte elements: a forged count cannot size an
  /// allocation beyond the payload.
  std::uint32_t get_count(std::size_t element_bytes) {
    const std::uint32_t n = get_u32();
    if (n > left() / element_bytes) throw TraceError("trace: list length exceeds payload");
    return n;
  }
  bool done() const { return pos == size; }
};

void put_params(ByteWriter& w, const mac::DcfParams& p) {
  w.put_i64(p.slot_time);
  w.put_i64(p.sifs);
  w.put_i64(p.difs);
  w.put_u32(p.cw_min);
  w.put_u32(p.cw_max);
  w.put_u32(p.retry_limit);
  w.put_f64(p.basic_rate_bps);
  w.put_f64(p.data_rate_bps);
  w.put_i64(p.plcp_overhead);
  w.put_u32(p.rts_bytes);
  w.put_u32(p.cts_bytes);
  w.put_u32(p.ack_bytes);
  w.put_u32(p.data_header_bytes);
  w.put_u32(p.queue_capacity);
  w.put_u8(p.use_eifs ? 1 : 0);
  w.put_u32(p.seq_off_modulo);
}

mac::DcfParams get_params(ByteReader& r) {
  mac::DcfParams p;
  p.slot_time = r.get_i64();
  p.sifs = r.get_i64();
  p.difs = r.get_i64();
  p.cw_min = r.get_u32();
  p.cw_max = r.get_u32();
  p.retry_limit = r.get_u32();
  p.basic_rate_bps = r.get_f64();
  p.data_rate_bps = r.get_f64();
  p.plcp_overhead = r.get_i64();
  p.rts_bytes = r.get_u32();
  p.cts_bytes = r.get_u32();
  p.ack_bytes = r.get_u32();
  p.data_header_bytes = r.get_u32();
  p.queue_capacity = r.get_u32();
  p.use_eifs = r.get_u8() != 0;
  p.seq_off_modulo = r.get_u32();
  return p;
}

void put_snapshot(ByteWriter& w, const phy::CsTimelineSnapshot& s) {
  w.put_i64(s.retention);
  w.put_u8(s.initial_busy ? 1 : 0);
  w.put_u8(s.current_busy ? 1 : 0);
  w.put_u8(s.in_outage ? 1 : 0);
  w.put_i64(s.last_edge);
  w.put_i64(s.outage_start);
  w.put_i64(s.cum_busy);
  w.put_u32(static_cast<std::uint32_t>(s.transitions.size()));
  for (const auto& [at, busy] : s.transitions) {
    w.put_i64(at);
    w.put_u8(busy ? 1 : 0);
  }
  w.put_u32(static_cast<std::uint32_t>(s.outages.size()));
  for (const auto& [start, stop] : s.outages) {
    w.put_i64(start);
    w.put_i64(stop);
  }
}

phy::CsTimelineSnapshot get_snapshot(ByteReader& r) {
  phy::CsTimelineSnapshot s;
  s.retention = r.get_i64();
  s.initial_busy = r.get_u8() != 0;
  s.current_busy = r.get_u8() != 0;
  s.in_outage = r.get_u8() != 0;
  s.last_edge = r.get_i64();
  s.outage_start = r.get_i64();
  s.cum_busy = r.get_i64();
  const std::uint32_t n_tr = r.get_count(8 + 1);
  s.transitions.reserve(n_tr);
  for (std::uint32_t i = 0; i < n_tr; ++i) {
    const SimTime at = r.get_i64();
    const bool busy = r.get_u8() != 0;
    s.transitions.emplace_back(at, busy);
  }
  const std::uint32_t n_out = r.get_count(8 + 8);
  s.outages.reserve(n_out);
  for (std::uint32_t i = 0; i < n_out; ++i) {
    const SimTime start = r.get_i64();
    const SimTime stop = r.get_i64();
    s.outages.emplace_back(start, stop);
  }
  return s;
}

std::vector<std::uint8_t> header_payload(const TraceHeader& h) {
  std::vector<std::uint8_t> payload;
  // Writing into a vector that already has room also keeps g++ 12's
  // -Wstringop-overflow false positive (a memmove into the empty vector's
  // "size 0 region") out of the -O3 IPO build.
  payload.reserve(256);
  ByteWriter w{payload};
  w.put_u16(kTraceVersion);
  w.put_u16(0);  // reserved
  w.put_u32(h.node);
  w.put_i64(h.start_time);
  put_params(w, h.params);
  w.put_u32(static_cast<std::uint32_t>(h.targets.size()));
  for (NodeId t : h.targets) w.put_u32(t);
  put_snapshot(w, h.timeline);
  return payload;
}

TraceHeader parse_header_payload(const std::uint8_t* data, std::size_t size) {
  ByteReader r{data, size};
  const std::uint16_t version = r.get_u16();
  if (version != kTraceVersion) {
    throw TraceError("trace: unsupported version " + std::to_string(version));
  }
  r.get_u16();  // reserved
  TraceHeader h;
  h.node = r.get_u32();
  h.start_time = r.get_i64();
  h.params = get_params(r);
  const std::uint32_t n_targets = r.get_count(4);
  h.targets.reserve(n_targets);
  for (std::uint32_t i = 0; i < n_targets; ++i) h.targets.push_back(r.get_u32());
  h.timeline = get_snapshot(r);
  if (!r.done()) throw TraceError("trace: trailing bytes in header");
  return h;
}

void put_event(ByteWriter& w, const ObservationEvent& ev) {
  w.put_u8(static_cast<std::uint8_t>(ev.kind));
  switch (ev.kind) {
    case ObservationKind::kFrame:
      w.put_u8(static_cast<std::uint8_t>(ev.type));
      w.put_u8(ev.attempt);
      w.put_i64(ev.start);
      w.put_i64(ev.at);
      w.put_u32(ev.transmitter);
      w.put_u32(ev.receiver);
      w.put_i64(ev.duration);
      w.put_u32(ev.seq_off);
      w.put_bytes(ev.digest.data(), ev.digest.size());
      break;
    case ObservationKind::kCarrier:  // written as runs (put_run)
      break;
    case ObservationKind::kOutage:
      w.put_u8(ev.rising ? 1 : 0);
      w.put_i64(ev.at);
      break;
    case ObservationKind::kMarker:
      w.put_u32(ev.marker_code);
      w.put_u64(ev.marker_value);
      w.put_i64(ev.at);
      break;
  }
}

/// An event block's framing: payload_len, event_count, crc32.
constexpr std::size_t kBlockHeaderBytes = 3 * 4;

/// Decodes the fixed-width record (frame, outage or marker) of `kind`
/// into `ev`, a default-constructed event.
void get_event(ByteReader& r, ObservationKind kind, ObservationEvent& ev) {
  ev.kind = kind;
  switch (ev.kind) {
    case ObservationKind::kFrame: {
      const std::uint8_t type = r.get_u8();
      if (type > static_cast<std::uint8_t>(mac::FrameType::kAck)) {
        throw TraceError("trace: unknown frame type " + std::to_string(type));
      }
      ev.type = static_cast<mac::FrameType>(type);
      ev.attempt = r.get_u8();
      ev.start = r.get_i64();
      ev.at = r.get_i64();
      ev.transmitter = r.get_u32();
      ev.receiver = r.get_u32();
      ev.duration = r.get_i64();
      ev.seq_off = r.get_u32();
      r.get_bytes(ev.digest.data(), ev.digest.size());
      break;
    }
    case ObservationKind::kCarrier:  // decoded as runs
      break;
    case ObservationKind::kOutage:
      ev.rising = r.get_bool();
      ev.at = r.get_i64();
      break;
    case ObservationKind::kMarker:
      ev.marker_code = r.get_u32();
      ev.marker_value = r.get_u64();
      ev.at = r.get_i64();
      break;
  }
}

/// `to - from` for to >= from, exact over the whole SimTime range.
std::uint64_t time_delta(SimTime from, SimTime to) {
  return static_cast<std::uint64_t>(to) - static_cast<std::uint64_t>(from);
}

}  // namespace

std::uint32_t trace_crc32(const std::uint8_t* data, std::size_t len) {
  return util::crc32(data, len);
}

TraceWriter::TraceWriter(const TraceHeader& header)
    : header_(header), last_at_(header.start_time) {
  const std::vector<std::uint8_t> payload = header_payload(header_);
  ByteWriter w{buffer_};
  w.put_u32(kTraceMagic);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_u32(trace_crc32(payload.data(), payload.size()));
  w.put_bytes(payload.data(), payload.size());
}

void TraceWriter::record(const ObservationEvent& event) {
  if (event.at < last_at_) {
    throw TraceError("trace: event at " + std::to_string(event.at) +
                     " precedes the previous event at " + std::to_string(last_at_));
  }
  if (event.kind == ObservationKind::kCarrier) {
    if (run_edges_ > 0 && event.rising != run_next_busy_) close_run();
    if (run_edges_ == 0) run_first_busy_ = event.rising;
    ByteWriter{run_}.put_varint(time_delta(last_at_, event.at));
    ++run_edges_;
    run_next_busy_ = !event.rising;
  } else {
    close_run();
    ByteWriter w{block_};
    put_event(w, event);
  }
  last_at_ = event.at;
  ++block_events_;
  ++events_;
  if (block_events_ >= kBlockEvents) flush_block();
}

void TraceWriter::marker(MarkerCode code, std::uint64_t value, SimTime at) {
  ObservationEvent ev;
  ev.kind = ObservationKind::kMarker;
  ev.at = at;
  ev.marker_code = static_cast<std::uint32_t>(code);
  ev.marker_value = value;
  record(ev);
}

void TraceWriter::put_run(std::vector<std::uint8_t>& payload) const {
  if (run_edges_ == 0) return;
  ByteWriter w{payload};
  w.put_u8(static_cast<std::uint8_t>(ObservationKind::kCarrier));
  w.put_u8(run_first_busy_ ? 1 : 0);
  w.put_varint(run_edges_);
  w.put_bytes(run_.data(), run_.size());
}

void TraceWriter::close_run() {
  put_run(block_);
  run_.clear();
  run_edges_ = 0;
}

void TraceWriter::flush_block() {
  if (block_events_ == 0) return;
  close_run();
  ByteWriter w{buffer_};
  w.put_u32(static_cast<std::uint32_t>(block_.size()));
  w.put_u32(block_events_);
  w.put_u32(trace_crc32(block_.data(), block_.size()));
  w.put_bytes(block_.data(), block_.size());
  block_.clear();
  block_events_ = 0;
}

std::vector<std::uint8_t> TraceWriter::serialize() const {
  std::vector<std::uint8_t> out = buffer_;
  ByteWriter w{out};
  if (block_events_ > 0) {
    std::vector<std::uint8_t> block = block_;
    put_run(block);
    w.put_u32(static_cast<std::uint32_t>(block.size()));
    w.put_u32(block_events_);
    w.put_u32(trace_crc32(block.data(), block.size()));
    w.put_bytes(block.data(), block.size());
  }
  // The end block: a stream cut at a block boundary lacks it.
  w.put_u32(0);
  w.put_u32(0);
  w.put_u32(trace_crc32(nullptr, 0));
  return out;
}

void TraceWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("trace: cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw TraceError("trace: write to '" + path + "' failed");
}

void TraceWriter::on_frame(const mac::Frame& frame, SimTime start, SimTime end) {
  record(ObservationEvent::from_frame(frame, start, end));
}

void TraceWriter::on_carrier(bool busy, SimTime at) {
  ObservationEvent ev;
  ev.kind = ObservationKind::kCarrier;
  ev.at = at;
  ev.rising = busy;
  record(ev);
}

void TraceWriter::on_outage(bool deaf, SimTime at) {
  ObservationEvent ev;
  ev.kind = ObservationKind::kOutage;
  ev.at = at;
  ev.rising = deaf;
  record(ev);
}

MemoryTraceReader::MemoryTraceReader(std::span<const std::uint8_t> bytes) {
  ByteReader stream{bytes.data(), bytes.size()};
  if (stream.get_u32() != kTraceMagic) {
    throw TraceError("trace: bad magic (not an .mtrace stream)");
  }
  {
    const std::uint32_t len = stream.get_u32();
    const std::uint32_t crc = stream.get_u32();
    stream.need(len);
    const std::uint8_t* payload = bytes.data() + stream.pos;
    if (trace_crc32(payload, len) != crc) {
      throw TraceError("trace: header CRC mismatch");
    }
    header_ = parse_header_payload(payload, len);
    stream.pos += len;
  }
  // Walk the block headers first: find the end block, and size the edge
  // vector once. A count is only trusted up to what its payload could
  // hold (every event takes at least one byte), so a forged header cannot
  // size an allocation beyond the stream's own length.
  const std::size_t blocks_at = stream.pos;
  std::size_t total = 0;
  for (;;) {
    if (stream.done()) throw TraceError("trace: truncated stream (no end block)");
    const std::uint32_t len = stream.get_u32();
    const std::uint32_t count = stream.get_u32();
    const std::uint32_t crc = stream.get_u32();
    if (len == 0 && count == 0) {
      if (crc != trace_crc32(nullptr, 0)) {
        throw TraceError("trace: end block CRC mismatch");
      }
      if (!stream.done()) throw TraceError("trace: bytes after the end block");
      break;
    }
    stream.need(len);
    if (count > len) throw TraceError("trace: event count exceeds block payload");
    total += count;
    stream.pos += len;
  }
  const std::size_t blocks_end = stream.pos - kBlockHeaderBytes;
  edge_at_.reserve(total);
  end_time_ = header_.start_time;
  stream.pos = blocks_at;
  while (stream.pos < blocks_end) {
    const std::uint32_t len = stream.get_u32();
    const std::uint32_t count = stream.get_u32();
    const std::uint32_t crc = stream.get_u32();
    const std::uint8_t* payload = bytes.data() + stream.pos;
    if (trace_crc32(payload, len) != crc) {
      throw TraceError("trace: event block CRC mismatch");
    }
    decode_block(payload, len, count);
    stream.pos += len;
  }
}

void MemoryTraceReader::decode_block(const std::uint8_t* payload, std::size_t len,
                                     std::uint32_t count) {
  ByteReader block{payload, len};
  SimTime at = end_time_;
  std::uint32_t left = count;
  while (left > 0) {
    const std::uint8_t kind = block.get_u8();
    if (kind > static_cast<std::uint8_t>(ObservationKind::kMarker)) {
      throw TraceError("trace: unknown event kind " + std::to_string(kind));
    }
    if (kind != static_cast<std::uint8_t>(ObservationKind::kCarrier)) {
      ObservationEvent& ev = events_.emplace_back();
      get_event(block, static_cast<ObservationKind>(kind), ev);
      if (ev.at < at) throw TraceError("trace: event time goes backwards");
      at = ev.at;
      --left;
      continue;
    }
    const std::size_t run_at = block.pos - 1;
    const bool busy = block.get_bool();
    const std::uint64_t n = block.get_varint();
    if (n == 0) throw TraceError("trace: empty carrier run");
    // Each edge takes at least one byte, so this also bounds the loop by
    // the payload still unread.
    if (n > left || n > block.left()) {
      throw TraceError("trace: carrier run exceeds its block");
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t delta = block.get_varint();
      if (delta > time_delta(at, std::numeric_limits<SimTime>::max())) {
        throw TraceError("trace: carrier edge time overflows");
      }
      at = static_cast<SimTime>(static_cast<std::uint64_t>(at) + delta);
      edge_at_.push_back(at);
    }
    runs_.push_back(EdgeRun{events_.size(), edge_at_.size(), busy});
    edge_run_bytes_ += block.pos - run_at;
    left -= static_cast<std::uint32_t>(n);
  }
  if (!block.done()) throw TraceError("trace: trailing bytes in event block");
  end_time_ = at;
}

bool MemoryTraceReader::EventView::iterator::at_edge() const {
  const auto& runs = reader_->runs_;
  return run_ < runs.size() && event_ == runs[run_].events_before;
}

ObservationEvent MemoryTraceReader::EventView::iterator::operator*() const {
  if (!at_edge()) return reader_->events_[event_];
  const auto& runs = reader_->runs_;
  const std::size_t first = run_ == 0 ? 0 : runs[run_ - 1].end;
  ObservationEvent ev;
  ev.kind = ObservationKind::kCarrier;
  ev.at = reader_->edge_at_[edge_];
  ev.rising = runs[run_].busy != ((edge_ - first) % 2 == 1);
  return ev;
}

MemoryTraceReader::EventView::iterator&
MemoryTraceReader::EventView::iterator::operator++() {
  if (!at_edge()) {
    ++event_;
  } else if (++edge_ == reader_->runs_[run_].end) {
    ++run_;
  }
  return *this;
}

namespace {
std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw TraceError("trace: cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw TraceError("trace: read from '" + path + "' failed");
  return bytes;
}
}  // namespace

FileTraceReader::FileTraceReader(const std::string& path)
    : MemoryTraceReader(read_file_bytes(path)) {}

}  // namespace manet::detect
