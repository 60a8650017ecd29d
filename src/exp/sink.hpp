// Structured result sinks.
//
// Sweep benches historically printed human tables only; the engine adds a
// machine-readable channel: every sweep point produces one flat Record
// (config + measured rates + wall-clock) that is pushed into a pluggable
// ResultSink. Records store TYPED values (double / int64 / uint64 / bool /
// string) so sinks can pick their own encoding: the JSON sink renders the
// canonical text artifact (one object per record — the BENCH_*.json files
// collected by bench/run_all.sh), the columnar sink (exp/columnar.hpp)
// writes the same records as a compact CRC-framed binary. A record
// round-tripped through either sink renders the identical JSON.
//
// Sinks are thread-safe: trials may record from worker threads, although
// the benches record from the aggregation thread so the record order
// itself stays deterministic.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace manet::exp {

/// Escapes a string for embedding in a JSON string literal (no quotes).
std::string json_escape(const std::string& text);

/// One flat record: an ordered list of key -> typed scalar fields.
class Record {
 public:
  /// Field value. The variant index is the stable on-disk type tag of the
  /// columnar format (exp/columnar.hpp) — append-only, never reorder.
  using Value =
      std::variant<double, std::int64_t, std::uint64_t, bool, std::string>;

  struct Field {
    std::string key;
    Value value;
  };

  Record& add(const std::string& key, double value);
  Record& add(const std::string& key, std::int64_t value);
  Record& add(const std::string& key, std::uint64_t value);
  Record& add(const std::string& key, int value) {
    return add(key, static_cast<std::int64_t>(value));
  }
  Record& add(const std::string& key, unsigned value) {
    return add(key, static_cast<std::uint64_t>(value));
  }
  Record& add(const std::string& key, bool value);
  Record& add(const std::string& key, const std::string& value);
  Record& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }

  /// Renders {"key": value, ...} preserving insertion order. Non-finite
  /// doubles render as null (JSON has no NaN/Inf).
  std::string to_json() const;

  const std::vector<Field>& fields() const { return fields_; }
  bool empty() const { return fields_.empty(); }

 private:
  std::vector<Field> fields_;
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void record(const Record& r) = 0;
  virtual void flush() {}
};

/// Swallows records (benches run with no --json flag).
class NullSink final : public ResultSink {
 public:
  void record(const Record&) override {}
};

/// Appends every record to an in-memory list (tests, ad-hoc tooling).
class MemorySink final : public ResultSink {
 public:
  void record(const Record& r) override;
  std::vector<Record> records() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// Writes a JSON array of record objects to a file, one object per line.
///
/// Writes are buffered: rendered records accumulate in memory and reach
/// the stream when the buffer passes ~64 KiB, when `flush_records` records
/// have been buffered since the last write (0 disables the count trigger),
/// or on an explicit flush(). flush() also fflushes the stream.
class JsonFileSink final : public ResultSink {
 public:
  /// Opens (truncates) `path`; throws std::runtime_error on failure.
  explicit JsonFileSink(std::string path, std::size_t flush_records = 0);
  ~JsonFileSink() override;

  void record(const Record& r) override;
  void flush() override;

  const std::string& path() const { return path_; }

 private:
  void write_buffer_locked();

  std::mutex mutex_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::size_t flush_records_ = 0;
  std::size_t buffered_records_ = 0;
  bool first_ = true;
};

}  // namespace manet::exp
