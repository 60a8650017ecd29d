// Binary columnar result artifacts (.mcol) — the high-rate sink.
//
// The JSON sink renders every field with snprintf and repeats every key in
// every record; at hundreds of thousands of records (the all-pairs
// workload's per-window verdict log) the sink becomes the bottleneck and
// the artifact dwarfs the data in it. The columnar sink writes the SAME
// exp::Record stream as a compact, CRC-framed, little-endian binary that
// round-trips records exactly: reconstructing the records and rendering
// them with Record::to_json reproduces the JSON artifact byte for byte.
//
// Layout (all integers little-endian, "varu" = LEB128, "str" = varu length
// + bytes, "vari" = zigzag LEB128):
//
//   file   := [u32 magic 'MCOL'] block*
//   block  := [u8 kind] [u32 payload_len] [u32 crc32(payload)] payload
//   kind 0 := header: u32 version(=1), u32 meta_count,
//             meta_count x (str key, str value)
//   kind 1 := schema: u32 schema_id, u32 field_count,
//             field_count x (str key, u8 type)       -- type = Value index
//   kind 2 := data:   u32 schema_id, u32 record_count,
//             record_count x varu cell_index,
//             then one column per schema field, record-count entries each:
//               double -> raw 8-byte IEEE754 (exact round-trip)
//               int64  -> vari        uint64 -> varu       bool -> u8
//               string -> varu dict_size, dict_size x str, varu ref x N
//
// A schema block is emitted the first time a record shape (ordered keys +
// types) appears; data blocks hold up to kBlockRecords records of one
// schema and close early on a schema change or an explicit flush().
//
// The header meta names the generating sweep, its total cell count, and
// this file's [cell_begin, cell_end) cell range. The reader validates
// magic, version, every CRC, schema references, and that cell indices are
// non-decreasing and inside the declared range. It checks every length it
// reads against the bytes that remain before allocating from it, so a
// hostile file costs at most memory proportional to its size; any
// violation throws std::runtime_error with the defect named.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/sink.hpp"

namespace manet::exp {

struct ColumnarMeta {
  /// Fingerprint of the generating sweep (bench name + every
  /// content-affecting setting).
  std::string sweep;
  std::string bench;
  std::string shard = "0/1";  // "i/N", informational
  std::uint64_t total_cells = 0;
  std::uint64_t cell_begin = 0;
  std::uint64_t cell_end = 0;
  /// Free-form extra key/value pairs.
  std::vector<std::pair<std::string, std::string>> extra;
};

class ColumnarFileSink final : public ResultSink {
 public:
  static constexpr std::size_t kBlockRecords = 512;

  /// Opens (truncates) `path` and writes the header block.
  ColumnarFileSink(std::string path, ColumnarMeta meta);

  ~ColumnarFileSink() override;

  /// Stamps subsequent records with this cell index (call it before
  /// emitting a cell's records).
  void begin_cell(std::uint64_t cell) { cell_ = cell; }

  void record(const Record& r) override;
  void flush() override;  // closes the open data block, fflushes

  const std::string& path() const { return path_; }
  const ColumnarMeta& meta() const { return meta_; }

 private:
  void write_header();
  void ensure_schema(const Record& r);
  void close_block();
  void write_block(std::uint8_t kind, const std::vector<std::uint8_t>& payload);

  std::string path_;
  ColumnarMeta meta_;
  std::FILE* file_ = nullptr;
  std::uint64_t cell_ = 0;

  // Registered schemas: signature -> id, in registration order.
  std::vector<std::pair<std::string, std::uint32_t>> schemas_;

  // The open data block, encoded column-wise as records arrive.
  struct StringColumn {
    std::vector<std::string> dict;       // insertion order
    std::vector<std::uint32_t> refs;
  };
  std::uint32_t block_schema_id_ = 0;
  std::vector<std::string> schema_keys_;   // current schema, field order
  std::vector<std::uint8_t> schema_types_;
  std::vector<std::uint64_t> cells_;
  std::vector<std::vector<std::uint8_t>> scalar_columns_;  // raw/varint/bool
  std::vector<StringColumn> string_columns_;               // parallel, by field
  std::size_t block_records_ = 0;
};

/// A fully validated .mcol file: its meta and every (cell, record) pair
/// in file order.
struct ColumnarFile {
  ColumnarMeta meta;
  std::vector<std::pair<std::uint64_t, Record>> records;
};

/// Reads and fully validates `path` (magic, version, CRC framing, schema
/// references, declared cell range, cell monotonicity). Throws
/// std::runtime_error naming the defect on any violation.
ColumnarFile read_columnar_file(const std::string& path);

}  // namespace manet::exp
