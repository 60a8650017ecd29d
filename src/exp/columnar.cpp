#include "exp/columnar.hpp"

#include <charconv>
#include <cstring>
#include <stdexcept>

#include "util/crc32.hpp"

namespace manet::exp {

namespace {

constexpr std::uint8_t kKindHeader = 0;
constexpr std::uint8_t kKindSchema = 1;
constexpr std::uint8_t kKindData = 2;
constexpr std::uint32_t kVersion = 1;
constexpr char kMagic[4] = {'M', 'C', 'O', 'L'};

// Meta keys with ColumnarMeta fields; everything else in the header is
// free-form.
constexpr const char* kMetaSweep = "sweep";
constexpr const char* kMetaBench = "bench";
constexpr const char* kMetaShard = "shard";
constexpr const char* kMetaTotalCells = "total_cells";
constexpr const char* kMetaCellBegin = "cell_begin";
constexpr const char* kMetaCellEnd = "cell_end";

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_varu(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_vari(std::vector<std::uint8_t>& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  put_varu(out, (u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_varu(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

void put_f64(std::vector<std::uint8_t>& out, double d) {
  static_assert(sizeof d == 8);
  const std::size_t n = out.size();
  out.resize(n + 8);  // host order is little-endian on every target
  std::memcpy(out.data() + n, &d, 8);
}

/// Bounds-checked cursor over a parsed payload; every overrun throws.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size, std::string where)
      : data_(data), size_(size), where_(std::move(where)) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(where_ + ": " + what);
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

  /// The next `n` bytes, in place.
  const std::uint8_t* take(std::uint64_t n) {
    need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += static_cast<std::size_t>(n);
    return p;
  }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                      static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                      static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                      static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return v;
  }

  std::uint64_t varu() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) return v;
    }
    fail("varint longer than 64 bits");
  }

  std::int64_t vari() {
    const std::uint64_t u = varu();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  std::string str() {
    const std::uint64_t len = varu();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  double f64() {
    need(8);
    double d;
    std::memcpy(&d, data_ + pos_, 8);
    pos_ += 8;
    return d;
  }

 private:
  void need(std::uint64_t n) const {
    if (n > size_ - pos_) fail("payload truncated");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string where_;
};

std::string schema_signature(const Record& r) {
  std::string sig;
  for (const auto& f : r.fields()) {
    sig += static_cast<char>('0' + f.value.index());
    sig += f.key;
    sig += '\0';
  }
  return sig;
}

std::string meta_u64(std::uint64_t v) { return std::to_string(v); }

/// Inverse of meta_u64: the whole value must be a decimal u64.
std::uint64_t parse_meta_u64(const Cursor& body, const std::string& key,
                             const std::string& value) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc() || ptr != end) {
    body.fail("header value of '" + key + "' is not an unsigned integer");
  }
  return v;
}

}  // namespace

ColumnarFileSink::ColumnarFileSink(std::string path, ColumnarMeta meta)
    : path_(std::move(path)), meta_(std::move(meta)), cell_(meta_.cell_begin) {
  file_ = std::fopen(path_.c_str(), "wb");
  if (!file_) {
    throw std::runtime_error("cannot open columnar sink file: " + path_);
  }
  std::fwrite(kMagic, 1, 4, file_);
  write_header();
}

ColumnarFileSink::~ColumnarFileSink() {
  if (file_) {
    close_block();
    std::fclose(file_);
  }
}

void ColumnarFileSink::write_header() {
  std::vector<std::uint8_t> payload;
  put_u32(payload, kVersion);
  std::vector<std::pair<std::string, std::string>> meta;
  meta.emplace_back(kMetaSweep, meta_.sweep);
  meta.emplace_back(kMetaBench, meta_.bench);
  meta.emplace_back(kMetaShard, meta_.shard);
  meta.emplace_back(kMetaTotalCells, meta_u64(meta_.total_cells));
  meta.emplace_back(kMetaCellBegin, meta_u64(meta_.cell_begin));
  meta.emplace_back(kMetaCellEnd, meta_u64(meta_.cell_end));
  for (const auto& kv : meta_.extra) meta.push_back(kv);
  put_u32(payload, static_cast<std::uint32_t>(meta.size()));
  for (const auto& [k, v] : meta) {
    put_str(payload, k);
    put_str(payload, v);
  }
  write_block(kKindHeader, payload);
}

void ColumnarFileSink::ensure_schema(const Record& r) {
  const auto& fields = r.fields();
  // Fast path: the record matches the open block's schema.
  if (block_records_ != 0 || !schema_keys_.empty()) {
    bool same = fields.size() == schema_keys_.size();
    for (std::size_t i = 0; same && i < fields.size(); ++i) {
      same = fields[i].value.index() == schema_types_[i] &&
             fields[i].key == schema_keys_[i];
    }
    if (same) return;
    close_block();
  }

  // Register (or look up) the schema and start a fresh block for it.
  const std::string sig = schema_signature(r);
  std::uint32_t id = 0;
  bool found = false;
  for (const auto& [s, existing_id] : schemas_) {
    if (s == sig) {
      id = existing_id;
      found = true;
      break;
    }
  }
  if (!found) {
    id = static_cast<std::uint32_t>(schemas_.size());
    schemas_.emplace_back(sig, id);
    std::vector<std::uint8_t> payload;
    put_u32(payload, id);
    put_u32(payload, static_cast<std::uint32_t>(fields.size()));
    for (const auto& f : fields) {
      put_str(payload, f.key);
      payload.push_back(static_cast<std::uint8_t>(f.value.index()));
    }
    write_block(kKindSchema, payload);
  }

  block_schema_id_ = id;
  schema_keys_.clear();
  schema_types_.clear();
  for (const auto& f : fields) {
    schema_keys_.push_back(f.key);
    schema_types_.push_back(static_cast<std::uint8_t>(f.value.index()));
  }
  scalar_columns_.assign(fields.size(), {});
  string_columns_.assign(fields.size(), {});
  cells_.reserve(kBlockRecords);
  for (auto& c : scalar_columns_) c.reserve(kBlockRecords * 8);
}

void ColumnarFileSink::record(const Record& r) {
  if (r.fields().empty()) return;  // nothing to column-ize
  ensure_schema(r);
  cells_.push_back(cell_);
  const auto& fields = r.fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Record::Value& v = fields[i].value;
    switch (v.index()) {
      case 0:
        put_f64(scalar_columns_[i], std::get<double>(v));
        break;
      case 1:
        put_vari(scalar_columns_[i], std::get<std::int64_t>(v));
        break;
      case 2:
        put_varu(scalar_columns_[i], std::get<std::uint64_t>(v));
        break;
      case 3:
        scalar_columns_[i].push_back(std::get<bool>(v) ? 1 : 0);
        break;
      default: {
        StringColumn& col = string_columns_[i];
        const std::string& s = std::get<std::string>(v);
        std::uint32_t ref = 0;
        bool found = false;
        for (std::uint32_t j = 0; j < col.dict.size(); ++j) {
          if (col.dict[j] == s) {
            ref = j;
            found = true;
            break;
          }
        }
        if (!found) {
          ref = static_cast<std::uint32_t>(col.dict.size());
          col.dict.push_back(s);
        }
        col.refs.push_back(ref);
      }
    }
  }
  if (++block_records_ >= kBlockRecords) close_block();
}

void ColumnarFileSink::close_block() {
  if (block_records_ == 0) return;
  std::vector<std::uint8_t> payload;
  put_u32(payload, block_schema_id_);
  put_u32(payload, static_cast<std::uint32_t>(block_records_));
  for (std::uint64_t c : cells_) put_varu(payload, c);
  for (std::size_t i = 0; i < schema_types_.size(); ++i) {
    if (schema_types_[i] == 4) {
      const StringColumn& col = string_columns_[i];
      put_varu(payload, col.dict.size());
      for (const std::string& s : col.dict) put_str(payload, s);
      for (std::uint32_t ref : col.refs) put_varu(payload, ref);
    } else {
      payload.insert(payload.end(), scalar_columns_[i].begin(),
                     scalar_columns_[i].end());
    }
  }
  write_block(kKindData, payload);

  cells_.clear();
  for (auto& c : scalar_columns_) c.clear();
  for (auto& c : string_columns_) {
    c.dict.clear();
    c.refs.clear();
  }
  block_records_ = 0;
}

void ColumnarFileSink::write_block(std::uint8_t kind,
                                   const std::vector<std::uint8_t>& payload) {
  std::uint8_t head[9];
  head[0] = kind;
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  std::memcpy(head + 1, &len, 4);
  std::memcpy(head + 5, &crc, 4);
  std::fwrite(head, 1, sizeof head, file_);
  if (!payload.empty()) {
    std::fwrite(payload.data(), 1, payload.size(), file_);
  }
}

void ColumnarFileSink::flush() {
  close_block();
  std::fflush(file_);
}

ColumnarFile read_columnar_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in) {
    throw std::runtime_error("cannot open columnar file: " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) bytes.append(buf, n);
  std::fclose(in);

  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  Cursor cur(data, bytes.size(), "columnar file " + path);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(cur.u8());
  if (std::memcmp(magic, kMagic, 4) != 0) {
    cur.fail("bad magic (not a .mcol file)");
  }

  ColumnarFile out;
  bool saw_header = false;
  // schema id -> ordered (key, type)
  std::vector<std::vector<std::pair<std::string, std::uint8_t>>> schemas;
  std::uint64_t last_cell = 0;
  bool any_cell = false;

  while (!cur.done()) {
    const std::uint8_t kind = cur.u8();
    const std::uint32_t len = cur.u32();
    const std::uint32_t crc = cur.u32();
    const std::uint8_t* payload = cur.take(len);
    if (util::crc32(payload, len) != crc) {
      cur.fail("CRC mismatch (corrupt block)");
    }
    Cursor body(payload, len, "columnar file " + path + " block");

    if (kind == kKindHeader) {
      if (saw_header) body.fail("duplicate header block");
      if (body.u32() != kVersion) body.fail("unsupported version");
      const std::uint32_t count = body.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::string key = body.str();
        const std::string value = body.str();
        const auto u64 = [&] { return parse_meta_u64(body, key, value); };
        if (key == kMetaSweep) out.meta.sweep = value;
        else if (key == kMetaBench) out.meta.bench = value;
        else if (key == kMetaShard) out.meta.shard = value;
        else if (key == kMetaTotalCells) out.meta.total_cells = u64();
        else if (key == kMetaCellBegin) out.meta.cell_begin = u64();
        else if (key == kMetaCellEnd) out.meta.cell_end = u64();
        else out.meta.extra.emplace_back(key, value);
      }
      if (!body.done()) body.fail("trailing bytes in header block");
      saw_header = true;
      continue;
    }
    if (!saw_header) cur.fail("first block is not a header");

    if (kind == kKindSchema) {
      const std::uint32_t id = body.u32();
      if (id != schemas.size()) body.fail("schema ids out of order");
      const std::uint32_t fields = body.u32();
      std::vector<std::pair<std::string, std::uint8_t>> schema;
      for (std::uint32_t i = 0; i < fields; ++i) {
        std::string key = body.str();
        const std::uint8_t type = body.u8();
        if (type > 4) body.fail("unknown field type " + std::to_string(type));
        schema.emplace_back(std::move(key), type);
      }
      if (!body.done()) body.fail("trailing bytes in schema block");
      schemas.push_back(std::move(schema));
      continue;
    }
    if (kind != kKindData) {
      cur.fail("unknown block kind " + std::to_string(kind));
    }

    const std::uint32_t schema_id = body.u32();
    if (schema_id >= schemas.size()) {
      body.fail("data block references unknown schema " +
                std::to_string(schema_id));
    }
    const auto& schema = schemas[schema_id];
    const std::uint32_t count = body.u32();
    if (count == 0) body.fail("empty data block");
    // Every record takes at least one byte for its cell and one per field,
    // so the block's remaining bytes bound the count before anything is
    // allocated from it.
    if (count > body.remaining() / (1 + schema.size())) {
      body.fail("record count " + std::to_string(count) +
                " exceeds what the block can hold");
    }

    std::vector<std::uint64_t> cells(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      cells[i] = body.varu();
      if (cells[i] < out.meta.cell_begin || cells[i] >= out.meta.cell_end) {
        body.fail("cell " + std::to_string(cells[i]) +
                  " outside the declared range [" +
                  std::to_string(out.meta.cell_begin) + ", " +
                  std::to_string(out.meta.cell_end) + ")");
      }
      if (any_cell && cells[i] < last_cell) {
        body.fail("cell indices go backwards (" + std::to_string(cells[i]) +
                  " after " + std::to_string(last_cell) + ")");
      }
      last_cell = cells[i];
      any_cell = true;
    }

    const std::size_t base = out.records.size();
    out.records.resize(base + count);
    for (std::uint32_t i = 0; i < count; ++i) {
      out.records[base + i].first = cells[i];
    }
    for (const auto& [key, type] : schema) {
      switch (type) {
        case 0:
          for (std::uint32_t i = 0; i < count; ++i) {
            out.records[base + i].second.add(key, body.f64());
          }
          break;
        case 1:
          for (std::uint32_t i = 0; i < count; ++i) {
            out.records[base + i].second.add(key, body.vari());
          }
          break;
        case 2:
          for (std::uint32_t i = 0; i < count; ++i) {
            out.records[base + i].second.add(key, body.varu());
          }
          break;
        case 3:
          for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint8_t b = body.u8();
            if (b > 1) body.fail("bool column byte out of range");
            out.records[base + i].second.add(key, b == 1);
          }
          break;
        default: {
          const std::uint64_t dict_size = body.varu();
          // Each entry takes at least its one-byte length.
          if (dict_size > body.remaining()) {
            body.fail("string dictionary size exceeds the block's bytes");
          }
          std::vector<std::string> dict;
          dict.reserve(static_cast<std::size_t>(dict_size));
          for (std::uint64_t i = 0; i < dict_size; ++i) dict.push_back(body.str());
          for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint64_t ref = body.varu();
            if (ref >= dict.size()) {
              body.fail("string dictionary ref out of range");
            }
            out.records[base + i].second.add(key, dict[ref]);
          }
        }
      }
    }
    if (!body.done()) body.fail("trailing bytes in data block");
  }

  if (!saw_header) cur.fail("missing header block (empty or truncated file)");
  return out;
}

}  // namespace manet::exp
