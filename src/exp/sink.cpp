#include "exp/sink.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace manet::exp {

namespace {

// Buffered JSON writes hit the stream at this size even when no record
// count trigger is configured, bounding sink memory on huge sweeps.
constexpr std::size_t kJsonBufferBytes = 64 * 1024;

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Record& Record::add(const std::string& key, double value) {
  fields_.push_back(Field{key, Value{value}});
  return *this;
}

Record& Record::add(const std::string& key, std::int64_t value) {
  fields_.push_back(Field{key, Value{value}});
  return *this;
}

Record& Record::add(const std::string& key, std::uint64_t value) {
  fields_.push_back(Field{key, Value{value}});
  return *this;
}

Record& Record::add(const std::string& key, bool value) {
  fields_.push_back(Field{key, Value{value}});
  return *this;
}

Record& Record::add(const std::string& key, const std::string& value) {
  fields_.push_back(Field{key, Value{value}});
  return *this;
}

namespace {

/// Appends one value to `out` as a JSON literal.
void append_value(std::string& out, const Record::Value& value) {
  switch (value.index()) {
    case 0: {
      const double d = std::get<double>(value);
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no NaN/Inf
        return;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
      return;
    }
    case 1:
      out += std::to_string(std::get<std::int64_t>(value));
      return;
    case 2:
      out += std::to_string(std::get<std::uint64_t>(value));
      return;
    case 3:
      out += std::get<bool>(value) ? "true" : "false";
      return;
    default:
      out += '"';
      out += json_escape(std::get<std::string>(value));
      out += '"';
  }
}

}  // namespace

std::string Record::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += json_escape(fields_[i].key);
    out += "\": ";
    append_value(out, fields_[i].value);
  }
  out += '}';
  return out;
}

void MemorySink::record(const Record& r) {
  std::lock_guard lock(mutex_);
  records_.push_back(r);
}

std::vector<Record> MemorySink::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

JsonFileSink::JsonFileSink(std::string path, std::size_t flush_records)
    : path_(std::move(path)), flush_records_(flush_records) {
  file_ = std::fopen(path_.c_str(), "w");
  if (!file_) {
    throw std::runtime_error("cannot open JSON sink file: " + path_);
  }
  buffer_ = "[\n";
}

JsonFileSink::~JsonFileSink() {
  std::lock_guard lock(mutex_);
  if (file_) {
    buffer_ += "\n]\n";
    write_buffer_locked();
    std::fclose(file_);
  }
}

void JsonFileSink::record(const Record& r) {
  std::lock_guard lock(mutex_);
  if (!first_) buffer_ += ",\n";
  first_ = false;
  buffer_ += r.to_json();
  ++buffered_records_;
  if (buffer_.size() >= kJsonBufferBytes ||
      (flush_records_ != 0 && buffered_records_ >= flush_records_)) {
    write_buffer_locked();
    if (flush_records_ != 0) std::fflush(file_);
  }
}

void JsonFileSink::flush() {
  std::lock_guard lock(mutex_);
  if (file_) {
    write_buffer_locked();
    std::fflush(file_);
  }
}

void JsonFileSink::write_buffer_locked() {
  if (!buffer_.empty()) {
    std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    buffer_.clear();
  }
  buffered_records_ = 0;
}

}  // namespace manet::exp
