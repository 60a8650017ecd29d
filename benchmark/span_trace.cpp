#include "span_trace.hpp"

#include <cstdio>
#include <stdexcept>

#include "exp/sink.hpp"

namespace manet::benchmark {

int SpanTrace::open(const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_ns(), -1, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanTrace::close(int id) {
  if (id < 0) return;
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("span closed out of order: " + spans_[id].name);
  }
  spans_[id].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<std::int64_t> SpanTrace::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

std::vector<int> SpanTrace::roots() const {
  // Parents precede their children, so one forward pass resolves roots.
  std::vector<int> root(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    root[i] = spans_[i].parent < 0 ? static_cast<int>(i) : root[spans_[i].parent];
  }
  return root;
}

void SpanTrace::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const std::vector<std::int64_t> self = self_ns();
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"self_ns\": %lld}%s\n",
                 i, exp::json_escape(s.name).c_str(), s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]), i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace manet::benchmark
