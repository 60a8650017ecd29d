// A small typed key/value configuration store.
//
// Benches and examples accept overrides on the command line
// (--key=value); ScenarioConfig (src/net) consumes them. The store keeps
// declared keys with defaults so `--help` can print the full table —
// this is also how bench/table1_parameters reproduces the paper's Table 1.
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace manet::util {

class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Config {
 public:
  /// Declares a key with a default value and a human-readable description.
  void declare(const std::string& key, const std::string& default_value,
               const std::string& description);

  /// Sets a value; the key must have been declared.
  void set(const std::string& key, const std::string& value);

  /// True if the key was declared.
  bool has(const std::string& key) const;

  /// Raw string value (throws ConfigError for undeclared keys).
  const std::string& get(const std::string& key) const;

  double get_double(const std::string& key) const;
  long long get_int(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  const std::string& description(const std::string& key) const;

  /// Formats "key = value  # description" lines for every declared key.
  std::string render() const;

 private:
  struct Entry {
    std::string value;
    std::string description;
  };
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

}  // namespace manet::util
