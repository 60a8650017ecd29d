// Declarative command-line flags for the figure-reproduction benches.
//
// bench::FlagSet wraps util::Config with typed registration: each flag is
// declared once with its type, default, and help text, and parse() then
//   * rejects unknown --flags (util::parse_flags),
//   * eagerly validates every typed flag's value (a bad --alpha=x fails at
//     startup, not minutes into a sweep when the getter first runs),
//   * renders --help from the declarations.
// parse_or_exit() is the main() wrapper: help exits 0, any flag error
// prints "flag error: ..." and exits 1. Typed getters after a successful
// parse cannot throw.
//
// The flag group shared by the sweep benches (--threads/--json) registers
// with one call and comes with its factories (make_engine, make_sink).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/engine.hpp"
#include "exp/sink.hpp"
#include "util/config.hpp"
#include "util/flags.hpp"

namespace manet::bench {

/// Parses a comma-separated list of doubles ("0.3,0.6,0.9"). Rejects
/// malformed entries ("0.3,x", "1.2.3") with util::ConfigError instead of
/// letting std::stod terminate the process.
inline std::vector<double> parse_double_list(const std::string& text) {
  std::vector<double> out;
  std::string token;
  auto flush_token = [&out](const std::string& tok) {
    if (tok.empty()) return;
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(tok, &consumed);
    } catch (const std::exception&) {
      throw util::ConfigError("'" + tok + "' is not a number");
    }
    if (consumed != tok.size()) {
      throw util::ConfigError("'" + tok + "' has trailing characters");
    }
    out.push_back(value);
  };
  for (char c : text) {
    if (c == ',') {
      flush_token(token);
      token.clear();
    } else if (c != ' ' && c != '\t') {
      token.push_back(c);
    }
  }
  flush_token(token);
  return out;
}

/// Parses a comma-separated list of identifiers ("pm50,colluding"): each
/// token must be [A-Za-z0-9_]+; whitespace around tokens is ignored.
/// Rejects anything else with util::ConfigError (strict, like
/// parse_double_list).
inline std::vector<std::string> parse_name_list(const std::string& text) {
  std::vector<std::string> out;
  std::string token;
  auto flush_token = [&out](const std::string& tok) {
    if (tok.empty()) return;
    for (char c : tok) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      if (!ok) {
        throw util::ConfigError("'" + tok + "' is not an identifier");
      }
    }
    out.push_back(tok);
  };
  for (char c : text) {
    if (c == ',') {
      flush_token(token);
      token.clear();
    } else if (c != ' ' && c != '\t') {
      token.push_back(c);
    }
  }
  flush_token(token);
  return out;
}

class FlagSet {
 public:
  explicit FlagSet(std::string description)
      : description_(std::move(description)) {}

  // --- typed registration (chainable) ---------------------------------------

  FlagSet& add_string(const std::string& name, const std::string& default_value,
                      const std::string& help) {
    declare(name, default_value, help, Kind::kString);
    return *this;
  }

  FlagSet& add_int(const std::string& name, long long default_value,
                   const std::string& help) {
    declare(name, std::to_string(default_value), help, Kind::kInt);
    return *this;
  }

  FlagSet& add_double(const std::string& name, double default_value,
                      const std::string& help) {
    declare(name, format_double(default_value), help, Kind::kDouble);
    return *this;
  }

  /// A count such as a sample size: parse() rejects non-integers and
  /// values outside [1, 1e9].
  FlagSet& add_count(const std::string& name, long long default_value,
                     const std::string& help) {
    declare(name, std::to_string(default_value), help, Kind::kCount);
    return *this;
  }

  /// Comma-separated counts ("10,25,50,100"), each checked like
  /// add_count; read back with get_double_list.
  FlagSet& add_count_list(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
    declare(name, default_value, help, Kind::kCountList);
    return *this;
  }

  /// Comma-separated doubles; the default is given in flag syntax ("5,10,25").
  FlagSet& add_double_list(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
    declare(name, default_value, help, Kind::kDoubleList);
    return *this;
  }

  /// Comma-separated identifiers ([A-Za-z0-9_]+).
  FlagSet& add_name_list(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
    declare(name, default_value, help, Kind::kNameList);
    return *this;
  }

  /// The experiment-engine flags every sweep bench shares.
  FlagSet& add_engine_flags() {
    add_int("threads", 0,
            "worker threads for trial fan-out (0 = all hardware threads)");
    add_string("json", "", "write one JSON record per sweep point to this file");
    has_engine_flags_ = true;
    return *this;
  }

  /// Just --json, for single-run benches that don't fan out trials.
  FlagSet& add_json_flag(const std::string& help =
                             "write one JSON record per result to this file") {
    add_string("json", "", help);
    return *this;
  }

  // --- parsing --------------------------------------------------------------

  /// Parses --key=value flags and eagerly validates every registered flag.
  /// Returns true when --help was passed. Throws util::ConfigError on
  /// unknown flags or values that fail their declared type.
  bool parse(int argc, char** argv) {
    const auto parsed = util::parse_flags(argc, argv, config_);
    if (parsed.help) return true;
    validate();
    return false;
  }

  /// parse() for main(): --help prints the flag table and exits 0; any flag
  /// error prints "flag error: ..." to stderr and exits 1.
  void parse_or_exit(int argc, char** argv) {
    try {
      if (parse(argc, argv)) {
        std::printf("%s\n\nFlags (--key=value):\n%s", description_.c_str(),
                    config_.render().c_str());
        std::exit(0);
      }
    } catch (const util::ConfigError& e) {
      std::fprintf(stderr, "flag error: %s\n", e.what());
      std::exit(1);
    }
  }

  // --- typed getters (cannot throw after a successful parse) ----------------

  const std::string& get(const std::string& name) const {
    return config_.get(name);
  }

  double get_double(const std::string& name) const {
    return config_.get_double(name);
  }

  long long get_int(const std::string& name) const {
    return config_.get_int(name);
  }

  std::vector<double> get_double_list(const std::string& name) const {
    return parse_double_list(config_.get(name));
  }

  std::vector<std::string> get_name_list(const std::string& name) const {
    return parse_name_list(config_.get(name));
  }

  // --- registered-group factories -------------------------------------------

  /// The --threads trial-fan-out engine (requires add_engine_flags()).
  exp::Engine make_engine() const {
    return exp::Engine(static_cast<unsigned>(config_.get_int("threads")));
  }

  /// The --json sink (NullSink when the flag is empty).
  std::shared_ptr<exp::ResultSink> make_sink() const {
    const std::string& path = config_.get("json");
    if (path.empty()) return std::make_shared<exp::NullSink>();
    try {
      return std::make_shared<exp::JsonFileSink>(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flag error: --json: %s\n", e.what());
      std::exit(1);
    }
  }

  /// The underlying store, for benches that render or forward it wholesale
  /// (table1_parameters prints the full declaration table).
  util::Config& config() { return config_; }
  const util::Config& config() const { return config_; }

 private:
  enum class Kind {
    kString, kInt, kCount, kDouble, kDoubleList, kCountList, kNameList
  };

  /// Largest accepted count: far beyond any sample size that fits in
  /// memory, and small enough that the cast to std::size_t is exact.
  static constexpr double kMaxCount = 1e9;

  static void check_count(double value) {
    if (!(value >= 1.0) || value > kMaxCount || value != std::floor(value)) {
      throw util::ConfigError("must be an integer in [1, 1e9]");
    }
  }

  void declare(const std::string& name, const std::string& default_value,
               const std::string& help, Kind kind) {
    config_.declare(name, default_value, help);
    typed_.emplace_back(name, kind);
  }

  static std::string format_double(double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", value);
    return buf;
  }

  /// Re-parses every registered flag so type errors surface at startup with
  /// the flag name attached.
  void validate() const {
    for (const auto& [name, kind] : typed_) {
      try {
        switch (kind) {
          case Kind::kString:
            break;
          case Kind::kInt:
            config_.get_int(name);
            break;
          case Kind::kCount:
            check_count(static_cast<double>(config_.get_int(name)));
            break;
          case Kind::kDouble:
            config_.get_double(name);
            break;
          case Kind::kDoubleList:
            parse_double_list(config_.get(name));
            break;
          case Kind::kCountList:
            for (double v : parse_double_list(config_.get(name))) check_count(v);
            break;
          case Kind::kNameList:
            parse_name_list(config_.get(name));
            break;
        }
      } catch (const util::ConfigError& e) {
        throw util::ConfigError("--" + name + ": " + e.what());
      }
    }
    if (has_engine_flags_ && config_.get_int("threads") < 0) {
      throw util::ConfigError("--threads must be >= 0");
    }
  }

  util::Config config_;
  std::string description_;
  std::vector<std::pair<std::string, Kind>> typed_;
  bool has_engine_flags_ = false;
};

}  // namespace manet::bench
