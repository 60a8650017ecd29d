#include "util/config.hpp"

#include <sstream>
#include <stdexcept>

namespace manet::util {

void Config::declare(const std::string& key, const std::string& default_value,
                     const std::string& description) {
  auto [it, inserted] = entries_.emplace(key, Entry{default_value, description});
  if (inserted) {
    order_.push_back(key);
  } else {
    it->second = Entry{default_value, description};
  }
}

void Config::set(const std::string& key, const std::string& value) {
  auto it = entries_.find(key);
  if (it == entries_.end()) throw ConfigError("unknown config key: " + key);
  it->second.value = value;
}

bool Config::has(const std::string& key) const { return entries_.count(key) != 0; }

const std::string& Config::get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) throw ConfigError("unknown config key: " + key);
  return it->second.value;
}

double Config::get_double(const std::string& key) const {
  const std::string& v = get(key);
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) throw ConfigError("trailing characters in double for " + key);
    return d;
  } catch (const std::invalid_argument&) {
    throw ConfigError("not a double: " + key + "=" + v);
  }
}

long long Config::get_int(const std::string& key) const {
  const std::string& v = get(key);
  try {
    std::size_t pos = 0;
    const long long i = std::stoll(v, &pos);
    if (pos != v.size()) throw ConfigError("trailing characters in int for " + key);
    return i;
  } catch (const std::invalid_argument&) {
    throw ConfigError("not an int: " + key + "=" + v);
  } catch (const std::out_of_range&) {
    throw ConfigError("int out of range: " + key + "=" + v);
  }
}

bool Config::get_bool(const std::string& key) const {
  const std::string& v = get(key);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw ConfigError("not a bool: " + key + "=" + v);
}

const std::string& Config::description(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) throw ConfigError("unknown config key: " + key);
  return it->second.description;
}

std::string Config::render() const {
  std::ostringstream out;
  for (const auto& key : order_) {
    const Entry& e = entries_.at(key);
    out << key << " = " << e.value;
    if (!e.description.empty()) out << "  # " << e.description;
    out << "\n";
  }
  return out.str();
}

}  // namespace manet::util
