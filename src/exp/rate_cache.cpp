#include "exp/rate_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "net/network.hpp"

namespace manet::exp {

namespace {

/// RAII advisory lock on a dedicated lock file. `ok()` is false when the
/// lock file could not be created.
class FileLock {
 public:
  explicit FileLock(const std::string& path) {
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0) ::flock(fd_, LOCK_EX);
  }
  ~FileLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  bool ok() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// The whole file, or "" when it cannot be opened.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Writes `value` to `path` via unique temp + fsync + rename. Returns
/// false on any failure.
bool write_file_atomic(const std::string& path, const std::string& value) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (!out) return false;
  bool ok = value.empty() ||
            std::fwrite(value.data(), 1, value.size(), out) == value.size();
  ok = ok && std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
  std::fclose(out);
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

std::string format_load(double load) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", load);
  return buf;
}

/// "measured busy fraction 0.822, saturated" for the calibration lines.
std::string describe(const net::CalibrationResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "measured busy fraction %.3f%s",
                r.measured_busy_fraction, r.saturated ? ", saturated" : "");
  return buf;
}

/// Reads one cache line into `result` when it stores `fingerprint` at
/// `load_text`. A line counts only when it is exactly "<fingerprint>
/// <load> <rate> <busy> <saturated>" with a finite rate > 0, a busy
/// fraction in [0, 1] and a 0/1 flag. Any other line is skipped, so its
/// load is calibrated afresh.
bool parse_entry(const std::string& line, const std::string& fingerprint,
                 const std::string& load_text, net::CalibrationResult* result) {
  std::istringstream fields(line);
  std::string fp, load, rate_text, busy_text, flag;
  if (!(fields >> fp >> load >> rate_text >> busy_text >> flag) ||
      !(fields >> std::ws).eof() || fp != fingerprint || load != load_text ||
      (flag != "0" && flag != "1")) {
    return false;
  }
  const auto number = [](const std::string& text, double* out) {
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
  };
  double rate = 0.0, busy = 0.0;
  if (!number(rate_text, &rate) || !std::isfinite(rate) || !(rate > 0.0) ||
      !number(busy_text, &busy) || !(busy >= 0.0 && busy <= 1.0)) {
    return false;
  }
  *result = {.packets_per_second = rate,
             .measured_busy_fraction = busy,
             .saturated = flag == "1"};
  return true;
}

/// The flow layout every detection bench calibrates against: one flow at
/// the monitored center pair plus the configured random background flows.
void default_setup(net::Network& net) {
  const NodeId s = net.center_node();
  const auto nbrs = net.neighbors(s, net.config().prop.tx_range_m, 0);
  if (!nbrs.empty()) net.add_flow(s, nbrs.front(), 1.0);
  net.build_random_flows();
}

/// Folds every scenario field that changes the load <-> rate mapping into
/// a single token (calibration probes depend on topology, traffic shape,
/// mobility, MAC timing, propagation, impairments, the probe timeline's
/// retention budget and the seed of the probe run).
std::string scenario_fingerprint(const net::ScenarioConfig& s) {
  std::ostringstream out;
  out.precision(17);
  const mac::DcfParams& m = s.mac;
  const phy::PropagationParams& p = s.prop;
  const phy::FaultPlan& f = s.faults;
  out << "v3"
      << "|topo=" << static_cast<int>(s.topology) << ":" << s.grid_rows << "x"
      << s.grid_cols << ":" << s.grid_spacing_m << ":" << s.random_nodes << ":"
      << s.area_width_m << "x" << s.area_height_m
      << "|mob=" << static_cast<int>(s.mobility) << ":" << s.min_speed_mps << "-"
      << s.max_speed_mps << ":" << s.pause_s
      << "|tfc=" << static_cast<int>(s.traffic) << ":" << s.payload_bytes << ":"
      << s.num_flows
      << "|rt=" << static_cast<int>(s.routing) << ":"
      << static_cast<int>(s.flow_pattern)
      << "|seed=" << s.seed
      << "|mac=" << m.slot_time << ":" << m.sifs << ":" << m.difs << ":"
      << m.cw_min << ":" << m.cw_max << ":" << m.retry_limit << ":"
      << m.basic_rate_bps << ":" << m.data_rate_bps << ":" << m.plcp_overhead
      << ":" << m.rts_bytes << ":" << m.cts_bytes << ":" << m.ack_bytes << ":"
      << m.data_header_bytes << ":" << m.queue_capacity << ":" << m.use_eifs
      << ":" << m.seq_off_modulo
      << "|phy=" << p.tx_power_dbm << ":" << p.path_loss_exponent << ":"
      << p.shadowing_sigma_db << ":" << p.reference_distance_m << ":"
      << p.reference_loss_db << ":" << p.tx_range_m << ":" << p.cs_range_m
      << ":" << p.capture_threshold_db
      << "|flt=" << f.loss_probability << ":" << f.corrupt_probability << ":"
      << f.gilbert_elliott << ":" << f.ge_p_good_to_bad << ":"
      << f.ge_p_bad_to_good << ":" << f.ge_loss_good << ":" << f.ge_loss_bad
      << ":" << f.seed << ":";
  for (const phy::FaultPlan::Outage& o : f.outages) {
    out << o.node << "@" << o.start << "-" << o.stop << ",";
  }
  out << "|tl=" << s.timeline_retention_s << ":" << s.timeline_max_transitions;
  return out.str();
}

}  // namespace

bool atomic_file_update(
    const std::string& path,
    const std::function<std::string(const std::string&)>& update) {
  FileLock lock(path + ".lock");
  if (!lock.ok()) return false;
  return write_file_atomic(path, update(read_file(path)));
}

RateCache::RateCache(net::ScenarioConfig scenario, std::string cache_file,
                     Calibrator calibrate)
    : scenario_(std::move(scenario)),
      fingerprint_(scenario_fingerprint(scenario_)),
      cache_file_(std::move(cache_file)),
      calibrate_(std::move(calibrate)) {
  if (cache_file_.empty()) {
    if (const char* env = std::getenv("MANET_RATE_CACHE")) cache_file_ = env;
  }
  if (!calibrate_) {
    calibrate_ = [](const net::ScenarioConfig& s, double load) {
      return net::calibrate_load(s, load, default_setup);
    };
  }
}

RateCache::Slot& RateCache::slot_for(double load) {
  std::lock_guard lock(mutex_);
  auto& slot = slots_[load];
  if (!slot) slot = std::make_unique<Slot>();
  return *slot;
}

const net::CalibrationResult& RateCache::calibration_for(double load) {
  Slot& slot = slot_for(load);
  std::call_once(slot.once, [&] {
    if (file_lookup(load, &slot.result)) {
      std::printf("# calibrated load %.2f -> %.2f pkt/s per flow (rate cache, %s)\n",
                  load, slot.result.packets_per_second, describe(slot.result).c_str());
      std::fflush(stdout);
      return;
    }
    slot.result = calibrate_(scenario_, load);
    std::printf("# calibrated load %.2f -> %.2f pkt/s per flow (%s, %d probe runs)\n",
                load, slot.result.packets_per_second, describe(slot.result).c_str(),
                slot.result.probe_runs);
    std::fflush(stdout);
    file_store(load, slot.result);
  });
  return slot.result;
}

bool RateCache::file_lookup(double load, net::CalibrationResult* result) const {
  if (cache_file_.empty()) return false;
  std::ifstream in(cache_file_);
  if (!in) return false;
  const std::string want_load = format_load(load);
  std::string line;
  while (std::getline(in, line)) {
    if (parse_entry(line, fingerprint_, want_load, result)) return true;
  }
  return false;
}

void RateCache::file_store(double load, const net::CalibrationResult& result) const {
  if (cache_file_.empty()) return;
  // Concurrent bench processes may store entries at the same time; a
  // plain append can interleave partial lines. Rewrite the file atomically
  // under an advisory lock, merging our entry into whatever the file holds
  // by then — the cache is best-effort, so a failure to lock or write just
  // means this calibration is not shared.
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.17g %.17g %d", result.packets_per_second,
                result.measured_busy_fraction, result.saturated ? 1 : 0);
  const std::string load_text = format_load(load);
  const std::string entry = fingerprint_ + " " + load_text + " " + buf + "\n";
  atomic_file_update(cache_file_, [&](const std::string& current) {
    std::istringstream in(current);
    std::string line;
    net::CalibrationResult stored;
    while (std::getline(in, line)) {
      if (parse_entry(line, fingerprint_, load_text, &stored)) {
        return current;  // another process stored this load first
      }
    }
    return current + entry;
  });
}

}  // namespace manet::exp
