// Shared, thread-safe offered-load calibration.
//
// Historically every bench binary carried its own RateCache: a plain
// std::map that re-ran the (expensive) probe simulations per process and
// was unsafe to touch from the engine's worker threads. This version is
//  * concurrency-safe: per-load std::once_flag, so a load is calibrated
//    exactly once even under concurrent calibration_for() calls (callers for the
//    same load block; different loads calibrate in parallel), and
//  * shareable across bench processes: an optional append-only cache file
//    (constructor argument, or $MANET_RATE_CACHE) keyed by a scenario
//    fingerprint + load, so bench/run_all.sh pays for each calibration
//    point once instead of once per bench. A line holds the whole result
//    (rate, achieved busy fraction, saturated), so a cached load reports
//    the load that ran just as a fresh calibration does.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/load.hpp"
#include "net/scenario.hpp"

namespace manet::exp {

/// Rewrites `path` atomically under an advisory lock: `update` receives
/// the current content ("" when absent) and returns the replacement,
/// which lands via temp file + fsync + rename. Concurrent callers
/// serialize on `path + ".lock"`, so read-modify-write cycles (the rate
/// cache merging a new entry) never lose each other's updates. Returns
/// false (without calling `update`) when the lock file cannot be created.
bool atomic_file_update(
    const std::string& path,
    const std::function<std::string(const std::string&)>& update);

class RateCache {
 public:
  /// Probe hook (tests substitute a counting stub for the real simulations).
  using Calibrator =
      std::function<net::CalibrationResult(const net::ScenarioConfig&, double)>;

  /// `cache_file` empty means "use $MANET_RATE_CACHE if set, else no file".
  explicit RateCache(net::ScenarioConfig scenario, std::string cache_file = "",
                     Calibrator calibrate = {});

  /// The calibration of `load` at the monitored pair: the per-flow rate,
  /// the busy fraction it achieved and whether the load saturated below
  /// the target (`probe_runs` is 0 when the entry came from the file).
  /// Calibrates at most once per load; safe to call from worker threads.
  const net::CalibrationResult& calibration_for(double load);

  /// Per-flow packet rate that produces `load` at the monitored pair.
  double rate_for(double load) { return calibration_for(load).packets_per_second; }

 private:
  struct Slot {
    std::once_flag once;
    net::CalibrationResult result;
  };

  Slot& slot_for(double load);
  bool file_lookup(double load, net::CalibrationResult* result) const;
  void file_store(double load, const net::CalibrationResult& result) const;

  net::ScenarioConfig scenario_;
  std::string fingerprint_;  // identifies the scenario in the file cache
  std::string cache_file_;
  Calibrator calibrate_;
  std::mutex mutex_;  // guards slots_ (not the calibration itself)
  std::map<double, std::unique_ptr<Slot>> slots_;
};

}  // namespace manet::exp
