// Shared plumbing for the figure-reproduction benches. Flag handling lives
// in flag_set.hpp (bench::FlagSet — typed declarative registration, auto
// --help, unknown-flag errors). Load calibration lives in the engine layer
// (exp::RateCache — thread-safe, shareable across bench processes via
// $MANET_RATE_CACHE); `bench::RateCache` is an alias for it.
#pragma once

#include <cstdio>

#include "exp/rate_cache.hpp"
#include "flag_set.hpp"

namespace manet::bench {

using RateCache = exp::RateCache;

inline void print_header(const char* figure, const char* claim) {
  std::printf("# %s\n# Paper claim: %s\n", figure, claim);
}

/// The load a sweep point actually ran at, for its table heading:
/// "achieved 0.822 at 64.00 pkt/s per flow, saturated".
inline void print_achieved_load(const net::CalibrationResult& cal) {
  std::printf("achieved %.3f at %.2f pkt/s per flow%s", cal.measured_busy_fraction,
              cal.packets_per_second, cal.saturated ? ", saturated" : "");
}

}  // namespace manet::bench
