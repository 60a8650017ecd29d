// Wilcoxon rank-sum (Mann-Whitney) test — the paper's hypothesis test for
// comparing the dictated back-off population x against the observed
// (estimated) population y without distributional assumptions.
//
// p_less is the probability, under H0 "x and y come from identical
// populations", of a y rank sum at most as large as observed — small
// p_less means y is stochastically smaller than x (the misbehavior
// signature: shorter back-offs). It is the only tail the monitor reads.
//
// Two evaluation paths behind one scalar call:
//  * Exact (nx + ny <= exact_max_total): counts one tail of the
//    permutation null distribution of the rank sum in integers. Doubled
//    midranks (ties included) are integral; a capped subset-sum DP counts
//    the ny-subsets whose doubled sum is at most the observed one — or,
//    when the observation lies above the middle, the strict upper tail
//    over mirrored ranks, subtracted from C(nx + ny, ny). Every count is
//    an exact integer below 2^53 while C(n, n/2) < 2^53 (n <= 56), so
//    p_less = count / C(n, ny) is the same double the full distribution in
//    floating point would give, bit for bit.
//  * Normal approximation with tie correction and continuity correction,
//    for larger samples.
//
// The monitor runs one test per closed window, so the hot path is
// allocation-free: callers hold a WilcoxonScratch whose buffers are reused
// across calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace manet::detect {

struct RankSumResult {
  double w_y = 0.0;     // rank sum of the y sample (midranks)
  double p_less = 1.0;  // P(W <= w_y | H0)  — y smaller
  double z = 0.0;       // standardized statistic (approx path; 0 if exact)
  bool exact = false;
};

struct WilcoxonOptions {
  /// Use the exact permutation distribution when nx + ny <= this bound.
  /// At most kMaxExactTotal; 40 keeps the DP in the low microseconds.
  std::size_t exact_max_total = 40;
};

/// Largest exact_max_total accepted: the largest n with C(n, n/2) < 2^53,
/// so every tail count is exact in both uint64_t and double.
inline constexpr std::size_t kMaxExactTotal = 56;

/// Reusable buffers for wilcoxon_rank_sum. All vectors grow to the largest
/// sample seen and are reused afterwards; a default-constructed scratch is
/// valid for any call.
struct WilcoxonScratch {
  std::vector<double> combined;       // x followed by y
  std::vector<double> ranks;          // midranks of `combined`
  std::vector<std::size_t> order;     // ascending order of `combined`
  std::vector<std::int64_t> prefix;   // prefix sums of the sorted doubled ranks
  std::vector<std::uint64_t> counts;  // flat (ny+1) x (cap+1) subset counts
  std::vector<double> shifted;        // batch path: y + per-item shift
};

/// Requires nx >= 1 and ny >= 1, and options.exact_max_total <=
/// kMaxExactTotal (throws std::invalid_argument otherwise). Reuses
/// `scratch` across calls.
RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options,
                                WilcoxonScratch& scratch);

/// Convenience overload with a throwaway scratch.
RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options = {});

/// One test of a batch: compare `x` against `y + shift` (a margin shift,
/// applied into scratch so the batch stays allocation-free over span
/// inputs).
struct WilcoxonBatchItem {
  std::span<const double> x;
  std::span<const double> y;
  double shift = 0.0;
  WilcoxonOptions options;
};

/// Writes results[i] = wilcoxon_rank_sum(items[i].x, items[i].y + shift),
/// in caller order. `results` must have items.size() entries.
void wilcoxon_rank_sum_batch(std::span<const WilcoxonBatchItem> items,
                             std::span<RankSumResult> results,
                             WilcoxonScratch& scratch);

}  // namespace manet::detect
