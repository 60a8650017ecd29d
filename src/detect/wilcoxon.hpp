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
// The monitor runs one test per closed window and lane, and the lanes
// that share a window differ only in the margin added to y. So a window is
// loaded once (x and y sorted into a WilcoxonScratch) and then tested at
// any number of shifts: each test ranks x against y + shift by one linear
// merge of the two sorted samples, and the exact tail count is memoized on
// its inputs, so neighbouring margins whose ranks did not change skip the
// count. The scalar wilcoxon_rank_sum is the one-shift case of that path.
// Everything reuses the scratch's buffers: steady state allocates nothing.
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

/// Reusable buffers for the rank-sum test. All vectors grow to the largest
/// sample seen and are reused afterwards; a default-constructed scratch is
/// valid for any call.
struct WilcoxonScratch {
  std::vector<double> xs;             // loaded x, ascending
  std::vector<double> ys;             // loaded y, ascending (unshifted)
  std::vector<std::int64_t> ranks2;   // doubled midranks, ascending
  std::vector<std::int64_t> prefix;   // prefix sums of the counted doubled ranks
  std::vector<std::uint64_t> counts;  // flat (ny+1) x (cap+1) subset counts

  // The last exact tail count and the (prefix, ny, cap) it was counted
  // for. The count is a pure function of those, so a hit is exact.
  std::vector<std::int64_t> memo_prefix;
  std::size_t memo_ny = 0;
  std::int64_t memo_cap = -1;  // -1: nothing memoized
  std::uint64_t memo_count = 0;
};

/// Loads one window: copies x and y into `scratch` and sorts them.
/// Requires nx >= 1 and ny >= 1 (throws std::invalid_argument otherwise).
void wilcoxon_load(std::span<const double> x, std::span<const double> y,
                   WilcoxonScratch& scratch);

/// Tests the loaded x against the loaded y + shift: the same result as
/// wilcoxon_rank_sum(x, y'), where y'[i] = y[i] + shift in double
/// arithmetic. Requires options.exact_max_total <= kMaxExactTotal (throws
/// std::invalid_argument otherwise).
RankSumResult wilcoxon_shifted(double shift, const WilcoxonOptions& options,
                               WilcoxonScratch& scratch);

/// wilcoxon_load then wilcoxon_shifted(0.0): the same preconditions, and
/// reuses `scratch` across calls.
RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options,
                                WilcoxonScratch& scratch);

/// Convenience overload with a throwaway scratch.
RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options = {});

/// One test of a batch: compare `x` against `y + shift` (a margin shift).
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
