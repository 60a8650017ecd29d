#include "detect/wilcoxon.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace manet::detect {

namespace {

/// Number of ny-subsets of the n items whose doubled ranks (ascending,
/// item i's rank is prefix[i + 1] - prefix[i]) sum to at most `cap`.
///
/// A 0/1-knapsack count over sums 0..cap in a flat (ny+1) x (cap+1) table.
/// After item i, a size-c partial subset still needs ny - c of the later
/// items, which add at least the next ny - c ranks; row c therefore keeps
/// only sums up to cap minus that sum, and rows that can no longer reach ny
/// items are skipped. The smallest sum of c items is prefix[c]. A row's
/// bound only tightens as i grows, and entries beyond it are never read.
std::uint64_t count_at_most(WilcoxonScratch& s, std::size_t n, std::size_t ny,
                            std::int64_t cap) {
  const std::int64_t* prefix = s.prefix.data();
  const auto width = static_cast<std::size_t>(cap) + 1;
  s.counts.assign((ny + 1) * width, 0);
  std::uint64_t* counts = s.counts.data();
  counts[0] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t r = prefix[i + 1] - prefix[i];
    const std::size_t c_hi = std::min(ny, i + 1);
    const std::size_t c_lo = std::max<std::size_t>(1, ny + i + 1 > n ? ny + i + 1 - n : 0);
    for (std::size_t c = c_hi; c >= c_lo; --c) {
      const std::int64_t hi = cap - (prefix[i + 1 + ny - c] - prefix[i + 1]);
      const std::int64_t lo = prefix[c - 1] + r;
      std::uint64_t* row = counts + c * width;
      const std::uint64_t* prev = counts + (c - 1) * width;
      for (std::int64_t sum = lo; sum <= hi; ++sum) row[sum] += prev[sum - r];
    }
  }
  const std::uint64_t* last = counts + ny * width;
  std::uint64_t ways = 0;
  for (std::int64_t sum = prefix[ny]; sum <= cap; ++sum) ways += last[sum];
  return ways;
}

/// count_at_most through the scratch's one-entry memo. The lanes of one
/// window test it at neighbouring margins, and most margins move no y value
/// past an x value, so the count is asked for again with the same inputs.
std::uint64_t tail_count(WilcoxonScratch& s, std::size_t n, std::size_t ny,
                         std::int64_t cap) {
  if (s.memo_cap == cap && s.memo_ny == ny && s.memo_prefix == s.prefix) {
    return s.memo_count;
  }
  s.memo_count = count_at_most(s, n, ny, cap);
  s.memo_prefix = s.prefix;
  s.memo_ny = ny;
  s.memo_cap = cap;
  return s.memo_count;
}

/// C(n, k), exact: every intermediate is a binomial coefficient times at
/// most n, far below 2^64 for n <= kMaxExactTotal.
std::uint64_t binomial(std::size_t n, std::size_t k) {
  std::uint64_t b = 1;
  for (std::size_t j = 1; j <= k; ++j) b = b * (n - k + j) / j;
  return b;
}

/// Exact lower tail P(W <= w_y) from the ascending doubled midranks in
/// s.ranks2 and the doubled observed sum w2, counting only one tail: the
/// subsets at or below w2 when it lies at or below the middle
/// mid2 = ny (n + 1), else the strict upper tail over mirrored ranks
/// 2 (n + 1) - r, subtracted from the total.
RankSumResult exact_rank_sum(WilcoxonScratch& s, std::size_t ny, std::int64_t w2) {
  const std::size_t n = s.ranks2.size();
  const auto mid2 = static_cast<std::int64_t>(ny * (n + 1));
  const bool lower = w2 <= mid2;
  const auto mirror = static_cast<std::int64_t>(2 * (n + 1));

  // Doubled midranks in ascending order, mirrored and re-ascended for the
  // upper tail.
  s.prefix.resize(n + 1);
  s.prefix[0] = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t r = lower ? s.ranks2[k] : mirror - s.ranks2[n - 1 - k];
    s.prefix[k + 1] = s.prefix[k] + r;
  }

  const std::uint64_t total = binomial(n, ny);
  const std::uint64_t less_eq =
      lower ? tail_count(s, n, ny, w2)
            : total - tail_count(s, n, ny, 2 * mid2 - w2 - 1);

  RankSumResult res;
  res.w_y = static_cast<double>(w2) / 2.0;
  res.exact = true;
  res.p_less = static_cast<double>(less_eq) / static_cast<double>(total);
  return res;
}

/// Normal approximation; `tie_term` is sum(t^3 - t) over the tie groups of
/// the combined sample, produced by the same pass that assigned midranks.
RankSumResult approx_rank_sum(std::size_t nx, std::size_t ny, double w_y,
                              double tie_term) {
  const double n = static_cast<double>(nx + ny);
  const double mean = static_cast<double>(ny) * (n + 1.0) / 2.0;
  const double var = (static_cast<double>(nx) * static_cast<double>(ny) / 12.0) *
                     ((n + 1.0) - tie_term / (n * (n - 1.0)));

  RankSumResult res;
  res.w_y = w_y;
  res.exact = false;
  if (var <= 0.0) {
    // All observations identical: no evidence either way.
    res.p_less = 1.0;
    return res;
  }
  const double sd = std::sqrt(var);
  // Continuity correction of one half rank.
  res.z = (w_y - mean) / sd;
  res.p_less = util::normal_cdf((w_y + 0.5 - mean) / sd);
  return res;
}

}  // namespace

void wilcoxon_load(std::span<const double> x, std::span<const double> y,
                   WilcoxonScratch& scratch) {
  if (x.empty() || y.empty()) {
    throw std::invalid_argument("wilcoxon_rank_sum: empty sample");
  }
  scratch.xs.assign(x.begin(), x.end());
  scratch.ys.assign(y.begin(), y.end());
  std::sort(scratch.xs.begin(), scratch.xs.end());
  std::sort(scratch.ys.begin(), scratch.ys.end());
}

RankSumResult wilcoxon_shifted(double shift, const WilcoxonOptions& options,
                               WilcoxonScratch& scratch) {
  if (options.exact_max_total > kMaxExactTotal) {
    throw std::invalid_argument(
        "wilcoxon_rank_sum: exact_max_total above 56 (tail counts would "
        "exceed 2^53)");
  }
  const std::vector<double>& xs = scratch.xs;
  const std::vector<double>& ys = scratch.ys;
  const std::size_t nx = xs.size();
  const std::size_t ny = ys.size();
  const bool exact = nx + ny <= options.exact_max_total;

  // Midranks of the combined sample by one merge of sorted x with sorted
  // y + shift (adding a constant is monotone in floating point, so y +
  // shift stays ascending). Each tie group, a run of equal values across
  // both samples, shares the doubled midrank (first + last position). The
  // groups surface in ascending order, as a sort of the combined sample
  // finds them, so the tie term sums in that order too. The smaller head
  // is consumed before its equals, so every group takes at least one value
  // (a NaN sample yields meaningless ranks, not a stuck loop).
  scratch.ranks2.clear();
  std::int64_t w2 = 0;
  double tie_term = 0.0;
  std::size_t i = 0, k = 0;
  while (i < nx || k < ny) {
    const std::size_t first = i + k;
    const std::size_t y_first = k;
    const double v =
        k == ny || (i < nx && xs[i] < ys[k] + shift) ? xs[i++] : ys[k++] + shift;
    while (i < nx && xs[i] == v) ++i;
    while (k < ny && ys[k] + shift == v) ++k;
    const std::size_t t = i + k - first;
    const auto r2 = static_cast<std::int64_t>(2 * first + t + 1);
    w2 += static_cast<std::int64_t>(k - y_first) * r2;
    if (exact) scratch.ranks2.insert(scratch.ranks2.end(), t, r2);
    const double td = static_cast<double>(t);
    tie_term += td * td * td - td;
  }

  if (exact) return exact_rank_sum(scratch, ny, w2);
  return approx_rank_sum(nx, ny, static_cast<double>(w2) / 2.0, tie_term);
}

RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options,
                                WilcoxonScratch& scratch) {
  wilcoxon_load(x, y, scratch);
  return wilcoxon_shifted(0.0, options, scratch);
}

RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options) {
  WilcoxonScratch scratch;
  return wilcoxon_rank_sum(x, y, options, scratch);
}

void wilcoxon_rank_sum_batch(std::span<const WilcoxonBatchItem> items,
                             std::span<RankSumResult> results,
                             WilcoxonScratch& scratch) {
  assert(results.size() == items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const WilcoxonBatchItem& item = items[i];
    wilcoxon_load(item.x, item.y, scratch);
    results[i] = wilcoxon_shifted(item.shift, item.options, scratch);
  }
}

}  // namespace manet::detect
