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

/// C(n, k), exact: every intermediate is a binomial coefficient times at
/// most n, far below 2^64 for n <= kMaxExactTotal.
std::uint64_t binomial(std::size_t n, std::size_t k) {
  std::uint64_t b = 1;
  for (std::size_t j = 1; j <= k; ++j) b = b * (n - k + j) / j;
  return b;
}

/// Exact lower tail P(W <= w_y) from the combined midranks, counting only
/// one tail: the subsets at or below the observed doubled sum w2 when it
/// lies at or below the middle mid2 = ny (n + 1), else the strict upper
/// tail over mirrored ranks 2 (n + 1) - r, subtracted from the total.
RankSumResult exact_rank_sum(WilcoxonScratch& s, std::size_t ny, double w_y) {
  const std::size_t n = s.ranks.size();
  const auto w2 = static_cast<std::int64_t>(std::llround(w_y * 2.0));
  const auto mid2 = static_cast<std::int64_t>(ny * (n + 1));
  const bool lower = w2 <= mid2;
  const auto mirror = static_cast<std::int64_t>(2 * (n + 1));

  // Doubled midranks in ascending order (`order` sorts the combined
  // sample), mirrored and re-ascended for the upper tail.
  s.prefix.resize(n + 1);
  s.prefix[0] = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t r =
        lower ? std::llround(s.ranks[s.order[k]] * 2.0)
              : mirror - std::llround(s.ranks[s.order[n - 1 - k]] * 2.0);
    s.prefix[k + 1] = s.prefix[k] + r;
  }

  const std::uint64_t total = binomial(n, ny);
  const std::uint64_t less_eq =
      lower ? count_at_most(s, n, ny, w2)
            : total - count_at_most(s, n, ny, 2 * mid2 - w2 - 1);

  RankSumResult res;
  res.w_y = w_y;
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

RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options,
                                WilcoxonScratch& scratch) {
  const std::size_t nx = x.size();
  const std::size_t ny = y.size();
  if (nx == 0 || ny == 0) {
    throw std::invalid_argument("wilcoxon_rank_sum: empty sample");
  }
  if (options.exact_max_total > kMaxExactTotal) {
    throw std::invalid_argument(
        "wilcoxon_rank_sum: exact_max_total above 56 (tail counts would "
        "exceed 2^53)");
  }

  scratch.combined.clear();
  scratch.combined.reserve(nx + ny);
  scratch.combined.insert(scratch.combined.end(), x.begin(), x.end());
  scratch.combined.insert(scratch.combined.end(), y.begin(), y.end());
  const double tie_term =
      util::midranks_into(scratch.combined, scratch.ranks, scratch.order);

  double w_y = 0.0;
  for (std::size_t i = 0; i < ny; ++i) w_y += scratch.ranks[nx + i];

  if (nx + ny <= options.exact_max_total) {
    return exact_rank_sum(scratch, ny, w_y);
  }
  return approx_rank_sum(nx, ny, w_y, tie_term);
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
    scratch.shifted.assign(item.y.begin(), item.y.end());
    for (double& v : scratch.shifted) v += item.shift;
    results[i] = wilcoxon_rank_sum(item.x, scratch.shifted, item.options, scratch);
  }
}

}  // namespace manet::detect
