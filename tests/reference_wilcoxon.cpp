// The pre-optimization Wilcoxon rank-sum test, kept verbatim as the oracle
// for detect/wilcoxon.hpp: fresh allocations per call, the full null
// distribution of the rank sum in doubles (full-range DP rows), and a
// separate tie-group sort for the approximation. It fills both tails and
// the two-sided p-value, which the production result no longer carries.
#include "reference_wilcoxon.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/stats.hpp"

namespace manet::detect {

namespace {

ReferenceRankSumResult exact_rank_sum_reference(const std::vector<double>& ranks,
                                                std::size_t ny, double w_y) {
  const std::size_t n = ranks.size();
  std::vector<long long> r2(n);
  long long total2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    r2[i] = std::llround(ranks[i] * 2.0);
    total2 += r2[i];
  }

  // dp[c][s] = #subsets of size c with doubled-rank sum s.
  const auto smax = static_cast<std::size_t>(total2);
  std::vector<std::vector<double>> dp(ny + 1, std::vector<double>(smax + 1, 0.0));
  dp[0][0] = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(r2[i]);
    const std::size_t cmax = std::min(ny, i + 1);
    for (std::size_t c = cmax; c >= 1; --c) {
      auto& row = dp[c];
      const auto& prev = dp[c - 1];
      for (std::size_t s = smax; s >= r; --s) {
        if (prev[s - r] != 0.0) row[s] += prev[s - r];
      }
      if (r == 0) break;  // unreachable (ranks >= 1) but keeps loop safe
    }
  }

  double total_ways = 0.0;
  for (double ways : dp[ny]) total_ways += ways;

  const auto w2 = static_cast<long long>(std::llround(w_y * 2.0));
  double less_eq = 0.0, greater_eq = 0.0;
  for (std::size_t s = 0; s <= smax; ++s) {
    const double ways = dp[ny][s];
    if (ways == 0.0) continue;
    if (static_cast<long long>(s) <= w2) less_eq += ways;
    if (static_cast<long long>(s) >= w2) greater_eq += ways;
  }

  ReferenceRankSumResult res;
  res.w_y = w_y;
  res.exact = true;
  res.p_less = less_eq / total_ways;
  res.p_greater = greater_eq / total_ways;
  res.p_two_sided = std::min(1.0, 2.0 * std::min(res.p_less, res.p_greater));
  return res;
}

ReferenceRankSumResult approx_rank_sum_reference(const std::vector<double>& combined,
                                                 std::size_t nx, std::size_t ny,
                                                 double w_y) {
  const double n = static_cast<double>(nx + ny);
  const double mean = static_cast<double>(ny) * (n + 1.0) / 2.0;

  // Tie correction: subtract sum(t^3 - t) over tie groups.
  std::vector<double> sorted(combined);
  std::sort(sorted.begin(), sorted.end());
  double tie_term = 0.0;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[i]) ++j;
    const double t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    i = j + 1;
  }
  const double var = (static_cast<double>(nx) * static_cast<double>(ny) / 12.0) *
                     ((n + 1.0) - tie_term / (n * (n - 1.0)));

  ReferenceRankSumResult res;
  res.w_y = w_y;
  res.exact = false;
  if (var <= 0.0) {
    res.p_less = res.p_greater = res.p_two_sided = 1.0;
    return res;
  }
  const double sd = std::sqrt(var);
  const double z_less = (w_y + 0.5 - mean) / sd;
  const double z_greater = (w_y - 0.5 - mean) / sd;
  res.z = (w_y - mean) / sd;
  res.p_less = util::normal_cdf(z_less);
  res.p_greater = 1.0 - util::normal_cdf(z_greater);
  res.p_two_sided = std::min(1.0, 2.0 * std::min(res.p_less, res.p_greater));
  return res;
}

}  // namespace

ReferenceRankSumResult wilcoxon_rank_sum_reference(std::span<const double> x,
                                                   std::span<const double> y,
                                                   const WilcoxonOptions& options) {
  const std::size_t nx = x.size();
  const std::size_t ny = y.size();
  if (nx == 0 || ny == 0) {
    throw std::invalid_argument("wilcoxon_rank_sum: empty sample");
  }

  std::vector<double> combined;
  combined.reserve(nx + ny);
  combined.insert(combined.end(), x.begin(), x.end());
  combined.insert(combined.end(), y.begin(), y.end());
  const std::vector<double> ranks = util::midranks(combined);

  double w_y = 0.0;
  for (std::size_t i = 0; i < ny; ++i) w_y += ranks[nx + i];

  if (nx + ny <= options.exact_max_total) {
    return exact_rank_sum_reference(ranks, ny, w_y);
  }
  return approx_rank_sum_reference(combined, nx, ny, w_y);
}

}  // namespace manet::detect
