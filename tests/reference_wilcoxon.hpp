// The pre-optimization Wilcoxon rank-sum test (test-only oracle).
#pragma once

#include <span>

#include "detect/wilcoxon.hpp"

namespace manet::detect {

struct ReferenceRankSumResult {
  double w_y = 0.0;        // rank sum of the y sample (midranks)
  double p_less = 1.0;     // P(W <= w_y | H0)  — y smaller
  double p_greater = 1.0;  // P(W >= w_y | H0)  — y larger
  double p_two_sided = 1.0;
  double z = 0.0;          // standardized statistic (approx path; 0 if exact)
  bool exact = false;
};

/// Builds the whole permutation distribution in doubles on every call.
/// Not bounded by kMaxExactTotal; its counts stay exact while
/// C(nx + ny, ny) < 2^53.
ReferenceRankSumResult wilcoxon_rank_sum_reference(std::span<const double> x,
                                                   std::span<const double> y,
                                                   const WilcoxonOptions& options = {});

}  // namespace manet::detect
