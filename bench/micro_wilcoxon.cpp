// Microbenchmark: Wilcoxon rank-sum test cost per monitor window.
// The monitor runs one test per completed window; at sample size 10 the
// exact path (a tail-only integer count) takes a few microseconds.
//
// Case families (select with --filter, a substring: --filter=exact runs
// every exact size):
//  * exact_fast_n* / approx_fast_n*   — the scratch-reused scalar path,
//    cycling over 64 distinct windows.
//  * exact_batch_n* / approx_batch_n* — wilcoxon_rank_sum_batch over a
//    64-item batch of same-size tests with a shared margin shift: the
//    scalar path in a loop, plus one shifted copy of y per test.
//  * sweep_exact_n10 / sweep_approx_n25 — one closed window tested at the
//    all-pairs workload's 40 margins (0.02 + 0.0025 i) the way a group's
//    margin lanes close it: wilcoxon_load once, then wilcoxon_shifted per
//    margin over one scratch (default options: n = 10 is exact, n = 25
//    approximate). x holds CW-normalized integer draws like dictated PRS
//    values, so neighbouring margins mostly reuse the memoized tail count.
#include <cmath>
#include <cstdint>
#include <vector>

#include "detect/wilcoxon.hpp"
#include "micro_common.hpp"
#include "util/rng.hpp"

namespace {

using namespace manet;
using detect::RankSumResult;
using detect::wilcoxon_rank_sum;
using detect::wilcoxon_load;
using detect::wilcoxon_rank_sum_batch;
using detect::wilcoxon_shifted;
using detect::WilcoxonBatchItem;
using detect::WilcoxonOptions;
using detect::WilcoxonScratch;

std::vector<double> sample(std::size_t n, double scale, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(0, 32) * scale;
  return out;
}

constexpr std::size_t kBatchItems = 64;

void run_family(bench::MicroHarness& h, const char* family, std::size_t n,
                bool exact, std::size_t base_reps) {
  WilcoxonOptions opts;
  opts.exact_max_total = exact ? 2 * n : 0;

  const std::string suffix = "_n" + std::to_string(n);
  const std::string fast_name = std::string(family) + "_fast" + suffix;
  const std::string batch_name = std::string(family) + "_batch" + suffix;

  // kBatchItems distinct windows: consecutive tests never repeat their
  // inputs, so the tail-count memo cannot turn the cases into memo hits.
  std::vector<std::vector<double>> xs, ys;
  for (std::size_t i = 0; i < kBatchItems; ++i) {
    xs.push_back(sample(n, 1.0, 100 + 2 * i));
    ys.push_back(sample(n, 0.7, 101 + 2 * i));
  }
  {
    WilcoxonScratch scratch;  // reused across iterations, like a monitor
    const std::size_t reps = h.reps(base_reps);
    h.run_case(fast_name, [&] {
      for (std::size_t i = 0; i < reps; ++i) {
        const std::size_t w = i % kBatchItems;
        bench::keep(wilcoxon_rank_sum(xs[w], ys[w], opts, scratch).p_less);
      }
      return static_cast<std::uint64_t>(reps);
    });
  }
  {
    // One batched close of kBatchItems same-size lanes (distinct data per
    // lane, a shared margin shift) — ops = individual tests evaluated.
    std::vector<WilcoxonBatchItem> items;
    for (std::size_t i = 0; i < kBatchItems; ++i) {
      WilcoxonBatchItem item;
      item.x = xs[i];
      item.y = ys[i];
      item.shift = 0.05;
      item.options = opts;
      items.push_back(item);
    }
    std::vector<RankSumResult> results(items.size());
    WilcoxonScratch scratch;
    const std::size_t rounds = h.reps(base_reps) / kBatchItems + 1;
    h.run_case(
        batch_name,
        [&] {
          for (std::size_t r = 0; r < rounds; ++r) {
            wilcoxon_rank_sum_batch(items, results, scratch);
            bench::keep(results.front().p_less);
          }
          return static_cast<std::uint64_t>(rounds * kBatchItems);
        },
        [&](exp::Record& rec) { rec.add("lanes", kBatchItems); });
  }
}

/// ops = tests (40 per window).
void run_sweep(bench::MicroHarness& h, const char* kind, std::size_t n,
               std::size_t base_reps) {
  constexpr std::size_t kMargins = 40;
  std::vector<double> margins;
  for (std::size_t i = 0; i < kMargins; ++i) {
    margins.push_back(0.02 + 0.0025 * static_cast<double>(i));
  }
  util::Xoshiro256ss rng(7);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = std::floor(rng.uniform(0, 32)) / 32.0;
  for (auto& v : y) v = rng.uniform(0, 32) * 0.9 / 32.0;

  const WilcoxonOptions opts;
  WilcoxonScratch scratch;
  const std::size_t windows = h.reps(base_reps) / kMargins + 1;
  h.run_case(
      std::string("sweep_") + kind + "_n" + std::to_string(n),
      [&] {
        for (std::size_t w = 0; w < windows; ++w) {
          wilcoxon_load(x, y, scratch);
          for (const double m : margins) bench::keep(wilcoxon_shifted(m, opts, scratch).p_less);
        }
        return static_cast<std::uint64_t>(windows * kMargins);
      },
      [&](exp::Record& rec) { rec.add("margins", kMargins); });
}

}  // namespace

int main(int argc, char** argv) {
  bench::MicroHarness h("micro_wilcoxon",
                        "Wilcoxon rank-sum cost per closed monitor window: "
                        "scalar path, batched close and one window swept "
                        "over 40 margins, exact tail-count and "
                        "normal-approximation branches.",
                        argc, argv);
  for (std::size_t n : {5u, 10u, 15u, 20u}) {
    run_family(h, "exact", n, /*exact=*/true, 4000);
  }
  for (std::size_t n : {10u, 25u, 50u, 100u, 500u}) {
    run_family(h, "approx", n, /*exact=*/false, 40000);
  }
  run_sweep(h, "exact", 10, 40000);
  run_sweep(h, "approx", 25, 40000);
  return 0;
}
