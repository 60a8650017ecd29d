// Microbenchmark: Wilcoxon rank-sum test cost per monitor window.
// The monitor runs one test per completed window; at sample size 10 the
// exact path (a tail-only integer count) takes a few microseconds.
//
// Case families (select with --filter, a substring: --filter=exact runs
// every exact size):
//  * exact_fast_n* / approx_fast_n*   — the scratch-reused scalar path.
//  * exact_batch_n* / approx_batch_n* — wilcoxon_rank_sum_batch over a
//    64-item batch of same-size tests with a shared margin shift: the
//    scalar path in a loop, plus one shifted copy of y per test.
#include <cstdint>
#include <vector>

#include "detect/wilcoxon.hpp"
#include "micro_common.hpp"
#include "util/rng.hpp"

namespace {

using namespace manet;
using detect::RankSumResult;
using detect::wilcoxon_rank_sum;
using detect::wilcoxon_rank_sum_batch;
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

  {
    const auto x = sample(n, 1.0, 1);
    const auto y = sample(n, 0.7, 2);
    WilcoxonScratch scratch;  // reused across iterations, like a monitor
    const std::size_t reps = h.reps(base_reps);
    h.run_case(fast_name, [&] {
      for (std::size_t i = 0; i < reps; ++i) {
        bench::keep(wilcoxon_rank_sum(x, y, opts, scratch).p_less);
      }
      return static_cast<std::uint64_t>(reps);
    });
  }
  {
    // One batched close of kBatchItems same-size lanes (distinct data per
    // lane, a shared margin shift) — ops = individual tests evaluated.
    std::vector<std::vector<double>> xs, ys;
    std::vector<WilcoxonBatchItem> items;
    for (std::size_t i = 0; i < kBatchItems; ++i) {
      xs.push_back(sample(n, 1.0, 100 + 2 * i));
      ys.push_back(sample(n, 0.7, 101 + 2 * i));
    }
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

}  // namespace

int main(int argc, char** argv) {
  bench::MicroHarness h("micro_wilcoxon",
                        "Wilcoxon rank-sum cost per closed monitor window: "
                        "scalar path vs batched close, exact tail-count and "
                        "normal-approximation branches.",
                        argc, argv);
  for (std::size_t n : {5u, 10u, 15u, 20u}) {
    run_family(h, "exact", n, /*exact=*/true, 4000);
  }
  for (std::size_t n : {10u, 25u, 50u, 100u, 500u}) {
    run_family(h, "approx", n, /*exact=*/false, 40000);
  }
  return 0;
}
