#!/usr/bin/env bash
# Full verification: plain build + tests and the artifact determinism
# gates, a warning-free Release (-O3, IPO) build that also checks the
# result digests, then the same suite
# under AddressSanitizer + UBSan
# (-DMANET_SANITIZE=ON), then a multi-threaded short-sweep bench smoke
# under the sanitizers (races / UB in the experiment engine's parallel
# trial fan-out would surface here), and finally the benchmark's
# self-test.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

# The tree compiles without a single warning, so any `warning:` line fails
# the build stage. An incremental build only recompiles (and so only
# checks) the sources that changed since the last build of that tree.
build_without_warnings() {  # $1 build dir
  local log="$smoke_dir/$1.log"
  cmake --build "$1" -j "$jobs" 2>&1 | tee "$log"
  if grep -q 'warning:' "$log"; then
    echo "$1: the build printed compiler warnings:"
    grep 'warning:' "$log"
    exit 1
  fi
}

echo "== plain build =="
cmake -B build -S . >/dev/null
build_without_warnings build
ctest --test-dir build --output-on-failure -j "$jobs"
strip_timing() {  # wall-clock and thread count are the only fields allowed to differ
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "threads": [0-9]+//' "$1"
}

echo "== artifact determinism gates (plain build) =="
# Every sweep artifact must be byte-identical (timing stripped) across
# --threads=1 / 4 and across channel receiver-lookup modes. (fig5 and the
# 3x3 all-pairs sweep get the same diffs under the sanitizers below.)
export MANET_RATE_CACHE="$smoke_dir/rates"
same_across_threads() {  # $1 bench, $2 tag, then sweep flags...
  local bench=$1 tag=$2
  shift 2
  ./build/bench/"$bench" "$@" --threads=1 --json="$smoke_dir/${tag}_t1.json" >/dev/null
  ./build/bench/"$bench" "$@" --threads=4 --json="$smoke_dir/${tag}_t4.json" >/dev/null
  diff <(strip_timing "$smoke_dir/${tag}_t1.json") \
       <(strip_timing "$smoke_dir/${tag}_t4.json") \
    || { echo "$tag output differs across thread counts"; exit 1; }
}
same_across_threads fig3_cond_prob_grid fig3 --rates=10,40 --measure_time=5
same_across_threads fig6_misdiagnosis_static fig6 --loads=0.6,0.9 \
    --sample_sizes=10,25 --sim_time=20 --runs=2
same_across_threads fig5d_detection_mobile fig5d --pms=50 \
    --sample_sizes=10,25 --sim_time=40 --runs=2
same_across_threads fig_allpairs_monitoring deg8 --grid_spacing=170 \
    --loads=0.6 --pms=0,50 --sim_time=20 --runs=2
same_across_threads fig_roc_adversaries roc \
    --attackers=pm50,colluding,sybil,rts_flood --thresholds=0.001,0.01 \
    --sim_time=15 --runs=2
# The receiver-lookup index is a lookup strategy, never a physics change:
# the 56-radio Table-1 sweep (cell probe, static audible lists), the mobile
# sweep (cell probe, moving radios) and the 9-radio degree-8 all-pairs
# sweep (every radio a candidate) must match the always-exact full scan.
./build/bench/fig6_misdiagnosis_static --loads=0.6,0.9 --sample_sizes=10,25 \
    --sim_time=20 --runs=2 --threads=4 --channel_index=scan \
    --json="$smoke_dir/fig6_scan.json" >/dev/null
diff <(strip_timing "$smoke_dir/fig6_t1.json") \
     <(strip_timing "$smoke_dir/fig6_scan.json") \
  || { echo "Table-1 fig6 output differs between the index and the full scan"; exit 1; }
./build/bench/fig5d_detection_mobile --pms=50 --sample_sizes=10,25 \
    --sim_time=40 --runs=2 --threads=4 --channel_index=scan \
    --json="$smoke_dir/fig5d_scan.json" >/dev/null
diff <(strip_timing "$smoke_dir/fig5d_t1.json") \
     <(strip_timing "$smoke_dir/fig5d_scan.json") \
  || { echo "fig5d output differs between the index and the full scan"; exit 1; }
./build/bench/fig_allpairs_monitoring --grid_spacing=170 --loads=0.6 \
    --pms=0,50 --sim_time=20 --runs=2 --threads=4 --channel_index=scan \
    --json="$smoke_dir/deg8_scan.json" >/dev/null
diff <(strip_timing "$smoke_dir/deg8_t1.json") \
     <(strip_timing "$smoke_dir/deg8_scan.json") \
  || { echo "deg8 all-pairs output differs between the index and the full scan"; exit 1; }
unset MANET_RATE_CACHE

echo "== Release build (bench preset: -O3, IPO) =="
# Some warnings (g++'s -Wrestrict, for one) only appear once -O3 inlines
# across calls, so the optimized tree passes the same warning gate.
cmake --preset bench >/dev/null
build_without_warnings build-bench
# The benchmark times this optimization level, so the result digests and
# the replay and hub equivalences must hold in it too, and so must the
# event queue (the timer wheel's shift and mask arithmetic against the
# reference heap, EventQueueDifferential) and the simulator loop over it.
ctest --test-dir build-bench --output-on-failure -j "$jobs" \
    -R 'Golden|TraceReplay|HubEquivalence|EventQueue|Simulator'

echo "== ASan + UBSan build =="
# A build-asan dir configured without sanitizers (e.g. a copied plain build)
# would silently run the entire "sanitized" suite uninstrumented. Refuse it.
if [[ -f build-asan/CMakeCache.txt ]] && \
   ! grep -q '^MANET_SANITIZE:BOOL=ON' build-asan/CMakeCache.txt; then
  echo "error: build-asan exists but was not configured with -DMANET_SANITIZE=ON" >&2
  echo "       (stale or non-sanitized cache — remove it and re-run:" >&2
  echo "        rm -rf build-asan && scripts/check.sh)" >&2
  exit 1
fi
cmake -B build-asan -S . -DMANET_SANITIZE=ON >/dev/null
build_without_warnings build-asan
oracle_tests='Golden|HubEquivalence|AllPipelines|IntensityFold'
ctest --test-dir build-asan --output-on-failure -j "$jobs" -E "$oracle_tests"

echo "== result oracles (ASan + UBSan) =="
# The golden digests, the batch-vs-reference equivalence over replayed
# traces, and the ARMA fold against the tick-chain oracle, as their own
# stage: the digests must match the plain build's.
ctest --test-dir build-asan --output-on-failure -j "$jobs" -R "$oracle_tests"

echo "== multi-threaded sweep smoke (ASan + UBSan) =="
./build-asan/bench/fig5_detection_static \
    --loads=0.6 --pms=0,50 --sim_time=20 --runs=4 --threads=4 \
    --json="$smoke_dir/fig5.json" >/dev/null
./build-asan/bench/fig3_cond_prob_grid \
    --rates=10,40 --measure_time=5 --threads=4 \
    --json="$smoke_dir/fig3.json" >/dev/null
# The JSON artifacts must be non-empty arrays.
for f in "$smoke_dir"/fig5.json "$smoke_dir"/fig3.json; do
  grep -q '^{' "$f" || { echo "empty JSON sink output: $f"; exit 1; }
done
# Determinism: the same sweep serially must produce the identical artifact.
./build-asan/bench/fig5_detection_static \
    --loads=0.6 --pms=0,50 --sim_time=20 --runs=4 --threads=1 \
    --json="$smoke_dir/fig5_serial.json" >/dev/null
diff <(strip_timing "$smoke_dir/fig5.json") \
     <(strip_timing "$smoke_dir/fig5_serial.json") \
  || { echo "parallel sweep output differs from serial"; exit 1; }

echo "== perf smoke (ASan + UBSan) =="
# The spatial-index fast path must not change results: the
# serial-vs-parallel diff above already ran on the optimized kernel; here a
# fixed-iteration pass over the micro benches walks the timer-wheel EventQueue,
# CsTimeline sweep, and channel grid under the sanitizers.
./build-asan/bench/micro_sim_components \
    --benchmark_min_time=0 \
    --benchmark_filter='BM_FullDcfExchange|BM_Table1NetworkSimSecond' >/dev/null
./build-asan/bench/micro_event_queue \
    --benchmark_min_time=0 \
    --benchmark_filter='BM_ScheduleAndPop/1024|BM_CancelChurnSteadyState|BM_QueueShape' \
    >/dev/null

echo "== detection pipeline smoke (ASan + UBSan) =="
# The all-pairs workload (many monitor lanes per node) must be
# bit-identical serially and across the engine's workers. Equivalence
# with the scalar reference monitor is the HubEquivalence ctests' job.
ap_flags=(--loads=0.6 --pms=0,50 --sim_time=20 --runs=2)
./build-asan/bench/fig_allpairs_monitoring "${ap_flags[@]}" --threads=1 \
    --json="$smoke_dir/ap_batch_t1.json" >/dev/null
./build-asan/bench/fig_allpairs_monitoring "${ap_flags[@]}" --threads=4 \
    --json="$smoke_dir/ap_batch_t4.json" >/dev/null
diff <(strip_timing "$smoke_dir/ap_batch_t1.json") \
     <(strip_timing "$smoke_dir/ap_batch_t4.json") \
  || { echo "all-pairs batch output differs across thread counts"; exit 1; }
echo "== adversary zoo / ROC harness smoke (ASan + UBSan) =="
# Every v2 attacker (colluding schedule, adaptive probation, sybil alias
# plumbing, RTS flooder + gap bound) exercised under the sanitizers, and
# the scored ROC/TTD artifact must be bit-identical across thread counts.
roc_flags=(--attackers=pm90,colluding,adaptive,sybil,rts_flood
           --thresholds=0.001,0.01,0.1 --sim_time=15 --runs=2)
./build-asan/bench/fig_roc_adversaries "${roc_flags[@]}" --threads=4 \
    --json="$smoke_dir/roc_t4.json" >/dev/null
./build-asan/bench/fig_roc_adversaries "${roc_flags[@]}" --threads=1 \
    --json="$smoke_dir/roc_t1.json" >/dev/null
grep -q '^{' "$smoke_dir/roc_t4.json" \
  || { echo "empty JSON sink output: roc_t4.json"; exit 1; }
diff <(strip_timing "$smoke_dir/roc_t1.json") \
     <(strip_timing "$smoke_dir/roc_t4.json") \
  || { echo "ROC harness output differs across thread counts"; exit 1; }

# Short pass over the detection micro benches: the batched lane dispatch,
# window-accounting memo, and batched/scalar Wilcoxon under the sanitizers.
./build-asan/bench/micro_monitor --filter=allpairs_batch_4 --reps=0.5 \
    >/dev/null
./build-asan/bench/micro_wilcoxon --filter=exact --reps=0.02 >/dev/null

echo "== trace record/replay equivalence (ASan + UBSan) =="
# The streaming detection path: record a live run (static + mobile-handoff,
# all three detectors) to binary .mtrace files, replay them through the
# identical detection code, and require the canonical results text to be
# byte-identical. A drift in the wire format, the replay world
# reconstruction, or the detectors themselves shows up as a diff here.
tr_flags=(--sim_time=20 --sample_sizes=10,25 --detectors=wilcoxon,cusum,sprt)
./build-asan/tools/trace_replay --mode=record "${tr_flags[@]}" \
    --dir="$smoke_dir/traces_static" --results="$smoke_dir/live_static.txt" \
    2>/dev/null
./build-asan/tools/trace_replay --mode=replay "${tr_flags[@]}" \
    --dir="$smoke_dir/traces_static" --results="$smoke_dir/replay_static.txt"
diff "$smoke_dir/live_static.txt" "$smoke_dir/replay_static.txt" \
  || { echo "static replay differs from the live run"; exit 1; }
./build-asan/tools/trace_replay --mode=record "${tr_flags[@]}" --mobile=1 \
    --pm=0 \
    --dir="$smoke_dir/traces_mobile" --results="$smoke_dir/live_mobile.txt" \
    2>/dev/null
./build-asan/tools/trace_replay --mode=replay "${tr_flags[@]}" \
    --dir="$smoke_dir/traces_mobile" --results="$smoke_dir/replay_mobile.txt"
diff "$smoke_dir/live_mobile.txt" "$smoke_dir/replay_mobile.txt" \
  || { echo "mobile-handoff replay differs from the live run"; exit 1; }

# Short pass over the trace codec and replay ingest loop (CRC framing,
# event decode, batched hub consume) under the sanitizers.
./build-asan/bench/micro_ingest \
    --filter=replay_batch_wilcoxon --reps=0.1 >/dev/null

echo "== scale kernel smoke (ASan + UBSan) =="
# 1k mobile nodes through the incremental spatial index: cell migrations,
# the predicted-position prefilter, and the timeline hard budgets all run
# instrumented.
./build-asan/bench/fig_scale_sweep --nodes=1000 --sim_time=2 \
    --cache_stats=1 --json="$smoke_dir/scale_1k.json" >/dev/null
grep -q '^{' "$smoke_dir/scale_1k.json" \
  || { echo "empty JSON sink output: scale_1k.json"; exit 1; }
# Index-vs-reference diff: the receiver-lookup path must be
# invisible to the workload — every request/response and AODV counter
# identical between the incremental index and the full-scan reference
# (only the index name and wall-clock fields may differ).
strip_scale() {
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "sim_s_per_wall_s": [^,}]+//;
          s/"index": "[a-z]+", //' "$1"
}
scale_flags=(--nodes=400 --sim_time=3 --seed=7)
./build-asan/bench/fig_scale_sweep "${scale_flags[@]}" \
    --json="$smoke_dir/scale_inc.json" >/dev/null
./build-asan/bench/fig_scale_sweep "${scale_flags[@]}" --index=scan \
    --json="$smoke_dir/scale_scan.json" >/dev/null
diff <(strip_scale "$smoke_dir/scale_inc.json") \
     <(strip_scale "$smoke_dir/scale_scan.json") \
  || { echo "incremental index output differs from full-scan reference"; exit 1; }

echo "== ThreadSanitizer: engine fan-out and sinks =="
# TSan build scoped to the concurrency-bearing layer: the exp engine's
# worker pool, the (mutex-guarded) result sinks, and a multi-threaded
# sweep driving them. ASan and TSan cannot share a
# build, hence the third tree.
if [[ -f build-tsan/CMakeCache.txt ]] && \
   ! grep -q '^MANET_TSAN:BOOL=ON' build-tsan/CMakeCache.txt; then
  echo "error: build-tsan exists but was not configured with -DMANET_TSAN=ON" >&2
  echo "       (stale or non-TSan cache — remove it and re-run:" >&2
  echo "        rm -rf build-tsan && scripts/check.sh)" >&2
  exit 1
fi
cmake -B build-tsan -S . -DMANET_TSAN=ON >/dev/null
cmake --build build-tsan -j "$jobs" \
    --target exp_test fig5_detection_static
./build-tsan/tests/exp_test >/dev/null
./build-tsan/bench/fig5_detection_static --loads=0.6 --pms=0,50 \
    --sim_time=10 --runs=4 --threads=4 \
    --json="$smoke_dir/tsan_fig5.json" >/dev/null
grep -q '^{' "$smoke_dir/tsan_fig5.json" \
  || { echo "empty JSON sink output under TSan"; exit 1; }

echo "== benchmark self-test =="
# Every workload at smoke length, traced and untraced: metric names and
# units against BENCHMARK.json, span nesting and coverage, and the
# benchmark's detection runs against the library harness. Builds its own
# optimized tree (.bench_build/) on first use.
python3 benchmark/selftest.py

echo "All checks passed."
