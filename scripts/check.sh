#!/usr/bin/env bash
# Full verification: plain build + tests and the artifact determinism
# gates, then the same suite under AddressSanitizer + UBSan
# (-DMANET_SANITIZE=ON), then a multi-threaded short-sweep bench smoke
# under the sanitizers (races / UB in the experiment engine's parallel
# trial fan-out would surface here), and finally the benchmark's
# self-test.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
strip_timing() {  # wall-clock and thread count are the only fields allowed to differ
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "threads": [0-9]+//' "$1"
}

echo "== artifact determinism gates (plain build) =="
# Every sweep artifact must be byte-identical (timing stripped) across
# --threads=1 / 4, across channel receiver-lookup modes, and across shard
# splits merged back by sweep_merge. (fig5 and the 3x3 all-pairs sweep
# get the same diffs under the sanitizers below.)
export MANET_RATE_CACHE="$smoke_dir/rates" MANET_ARTIFACTS="$smoke_dir/artifacts"
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
same_across_threads fig6_misdiagnosis_static fig6 --loads=0.6 \
    --sample_sizes=10,25 --sim_time=20 --runs=2
same_across_threads fig5d_detection_mobile fig5d --pms=50 \
    --sample_sizes=10,25 --sim_time=40 --runs=2
same_across_threads fig_allpairs_monitoring deg8 --grid_spacing=170 \
    --loads=0.6 --pms=0,50 --sim_time=20 --runs=2
# The receiver-lookup index is a lookup strategy, never a physics change:
# the mobile sweep must match the always-exact full scan.
./build/bench/fig5d_detection_mobile --pms=50 --sample_sizes=10,25 \
    --sim_time=40 --runs=2 --threads=4 --channel_index=scan \
    --json="$smoke_dir/fig5d_scan.json" >/dev/null
diff <(strip_timing "$smoke_dir/fig5d_t1.json") \
     <(strip_timing "$smoke_dir/fig5d_scan.json") \
  || { echo "fig5d output differs between the index and the full scan"; exit 1; }
# Shard splits, including more shards than cells (empty trailing ranges).
roc_shard_flags=(--attackers=pm50,colluding,sybil,rts_flood
                 --thresholds=0.001,0.01 --sim_time=15 --runs=2 --threads=1)
./build/bench/fig_roc_adversaries "${roc_shard_flags[@]}" \
    --json="$smoke_dir/roc_serial.json" >/dev/null
for n in 2 7; do
  for ((i = 0; i < n; ++i)); do
    ./build/bench/fig_roc_adversaries "${roc_shard_flags[@]}" --shard="$i/$n" \
        --columnar="$smoke_dir/roc_${i}_of_${n}.mcol" >/dev/null
  done
  ./build/tools/sweep_merge --json="$smoke_dir/roc_merged_$n.json" \
      "$smoke_dir"/roc_*_of_"$n".mcol >/dev/null
  diff <(strip_timing "$smoke_dir/roc_serial.json") \
       <(strip_timing "$smoke_dir/roc_merged_$n.json") \
    || { echo "ROC sweep with $n shards merges to a different artifact"; exit 1; }
done
unset MANET_RATE_CACHE MANET_ARTIFACTS

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
cmake --build build-asan -j "$jobs"
oracle_tests='Golden|HubEquivalence|AllPipelines'
ctest --test-dir build-asan --output-on-failure -j "$jobs" -E "$oracle_tests"

echo "== result oracles (ASan + UBSan) =="
# The golden digests and the batch-vs-reference equivalence over replayed
# traces, as their own stage: the digests must match the plain build's.
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
# The spatial-index / link-cache fast path must not change results: the
# serial-vs-parallel diff above already ran on the optimized kernel; here a
# fixed-iteration pass over the micro benches walks the optimized EventQueue,
# CsTimeline sweep, and channel grid under the sanitizers.
./build-asan/bench/micro_sim_components \
    --benchmark_min_time=0 \
    --benchmark_filter='BM_FullDcfExchange|BM_Table1NetworkSimSecond' >/dev/null
./build-asan/bench/micro_event_queue \
    --benchmark_min_time=0 \
    --benchmark_filter='BM_ScheduleAndPop/1024|BM_CancelChurnSteadyState' >/dev/null

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
./build-asan/bench/micro_wilcoxon --filter=_n10 --reps=0.02 >/dev/null

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

echo "== sharded sweep fabric (ASan + UBSan) =="
# The fig5 sweep as 3 independent shard processes writing binary columnar
# artifacts; sweep_merge validates the set and renders the canonical JSON,
# which must be byte-identical to the serial single-process artifact from
# the determinism stage above.
fig5_flags=(--loads=0.6 --pms=0,50 --sim_time=20 --runs=4 --threads=1)
for i in 0 1 2; do
  ./build-asan/bench/fig5_detection_static "${fig5_flags[@]}" \
      --shard="$i/3" --columnar="$smoke_dir/fab_$i.mcol" >/dev/null
done
./build-asan/tools/sweep_merge --json="$smoke_dir/fab_merged.json" \
    "$smoke_dir"/fab_{0,1,2}.mcol >/dev/null
diff <(strip_timing "$smoke_dir/fab_merged.json") \
     <(strip_timing "$smoke_dir/fig5_serial.json") \
  || { echo "sharded merge differs from the serial artifact"; exit 1; }
# The merge tool must REFUSE defective shard sets: a missing shard (gap),
# a doubled shard (overlap), a shard from a different sweep (fingerprint
# mismatch), and a corrupted artifact (CRC).
expect_merge_failure() {  # $1 description, then sweep_merge args...
  local what=$1
  shift
  if ./build-asan/tools/sweep_merge "$@" >/dev/null 2>"$smoke_dir/merge_err"; then
    echo "sweep_merge accepted a defective shard set ($what)"; exit 1
  fi
  echo "  sweep_merge refused $what: $(head -1 "$smoke_dir/merge_err")"
}
expect_merge_failure "a coverage gap" "$smoke_dir"/fab_{0,2}.mcol
expect_merge_failure "an overlap" "$smoke_dir"/fab_{0,1,1,2}.mcol
./build-asan/bench/fig5_detection_static --loads=0.6 --pms=0,25 \
    --sim_time=20 --runs=4 --threads=1 --shard=2/3 \
    --columnar="$smoke_dir/fab_other.mcol" >/dev/null
expect_merge_failure "a sweep fingerprint mismatch" \
    "$smoke_dir"/fab_{0,1}.mcol "$smoke_dir/fab_other.mcol"
cp "$smoke_dir/fab_1.mcol" "$smoke_dir/fab_bad.mcol"
printf '\x5a' | dd of="$smoke_dir/fab_bad.mcol" bs=1 seek=200 conv=notrunc \
    status=none
expect_merge_failure "a CRC-corrupt artifact" \
    "$smoke_dir/fab_0.mcol" "$smoke_dir/fab_bad.mcol" "$smoke_dir/fab_2.mcol"

echo "== checkpoint/resume (ASan + UBSan) =="
# Kill a checkpointing shard mid-run (SIGKILL: no destructors, the sink
# keeps a partial tail past the journal offset), rerun the identical
# command to resume, and require the artifact to match the serial JSON.
# If the machine is fast enough that the first attempt finishes before
# the kill, the rerun is a fresh complete run — the comparison still holds.
ck_flags=("${fig5_flags[@]}" --checkpoint_cells=1
          --columnar="$smoke_dir/ck.mcol" --checkpoint="$smoke_dir/ck.journal")
timeout -s KILL 3 ./build-asan/bench/fig5_detection_static \
    "${ck_flags[@]}" >/dev/null || true
./build-asan/bench/fig5_detection_static "${ck_flags[@]}" >/dev/null
[[ ! -e "$smoke_dir/ck.journal" ]] \
  || { echo "checkpoint journal not removed after completion"; exit 1; }
./build-asan/tools/sweep_merge --json="$smoke_dir/ck.json" \
    "$smoke_dir/ck.mcol" >/dev/null
diff <(strip_timing "$smoke_dir/ck.json") \
     <(strip_timing "$smoke_dir/fig5_serial.json") \
  || { echo "resumed run differs from the serial artifact"; exit 1; }

echo "== scale kernel smoke (ASan + UBSan) =="
# 1k mobile nodes through the incremental spatial index: cell migrations,
# the predicted-position prefilter, the parked-pair cache, and the
# timeline hard budgets all run instrumented.
./build-asan/bench/fig_scale_sweep --nodes=1000 --sim_time=2 \
    --index=incremental --cache_stats=1 \
    --json="$smoke_dir/scale_1k.json" >/dev/null
grep -q '^{' "$smoke_dir/scale_1k.json" \
  || { echo "empty JSON sink output: scale_1k.json"; exit 1; }
# Incremental-vs-reference index diff: the receiver-lookup path must be
# invisible to the workload — every request/response and AODV counter
# identical between the incremental index and the full-scan reference
# (only the index name and wall-clock fields may differ).
strip_scale() {
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "sim_s_per_wall_s": [^,}]+//;
          s/"index": "[a-z]+", //' "$1"
}
scale_flags=(--nodes=400 --sim_time=3 --seed=7)
./build-asan/bench/fig_scale_sweep "${scale_flags[@]}" --index=incremental \
    --json="$smoke_dir/scale_inc.json" >/dev/null
./build-asan/bench/fig_scale_sweep "${scale_flags[@]}" --index=scan \
    --json="$smoke_dir/scale_scan.json" >/dev/null
diff <(strip_scale "$smoke_dir/scale_inc.json") \
     <(strip_scale "$smoke_dir/scale_scan.json") \
  || { echo "incremental index output differs from full-scan reference"; exit 1; }

echo "== ThreadSanitizer: engine fan-out, sinks, fabric =="
# TSan build scoped to the concurrency-bearing layer: the exp engine's
# worker pool, the (mutex-guarded) result sinks, the fabric, and a
# multi-threaded sweep driving them all. ASan and TSan cannot share a
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
    --target exp_test fabric_test fig5_detection_static
./build-tsan/tests/exp_test >/dev/null
./build-tsan/tests/fabric_test >/dev/null
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
