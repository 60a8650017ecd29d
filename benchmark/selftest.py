#!/usr/bin/env python3
"""Self-test of the benchmark: a smoke length of every workload.

    python3 benchmark/selftest.py

For each workload it runs benchmark/run.py --smoke untraced and traced,
and asserts that
  * the run is correct and no repetition failed;
  * the metrics printed are exactly those BENCHMARK.json names for the
    mode (end_to_end untraced, per_layer traced), each finite and in its
    unit;
  * the traced spans nest: every span ends after it starts, every child
    lies inside its parent, and every self time is >= 0;
  * the top-level spans of each repetition cover >= 95% of its wall time.
In smoke runs manet_bench also checks its detection runs against the
library's run_multi_detection_experiment and the batched Wilcoxon against
the scalar one. Exits non-zero on the first violation.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPANS = ROOT / ".bench_build" / "selftest.spans.json"


def check(condition, message):
    if not condition:
        sys.exit(f"selftest: {message}")


def check_spans(path):
    spans = json.loads(path.read_text())
    check(spans, "no spans recorded")
    for s in spans:
        check(s["end_ns"] >= s["start_ns"], f"span {s['id']} {s['name']} ends before it starts")
        check(s["self_ns"] >= 0, f"span {s['id']} {s['name']} has negative self time")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            check(p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"],
                  f"span {s['id']} {s['name']} is not inside its parent {p['name']}")
    return len(spans)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
                 "7", "--seconds", "1", "--trace", str(trace), "--smoke", "--spans",
                 str(SPANS)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{label}: run.py exited with {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(result["correct"] and result["failed"] == 0, f"{label}: not correct")
            metrics = result["metrics"]
            check(list(metrics) == [m["name"] for m in expected],
                  f"{label}: metrics differ from BENCHMARK.json")
            for m in expected:
                value = metrics[m["name"]]
                check(isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
                      f"{label}: {m['name']} is not finite")
                check(value["unit"] == m["unit"], f"{label}: {m['name']} unit {value['unit']}")
            if trace:
                count = check_spans(SPANS)
                check(metrics["trace.coverage"]["value"] >= 0.95,
                      f"{label}: top-level spans cover only "
                      f"{metrics['trace.coverage']['value']:.3f} of a repetition")
                print(f"{label}: ok ({count} spans)", flush=True)
            else:
                print(f"{label}: ok", flush=True)
    SPANS.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
