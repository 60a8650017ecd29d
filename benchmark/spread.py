#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs benchmark/run.py once per seed (untraced) and prints, per metric, the
median of the runs and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of that median, next to the bound
BENCHMARK.json fixes for the metric.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: result not correct")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()), flush=True)

    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"{metric['name']:>22}: median {med:.6g}  spread {spread:.4f}  "
              f"bound {metric['bound']}")


if __name__ == "__main__":
    main()
