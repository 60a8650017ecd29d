#!/usr/bin/env python3
"""Build the manet_bench program from source and run one workload.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

manet_bench (benchmark/*.cpp linked against the libraries in src/) is
configured and built into .bench_build/ on first use, optimized like the
`bench` CMake preset (Release, -O3, IPO); later runs only rebuild what
changed. A build tree whose CMAKE_BUILD_TYPE is not Release, or whose
release flags lack -O3, is refused. Every result records the source
revision, build type, compiler and nproc (first lines of the output and
.bench_build/results/). The last line of standard output is the JSON
result; benchmark/README.md describes the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build"
WORKLOADS = ("paper_grid", "allpairs_deg8", "scale_rwp_1k")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def source_revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if rev.returncode == 0:
                return rev.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.md5()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-md5-" + digest.hexdigest()[:16]


def cmake_cache(build_dir):
    values = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(("//", "#")) or "=" not in line:
            continue
        key, _, value = line.partition("=")
        values[key.split(":")[0]] = value
    return values


def check_build_tree(build_dir):
    """Refuses to time an unoptimized tree (an empty CMAKE_BUILD_TYPE adds
    no optimization flag)."""
    cache = cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = cache.get("CMAKE_CXX_FLAGS_RELEASE", "").split()
    if build_type != "Release" or "-O3" not in flags:
        fail(f"refusing to time {build_dir}: CMAKE_BUILD_TYPE='{build_type}', "
             f"release flags {flags}; configure it like the bench preset "
             "(Release, -O3)", 3)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run([str(c) for c in cmd], stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    check_build_tree(build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target", "manet_bench"],
              BUILD_TIMEOUT_S)
    return build_dir / "manet_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short runs of the same shape (self-test)")
    parser.add_argument("--build-dir", type=Path, default=OUT_DIR / "release",
                        help="CMake build tree of benchmark/ to use")
    parser.add_argument("--spans", type=Path, help="where to write the traced spans")
    args = parser.parse_args()
    # Exit through Python on SIGTERM so subprocess.run kills and reaps the
    # program instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build(args.build_dir.resolve())
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", OUT_DIR / "work", "--out", results / f"{tag}.json",
           "--spans", args.spans or results / f"{tag}.spans.json",
           "--rev", source_revision()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"manet_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"manet_bench exited with code {proc.returncode}", proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                      "metrics"}:
        sys.stderr.write(proc.stdout)
        fail("manet_bench printed no result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
