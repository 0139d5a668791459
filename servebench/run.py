#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload steady_mix --seed 1 --seconds 20 --trace 0

Configures and builds servebench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR/servebench, default .bench_build/servebench, then
runs one measurement. Everything the binary prints is passed through; the
last line is the result object with exactly the metrics BENCHMARK.json
declares: its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. A traced run also writes its request span trees to
<build>/traces/<workload>.jsonl (the latest traced run).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("steady_mix", "operand_churn", "device_auto")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"servebench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "servebench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("library sources (src/) not found next to servebench/")
        return None
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "servebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        log("build failed")
        return None
    binary = out / "servebench"
    return binary if binary.is_file() else None


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for d in ("src", "servebench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    section = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in json.loads(spec.read_text())[section]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = r.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark exited with code {r.returncode} and no result")
        return r.returncode or 4
    for line in lines[:-1]:
        print(line)

    declared = declared_metrics(args.trace)
    if declared is not None:
        got = result["metrics"]
        missing = [n for n, _ in declared if n not in got]
        if missing and not args.trace:
            log(f"end-to-end metrics missing from the result: {missing}")
            return 5
        # A per-layer metric the workload never exercises (a kernel pair
        # its plans do not run, the device ring on a host-only workload)
        # reads zero.
        result["metrics"] = {
            n: got.get(n, {"value": 0, "unit": u}) for n, u in declared}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return 0 if r.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
