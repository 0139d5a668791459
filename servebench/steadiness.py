#!/usr/bin/env python3
"""Run-to-run steadiness of the serving benchmark.

Usage (from the repository root):

    python3 servebench/steadiness.py [--runs 10] [--workloads a,b] [--seed0 1]
                                     [--seconds S] [--out FILE]

Runs each workload --runs times untraced (each run on its own seed) and as
many times traced. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median. A metric whose spread
exceeds its bound in BENCHMARK.json is flagged "OVER"; one above a third
of its bound is marked "wide". The traced runs give the per-layer medians
and the tracing overhead: traced over untraced median throughput_rps.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "servebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {r.returncode})")
    detail = {}
    for line in lines:
        if line.startswith("SERVEBENCH_DETAIL "):
            detail = json.loads(line.split(" ", 1)[1])
    return json.loads(lines[-1]), detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="write every run's numbers here as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    flagged = 0
    invalid = 0
    for w in args.workloads.split(","):
        plain, traced = [], []
        for i in range(args.runs):
            seed = args.seed0 + i
            res, det = run_once(w, seed, args.seconds, 0)
            plain.append({k: v["value"] for k, v in res["metrics"].items()})
            if not det.get("loadgen", {}).get("valid", True):
                invalid += 1
                print(f"{w} seed {seed}: INVALID, the load generator fell "
                      "behind", flush=True)
            print(f"{w} seed {seed}: untraced, {res['attempted']} requests, "
                  f"{res['failed']} failed, loadgen "
                  f"{det.get('loadgen', {})}", flush=True)
            res, det = run_once(w, seed, args.seconds, 1)
            row = {k: v["value"] for k, v in res["metrics"].items()}
            row["throughput_rps"] = det["metrics"]["throughput_rps"]["value"]
            traced.append(row)
        record[w] = {"untraced": plain, "traced": traced}
        print(f"\n== {w}: {args.runs} runs, {args.seconds:g} s each")
        print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name in plain[0]:
            q1, med, q3, sp = spread([r[name] for r in plain])
            bound = bounds.get(name)
            mark = ""
            if bound is not None and sp > bound:
                mark, flagged = "  OVER", flagged + 1
            elif bound is not None and sp > bound / 3:
                mark = "  wide"
            print(f"{name:<34}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>9.3f}"
                  f"{bound if bound is not None else '':>8}{mark}")
        ratio = (statistics.median(r["throughput_rps"] for r in traced) /
                 statistics.median(r["throughput_rps"] for r in plain))
        print(f"tracing overhead: traced/untraced throughput_rps = "
              f"{ratio:.3f}")
        print("per-layer medians (traced runs):")
        for name in traced[0]:
            if name == "throughput_rps":
                continue
            med = statistics.median(r[name] for r in traced)
            print(f"  {name:<40}{med:>16.6g}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if flagged:
        print(f"{flagged} metric(s) spread beyond their bound")
    if invalid:
        print(f"{invalid} run(s) invalid: the load generator fell behind")
    return 1 if flagged or invalid else 0


if __name__ == "__main__":
    sys.exit(main())
