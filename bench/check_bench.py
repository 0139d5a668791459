#!/usr/bin/env python3
"""CI perf gate: compare freshly produced bench JSON against the
checked-in baselines and fail on a real throughput regression.

Usage:
    check_bench.py [--fresh-dir DIR] [--baseline-dir DIR] [--tolerance F]

Reads the fresh BENCH_kernels[.smoke].json / BENCH_serve[.smoke].json from
--fresh-dir (default: build/bench_logs, where run_all.sh --smoke puts
them) and the committed BENCH_kernels.json / BENCH_serve.json from
--baseline-dir (default: repo root).

Gating policy — only shared-runner-stable metrics:

* Absolute numbers (ns, req/s) swing an order of magnitude between runner
  generations and are never gated.
* Gated metrics are *ratios* of two measurements taken back-to-back in
  the same process on the same machine (parallel/serial per kernel,
  cached/bypass, batched/unbatched), which cancel the machine out.
* Each ratio must stay within --tolerance (default 30%) of
  min(baseline, bar), where `bar` is the acceptance bar the metric had to
  clear when it was recorded. The min() keeps a lucky, fast baseline run
  from ratcheting the requirement past what the feature ever promised;
  the bar itself still guards the feature's reason to exist.
* Smoke-mode numbers come from tiny operands, so the effective floor is
  deliberately loose — this gate catches "the batcher stopped batching"
  or "the caches stopped caching", not single-digit drift.

Exit status: 0 = pass, 1 = regression, 2 = missing/invalid input.
"""

import argparse
import json
import pathlib
import sys

# metric -> acceptance bar it had to clear when recorded (see ISSUE logs:
# cached/bypass >= 5x in PR 3, batched/unbatched >= 1.5x in PR 4,
# sharded/unsharded >= 1.0x in PR 5 — sharding must not cost throughput
# at equal total workers; multi-core runners see contention relief > 1,
# obs on/off >= 0.95x in PR 8 — full telemetry may cost at most 5% of
# cached-serving throughput, async/blocking >= 1.2x in PR 9 — the device
# submission ring must buy real pipelining over blocking in every mint
# call).
SERVE_RATIOS = {
    "speedup_cached_over_bypass": 5.0,
    "speedup_batched_over_unbatched": 1.5,
    "speedup_sharded_over_unsharded": 1.0,
    "obs_on_over_off": 0.95,
    "device_inflight_over_blocking": 1.2,
}

# Latency-quantile fields printed for the record but never gated: they are
# absolute microsecond numbers (runner-dependent) and log2-bucket upper
# bounds besides. Keys are (mode object, field) paths into the serve JSON.
SERVE_INFO_QUANTILES = (
    ("cached", "closed_loop_p50_us"),
    ("cached", "closed_loop_p95_us"),
    ("cached", "closed_loop_p99_us"),
    ("cached", "queue_wait_p50_us"),
    ("cached", "queue_wait_p99_us"),
    ("batched", "p99_us"),
    ("batched", "queue_wait_p99_us"),
    ("obs_on", "p99_us"),
    ("obs_off", "p99_us"),
    ("device_async", "p99_us"),
    ("device_blocking", "p99_us"),
)

# Per-kernel parallel-over-serial speedup. Bar 1.0: the OpenMP path must
# not be slower than serial. (The committed baseline is recorded by
# run_all.sh at the host's core count, see its "threads" field; a
# single-core runner sits near 1.0 and still clears the floor.)
KERNEL_BAR = 1.0

# Per-kernel SIMD-over-scalar speedup, gated only for the kernels whose
# inner loops were vectorized in PR 7 (SpMV/SpMM/GEMM; SpGEMM and the
# tensor kernels gained cache blocking, not a lane-parallel inner loop).
# Both measurements come from the same process at one thread, so the
# ratio is runner-stable. Gating auto-skips when the fresh run reports
# the host lacks AVX2+FMA (portable-fallback CI job) or the baseline
# predates the field.
SIMD_BAR = 1.15
SIMD_GATED_KERNELS = ("SpMV", "SpMM", "GEMM")

# A kernel row is only gate-worthy if its serial measurement ran long
# enough to rise above timer/warmup noise. Smoke-mode operands finish in
# microseconds, where a single-rep "speedup" is meaningless in either
# direction; full-mode rows (1-100+ ms) all clear this easily.
MIN_GATE_SERIAL_MS = 1.0


def load(path: pathlib.Path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        print(f"perf-gate: missing {path}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"perf-gate: invalid JSON in {path}: {e}", file=sys.stderr)
        sys.exit(2)


def pick(dir_: pathlib.Path, stem: str) -> pathlib.Path:
    """Prefer the smoke-suffixed file (what run_all.sh --smoke writes)."""
    smoke = dir_ / f"{stem}.smoke.json"
    return smoke if smoke.exists() else dir_ / f"{stem}.json"


def gate(name: str, fresh: float, baseline: float, bar: float,
         tolerance: float) -> bool:
    required = (1.0 - tolerance) * min(baseline, bar)
    ok = fresh >= required
    verdict = "ok  " if ok else "FAIL"
    print(f"  {verdict} {name}: fresh {fresh:.3f} vs required >= "
          f"{required:.3f} (baseline {baseline:.3f}, bar {bar:.2f})")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh-dir", default="build/bench_logs",
                    type=pathlib.Path)
    ap.add_argument("--baseline-dir", default=".", type=pathlib.Path)
    ap.add_argument("--tolerance", default=0.30, type=float,
                    help="allowed fractional regression (default 0.30)")
    args = ap.parse_args()

    ok = True

    print("perf-gate: serve ratios")
    fresh_serve = load(pick(args.fresh_dir, "BENCH_serve"))
    base_serve = load(args.baseline_dir / "BENCH_serve.json")
    for metric, bar in SERVE_RATIOS.items():
        if metric not in base_serve:
            print(f"  skip {metric}: not in baseline (pre-feature record)")
            continue
        if metric not in fresh_serve:
            print(f"  FAIL {metric}: missing from fresh run", file=sys.stderr)
            ok = False
            continue
        ok &= gate(metric, float(fresh_serve[metric]),
                   float(base_serve[metric]), bar, args.tolerance)

    print("perf-gate: serve latency quantiles (info only, not gated)")
    for mode, field in SERVE_INFO_QUANTILES:
        value = fresh_serve.get(mode, {}).get(field)
        if value is None:
            print(f"  info {mode}.{field}: absent (pre-feature bench)")
        else:
            print(f"  info {mode}.{field}: {float(value):.1f} us")

    print("perf-gate: kernel parallel/serial speedups")
    fresh_k = load(pick(args.fresh_dir, "BENCH_kernels"))
    base_k = load(args.baseline_dir / "BENCH_kernels.json")
    base_by_kernel = {r["kernel"]: r for r in base_k.get("results", [])}
    for row in fresh_k.get("results", []):
        base_row = base_by_kernel.get(row["kernel"])
        if base_row is None:
            print(f"  skip {row['kernel']}: not in baseline")
            continue
        if float(row.get("serial_ms", 0.0)) < MIN_GATE_SERIAL_MS:
            print(f"  skip {row['kernel']}: serial run too short to gate "
                  f"({row.get('serial_ms', 0.0)} ms < {MIN_GATE_SERIAL_MS})")
            continue
        ok &= gate(row["kernel"], float(row["speedup"]),
                   float(base_row["speedup"]), KERNEL_BAR, args.tolerance)

    print("perf-gate: kernel simd/scalar speedups")
    if not fresh_k.get("simd_supported", False):
        print("  skip all: fresh run reports no AVX2+FMA on this host")
    else:
        for row in fresh_k.get("results", []):
            if row["kernel"] not in SIMD_GATED_KERNELS:
                continue
            base_row = base_by_kernel.get(row["kernel"], {})
            if "simd_over_scalar" not in base_row:
                print(f"  skip {row['kernel']}: not in baseline "
                      "(pre-feature record)")
                continue
            if "simd_over_scalar" not in row:
                print(f"  FAIL {row['kernel']}: simd_over_scalar missing "
                      "from fresh run", file=sys.stderr)
                ok = False
                continue
            if float(row.get("serial_ms", 0.0)) < MIN_GATE_SERIAL_MS:
                print(f"  skip {row['kernel']}: serial run too short to "
                      f"gate ({row.get('serial_ms', 0.0)} ms < "
                      f"{MIN_GATE_SERIAL_MS})")
                continue
            ok &= gate(f"{row['kernel']} (simd)",
                       float(row["simd_over_scalar"]),
                       float(base_row["simd_over_scalar"]), SIMD_BAR,
                       args.tolerance)

    # Planner-path rows (SAGE search ms/call, MCF -> COO ns/nnz): absolute
    # single-thread times, so info only. A return to comparison sorts or
    # dense decodes shows as a several-fold jump over the committed value.
    print("perf-gate: planner path (info only, not gated)")
    base_plan = {r["name"]: r for r in base_k.get("planner", [])}
    for row in fresh_k.get("planner", []):
        base_row = base_plan.get(row["name"])
        ref = (f" (baseline {float(base_row['value']):.4f})"
               if base_row is not None else " (not in baseline)")
        print(f"  info {row['name']}: {float(row['value']):.4f} "
              f"{row['unit']}{ref}")

    if not ok:
        print("perf-gate: REGRESSION — throughput ratios fell more than "
              f"{args.tolerance:.0%} below the gated floor", file=sys.stderr)
        return 1
    print("perf-gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
