#!/usr/bin/env python3
"""Perf-regression gate for the benchmark baselines.

Compares a freshly generated bench JSON (BENCH_simcore.json, BENCH_grid.json,
BENCH_serve.json, BENCH_fleet.json) against the committed baseline and fails
(exit 1) when a gated metric regressed by more than the threshold. Gated
metrics are the lower-is-better costs:

  * ns_per_measure        — simulated-thermometer measure latency
  * allocs_per_measure    — heap allocations per measure (alloc_probe.h)
  * ingest_ns_per_sample  — serving-layer ingest cost under query load
  * query_p99_us          — serving-layer query tail latency
  * span_p99_us           — fleet span flush→drain tail latency
  * rss_peak_mb           — process peak RSS ceiling
  * rss_growth_mb         — RSS growth across the soak window (fixed-memory
                            stores must hold this near zero)

Keys prefixed ``seed_`` are the frozen pre-optimisation reference points the
benches embed for context; they never change at runtime and are not gated.
Higher-is-better throughput keys (measures_per_sec, samples_per_sec,
speedup_vs_seed, ...) are derived from the gated ones, so gating them too
would double-count.

Section coverage is checked in BOTH directions: a baseline section missing
from the fresh run fails (the bench silently stopped reporting), and a fresh
section missing from the committed baseline fails too (a new bench is running
ungated — commit its numbers to the baseline).

Usage:
  python3 bench/check_bench_regression.py \
      --baseline BENCH_simcore.json --fresh build/BENCH_simcore.json \
      [--threshold 0.25] [--min-allocs 1.0] [--min-abs 1.0]

  python3 bench/check_bench_regression.py --self-test

``--min-allocs``: allocs_per_measure baselines below this are compared by
absolute delta instead of ratio (a 0.015 → 0.04 move is noise, not a 2.5x
regression). ``--min-abs`` applies the same rule to rss_growth_mb, whose
baseline is ~0 by design. ``--self-test`` runs the gate's own unit checks
(no files needed) and exits 0/1 — CI invokes it before trusting the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GATED_METRICS = (
    "ns_per_measure",
    "allocs_per_measure",
    "ingest_ns_per_sample",
    "query_p99_us",
    "span_p99_us",
    "rss_peak_mb",
    "rss_growth_mb",
)
SKIP_PREFIX = "seed_"
# Metrics whose baseline sits near zero by design: gate on absolute delta
# (the ratio of two near-zero numbers is noise).
ABS_DELTA_METRICS = ("allocs_per_measure", "rss_growth_mb")
# Correctness bits (1.0 = pass) the benches embed next to their perf numbers:
# any fresh value below 1.0 is an outright failure, independent of thresholds.
# A section that carries the bit in the baseline must carry it fresh too.
IDENTITY_METRICS = (
    "bit_identical",
    "bit_identical_to_serial",
    "bit_identical_to_in_process",
    "thread_invariant",
)


def load(path: Path) -> dict:
    try:
        with path.open() as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        sys.exit(f"error: {path} not found")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        sys.exit(f"error: {path} must be a JSON object of bench sections")
    return doc


def run_gate(baseline: dict, fresh: dict, *, threshold: float = 0.25,
             min_allocs: float = 1.0, min_abs: float = 1.0):
    """Compares two bench documents. Returns (rows, failures, compared)."""
    rows: list[tuple[str, float, float, str, str]] = []
    failures: list[str] = []
    compared = 0

    for section, base_metrics in sorted(baseline.items()):
        if not isinstance(base_metrics, dict):
            continue
        fresh_metrics = fresh.get(section)
        if not isinstance(fresh_metrics, dict):
            failures.append(f"{section}: missing from fresh results")
            continue
        for metric in GATED_METRICS:
            if metric.startswith(SKIP_PREFIX):
                continue
            if metric not in base_metrics:
                continue
            base = float(base_metrics[metric])
            if metric not in fresh_metrics:
                failures.append(f"{section}.{metric}: missing from fresh run")
                continue
            new = float(fresh_metrics[metric])
            compared += 1

            abs_floor = (min_allocs if metric == "allocs_per_measure"
                         else min_abs)
            if metric in ABS_DELTA_METRICS and base < abs_floor:
                # Near-zero baselines: ratio is meaningless, gate on the
                # absolute climb instead.
                regressed = new > base + abs_floor
                change = f"{new - base:+.3f} abs"
            else:
                ratio = (new - base) / base if base > 0 else 0.0
                regressed = ratio > threshold
                change = f"{ratio:+.1%}"

            verdict = "FAIL" if regressed else "ok"
            rows.append((f"{section}.{metric}", base, new, change, verdict))
            if regressed:
                failures.append(
                    f"{section}.{metric}: {base:g} -> {new:g} ({change}) "
                    f"exceeds the {threshold:.0%} gate")

        for metric in IDENTITY_METRICS:
            if metric not in base_metrics:
                continue
            if metric not in fresh_metrics:
                failures.append(f"{section}.{metric}: missing from fresh run")
                continue
            base = float(base_metrics[metric])
            new = float(fresh_metrics[metric])
            compared += 1
            ok = new >= 1.0
            rows.append((f"{section}.{metric}", base, new,
                         "identity", "ok" if ok else "FAIL"))
            if not ok:
                failures.append(
                    f"{section}.{metric}: correctness bit dropped to {new:g} "
                    f"(must be 1)")

    # The reverse direction: a fresh section with no committed baseline runs
    # ungated forever unless someone notices — so the gate notices.
    for section, fresh_metrics in sorted(fresh.items()):
        if not isinstance(fresh_metrics, dict):
            continue
        if isinstance(baseline.get(section), dict):
            continue
        gatable = [m for m in (*GATED_METRICS, *IDENTITY_METRICS)
                   if m in fresh_metrics]
        if gatable:
            failures.append(
                f"{section}: present in fresh results but missing from the "
                f"baseline — commit its numbers so {', '.join(gatable)} "
                f"are gated")

    return rows, failures, compared


def self_test() -> int:
    """Unit checks for the gate logic itself (CI runs these first)."""
    base = {"bench": {"ns_per_measure": 100.0, "rss_peak_mb": 50.0,
                      "bit_identical_to_in_process": 1.0}}

    def failures_of(fresh, **kw):
        return run_gate(base, fresh, **kw)[1]

    checks = {
        "clean pass": not failures_of(
            {"bench": {"ns_per_measure": 101.0, "rss_peak_mb": 50.0,
                       "bit_identical_to_in_process": 1.0}}),
        "regression caught": any(
            "ns_per_measure" in f for f in failures_of(
                {"bench": {"ns_per_measure": 200.0, "rss_peak_mb": 50.0,
                           "bit_identical_to_in_process": 1.0}})),
        "identity bit enforced": any(
            "correctness bit" in f for f in failures_of(
                {"bench": {"ns_per_measure": 100.0, "rss_peak_mb": 50.0,
                           "bit_identical_to_in_process": 0.0}})),
        "section missing from fresh fails": any(
            "missing from fresh" in f for f in failures_of({})),
        "metric missing from fresh fails": any(
            "rss_peak_mb: missing" in f for f in failures_of(
                {"bench": {"ns_per_measure": 100.0,
                           "bit_identical_to_in_process": 1.0}})),
        "fresh section missing from baseline fails": any(
            "missing from the baseline" in f for f in failures_of(
                {"bench": {"ns_per_measure": 100.0, "rss_peak_mb": 50.0,
                           "bit_identical_to_in_process": 1.0},
                 "new_bench": {"span_p99_us": 10.0}})),
        "ungatable fresh section is ignored": not failures_of(
            {"bench": {"ns_per_measure": 100.0, "rss_peak_mb": 50.0,
                       "bit_identical_to_in_process": 1.0},
             "context_only": {"samples_per_sec": 1e6}}),
        "near-zero abs rule": not failures_of(
            {"bench": {"ns_per_measure": 100.0, "rss_peak_mb": 50.0,
                       "bit_identical_to_in_process": 1.0}},
        ) and not run_gate(
            {"bench": {"rss_growth_mb": 0.01}},
            {"bench": {"rss_growth_mb": 0.5}})[1] and run_gate(
            {"bench": {"rss_growth_mb": 0.01}},
            {"bench": {"rss_growth_mb": 5.0}})[1],
    }

    failed = [name for name, ok in checks.items() if not ok]
    for name, ok in checks.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    if failed:
        print(f"self-test FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"self-test passed: {len(checks)} checks")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path,
                        help="committed BENCH_*.json")
    parser.add_argument("--fresh", type=Path,
                        help="freshly generated BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed relative regression (default 0.25)")
    parser.add_argument("--min-allocs", type=float, default=1.0,
                        help="allocs baselines below this use absolute delta")
    parser.add_argument("--min-abs", type=float, default=1.0,
                        help="rss_growth baselines below this use absolute "
                             "delta (MB)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own unit checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.fresh:
        parser.error("--baseline and --fresh are required (or --self-test)")

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    rows, failures, compared = run_gate(
        baseline, fresh, threshold=args.threshold,
        min_allocs=args.min_allocs, min_abs=args.min_abs)

    name_w = max((len(r[0]) for r in rows), default=20)
    print(f"{'metric':<{name_w}}  {'baseline':>12}  {'fresh':>12}  "
          f"{'change':>10}  verdict")
    for name, base, new, change, verdict in rows:
        print(f"{name:<{name_w}}  {base:>12.4f}  {new:>12.4f}  "
              f"{change:>10}  {verdict}")

    if compared == 0:
        print("error: no gated metrics found in the baseline", file=sys.stderr)
        return 1
    if failures:
        print(f"\nperf gate FAILED ({len(failures)} regression(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {compared} metrics within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
