#!/usr/bin/env python3
"""Builds bench_pipeline, runs its workloads, reduces and compares results.

One run (the form BENCHMARK.json's command takes):
  python3 bench/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1
  Prints one JSON object as the last line of stdout with the keys correct,
  attempted, failed and metrics: BENCHMARK.json's end-to-end metrics with
  --trace 0, its per-layer metrics with --trace 1.

A result set:
  python3 bench/pipeline/run.py repeat --runs 5 --out results.json
  Runs every workload --runs times in alternating order, one process each,
  with BENCHMARK.json's run_seconds, plus one traced run per workload, and
  writes median, quartiles, min, max and n per metric with a host stamp.

A comparison:
  python3 bench/pipeline/run.py compare BASE.json NEW.json
  Refuses two sets that differ in run length, seeds or host. One row per
  workload and end-to-end metric, judged by BENCHMARK.json's bounds. Exit 1
  on a regression, a correctness drop, a rise in fail_frac on any seed or a
  rise in failed operations; exit 2 when nothing failed but some row is
  unresolved; else 0.

  python3 bench/pipeline/run.py --self-test   checks the comparison rules.

The build lives in build-bench/ at the repository root, configured through
the project-include hook, so nothing outside bench/pipeline changes.
"""
import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HOOK = ROOT / "bench" / "pipeline" / "hook.cmake"
BUILD = ROOT / "build-bench"
BINARY = BUILD / "bench_pipeline"
BENCHMARK = ROOT / "BENCHMARK.json"

# setup_s is the fastest of this many process starts per run (about 6 ms
# each): half before the window, half after, SETUP_GAP_S apart. Set-up is
# single-threaded, deterministic work that other tenants of a shared host
# can only slow down. For minutes at a time they slow half or more of all
# starts by about 1.5x, in CPU time as much as in wall time. The median of a
# run's starts follows those phases (it moved by 37 % between two sweeps);
# the fastest start does not, and work added to set-up still raises it.
SETUP_STARTS = 21
SETUP_GAP_S = 0.2
# Configure + build, all steps together.
BUILD_BUDGET_S = 700
# A run's budget past its window: setup starts, output checks and the replay.
RUN_SLACK_S = 150


def remaining(deadline):
    return max(1.0, deadline - time.monotonic())


class BenchError(Exception):
    pass


def load_benchmark():
    try:
        return json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {BENCHMARK.name}: {e}")


def run_group(cmd, timeout, stderr=subprocess.PIPE):
    """Runs cmd in a process group of its own and returns (exit code, stdout,
    stderr). On a timeout the whole group — fleet workers, compiler jobs —
    is killed and waited for before BenchError is raised."""
    try:
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                             text=True, start_new_session=True)
    except OSError as e:
        raise BenchError(f"{cmd[0]}: {e}")
    try:
        out, err = p.communicate(timeout=timeout)
        return p.returncode, out, err or ""
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(p.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        raise BenchError(f"{' '.join(cmd)}: timed out after {timeout} s")


def build():
    """Configures once, then brings bench_pipeline up to date."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-B", str(BUILD), "-S", str(ROOT),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DCMAKE_PROJECT_psnt_INCLUDE={HOOK}"])
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "bench_pipeline", "-j", jobs])
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        code, out, _ = run_group(cmd, remaining(deadline),
                                 stderr=subprocess.STDOUT)
        if code != 0:
            sys.stderr.write(out[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def launch(args, timeout):
    """One bench_pipeline process; returns its JSON report."""
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as steady_clock in the child
    code, out, err = run_group([str(BINARY), *args, "--t0-ns", str(t0)],
                               timeout)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"bench_pipeline {' '.join(args)} exited {code}")
    return json.loads(lines[-1])


def setup_starts(base, count, deadline):
    values = []
    for _ in range(count):
        time.sleep(SETUP_GAP_S)
        r = launch(base + ["--setup-only"], remaining(deadline))
        values.append(r["metrics"]["setup_s"]["value"])
    return values


def one_run(workload, seed, seconds, trace):
    """A workload run; untraced, setup_s is the fastest of SETUP_STARTS
    process starts, the window's own included."""
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace:
        return launch(base + ["--trace"], remaining(deadline))
    setups = setup_starts(base, SETUP_STARTS // 2, deadline)
    report = launch(base, remaining(deadline))
    setups.append(report["metrics"]["setup_s"]["value"])
    setups += setup_starts(base, SETUP_STARTS // 2, deadline)
    report["metrics"]["setup_s"]["value"] = min(setups)
    report["samples"]["setup_starts"] = len(setups)
    return report


def contract_result(report, bench, trace):
    """The contract view of one report: exactly the listed metrics."""
    listed = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in listed:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            raise BenchError(f"{report['workload']}: metric {m['name']} "
                             "missing from the report")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got['unit']} in the report, "
                             f"{m['unit']} in {BENCHMARK.name}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


# --- statistics ----------------------------------------------------------

def describe(values):
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": values[0],
            "max": values[-1], "n": len(values)}


def spread(stats):
    """Distance between the quartiles as a share of the median."""
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) \
        if stats["median"] else 0.0


def reduce_runs(runs):
    """Per-metric statistics over the reports of one workload."""
    by_metric = {}
    for r in runs:
        for name, m in r["metrics"].items():
            if m["value"] is not None:
                by_metric.setdefault(name, (m["unit"], []))[1].append(
                    m["value"])
    return {name: dict(describe(vals), unit=unit)
            for name, (unit, vals) in sorted(by_metric.items())}


def host_stamp(report):
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "simd": report["build"]["simd"],
            "compiler": report["build"]["compiler"],
            "build_type": report["build"]["build_type"],
            "git_sha": sha, "platform": platform.platform()}


def repeat(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    untraced = {w: [] for w in names}
    traced = {w: [] for w in names}
    started = time.monotonic()
    for i in range(args.runs):
        for w in (names if i % 2 == 0 else names[::-1]):
            untraced[w].append(one_run(w, args.seed + i, seconds, False))
            print(f"run {i + 1}/{args.runs} {w}: correct="
                  f"{untraced[w][-1]['correct']}", file=sys.stderr)
    for w in names:
        traced[w].append(one_run(w, args.seed, seconds, True))
    elapsed = time.monotonic() - started
    result = {
        "host": host_stamp(untraced[names[0]][0]),
        "seconds": seconds, "runs": args.runs,
        "seeds": [args.seed + i for i in range(args.runs)],
        "elapsed_s": elapsed, "workloads": {}}
    for w in names:
        stats = reduce_runs(untraced[w])
        layer = reduce_runs(traced[w])
        for name, s in layer.items():
            stats.setdefault(name, s)
        result["workloads"][w] = {
            "correct": all(r["correct"] for r in untraced[w] + traced[w]),
            "checks": sorted({c for r in untraced[w] + traced[w]
                              for c in r["checks"]}),
            "stats": stats,
            "samples": [r["samples"] for r in untraced[w]],
            "runs": [{"seed": r["seed"], "trace": r["trace"],
                      "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: v["value"]
                                  for k, v in r["metrics"].items()}}
                     for r in untraced[w] + traced[w]]}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out} ({elapsed:.0f} s)", file=sys.stderr)
    return 0


# --- comparison ----------------------------------------------------------

def untraced_runs(workload):
    """The runs the statistics describe."""
    return [r for r in workload["runs"] if not r.get("trace")]


def run_values(workload, name):
    return [r["metrics"][name] for r in untraced_runs(workload)
            if r["metrics"].get(name) is not None]


def check_comparable(base, new):
    """Two sets are compared only when measured alike."""
    for key in ("seconds", "seeds"):
        if base[key] != new[key]:
            raise BenchError(f"the sets differ in {key}: {base[key]} vs "
                             f"{new[key]}")
    for key in ("cpu", "nproc", "build_type"):
        if base["host"][key] != new["host"][key]:
            raise BenchError(f"the sets ran on different hosts ({key}: "
                             f"{base['host'][key]} vs {new['host'][key]})")


def compare_sets(base, new, bench):
    """Rows of (workload, metric, status, detail); status is one of pass,
    regression, unresolved, correct-drop, fail-rise, failed-rise."""
    rows = []
    for w, b in base["workloads"].items():
        n = new["workloads"].get(w)
        if n is None:
            rows.append((w, "-", "unresolved", "workload missing from NEW"))
            continue
        if b["correct"] and not n["correct"]:
            rows.append((w, "correct", "correct-drop",
                         "; ".join(n.get("checks", [])) or "check failed"))
        # fail_frac is fixed per seed, so runs pair by seed.
        base_fail = {r["seed"]: r["metrics"]["fail_frac"]
                     for r in untraced_runs(b)}
        for r in untraced_runs(n):
            before, after = base_fail[r["seed"]], r["metrics"]["fail_frac"]
            if after > before:
                rows.append((w, "fail_frac", "fail-rise",
                             f"seed {r['seed']}: {before:.6g} -> {after:.6g}"))
        bfailed = sum(r["failed"] for r in b["runs"])
        nfailed = sum(r["failed"] for r in n["runs"])
        if nfailed > bfailed:
            rows.append((w, "failed", "failed-rise",
                         f"{bfailed} -> {nfailed} failed operations"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bs, ns = b["stats"].get(name), n["stats"].get(name)
            if bs is None or ns is None:
                rows.append((w, name, "unresolved", "metric missing"))
                continue
            lower = m["better"] == "lower"
            worse = ((ns["median"] - bs["median"]) if lower
                     else (bs["median"] - ns["median"])) / abs(bs["median"])
            noise = max(spread(bs), spread(ns))
            detail = (f"{bs['median']:.6g} -> {ns['median']:.6g} "
                      f"({-worse:+.1%}), spread {noise:.1%}, bound {bound:.0%}")
            bv, nv = run_values(b, name), run_values(n, name)
            all_better = bool(bv and nv) and (
                max(nv) < min(bv) if lower else min(nv) > max(bv))
            if noise > bound and not all_better:
                status = "unresolved"
            elif worse > bound:
                status = "regression"
            else:
                status = "pass"
            rows.append((w, name, status, detail))
    return rows


def compare(base_path, new_path, bench):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    check_comparable(base, new)
    rows = compare_sets(base, new, bench)
    for w, name, status, detail in rows:
        print(f"{w:16s} {name:14s} {status:12s} {detail}")
    return verdict(rows)


def verdict(rows):
    statuses = {r[2] for r in rows}
    if statuses & {"regression", "correct-drop", "fail-rise", "failed-rise"}:
        return 1
    return 2 if "unresolved" in statuses else 0


def self_test():
    bench = {"end_to_end": [
        {"name": "samples_per_s", "unit": "samples/s", "better": "higher",
         "bound": 0.1},
        {"name": "fresh_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    fresh = [1.0, 1.01, 0.99, 1.0, 1.0]
    setup = [0.006, 0.0061, 0.0059, 0.006, 0.006]
    fail = [0.10, 0.12, 0.14, 0.08, 0.06]  # per seed, median 0.10
    host = {"cpu": "x", "nproc": 4, "build_type": "Release"}

    def result_set(rate, fresh=fresh, setup=setup, correct=True, fail=fail,
                   failed=(0,) * 5, seconds=15):
        series = {"samples_per_s": rate, "fresh_p50_ms": fresh,
                  "setup_s": setup, "fail_frac": fail}
        runs = [{"seed": i + 1, "trace": False, "failed": failed[i],
                 "metrics": {k: v[i] for k, v in series.items()}}
                for i in range(len(rate))]
        stats = {k: describe(v) for k, v in series.items()}
        return {"seconds": seconds, "seeds": [1, 2, 3, 4, 5], "host": host,
                "workloads": {"w": {"correct": correct, "checks": [],
                                    "stats": stats, "runs": runs}}}

    base = result_set(steady)
    cases = [
        ("pass", result_set([99.0, 100.0, 98.0, 99.5, 98.5]), 0, {"pass"}),
        ("regression", result_set([85.0, 86.0, 84.0, 85.5, 84.5]), 1,
         {"regression", "pass"}),
        ("unresolved", result_set([60.0, 140.0, 100.0, 70.0, 130.0]), 2,
         {"unresolved", "pass"}),
        ("all runs better despite spread",
         result_set([120.0, 200.0, 160.0, 125.0, 190.0]), 0, {"pass"}),
        ("identity drop", result_set(steady, correct=False), 1,
         {"correct-drop", "pass"}),
        ("failed-share rise on one seed, median held",
         result_set(steady, fail=[0.10, 0.12, 0.14, 0.08, 0.09]), 1,
         {"fail-rise", "pass"}),
        ("failed operations rise", result_set(steady, failed=(0, 0, 2, 0, 0)),
         1, {"failed-rise", "pass"}),
        ("fresh regression",
         result_set(steady, fresh=[1.3, 1.31, 1.29, 1.3, 1.3]), 1,
         {"regression", "pass"}),
        ("setup spread wider than the bound",
         result_set(steady, setup=[0.004, 0.009, 0.0062, 0.0058, 0.01]), 2,
         {"unresolved", "pass"}),
        ("other run length", result_set(steady, seconds=30), "refused", None),
    ]
    ok = True
    for label, new, want_exit, want_statuses in cases:
        try:
            check_comparable(base, new)
            rows = compare_sets(base, new, bench)
            got_exit, got_statuses = verdict(rows), {r[2] for r in rows}
        except BenchError:
            got_exit, got_statuses = "refused", None
        good = got_exit == want_exit and got_statuses == want_statuses
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {label}: exit {got_exit}, "
              f"{sorted(got_statuses or [])}")
    return 0 if ok else 1


# --- entry ---------------------------------------------------------------

def main(argv):
    if argv[:1] == ["--self-test"]:
        return self_test()
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        a = p.parse_args(argv[1:])
        return compare(a.base, a.new, load_benchmark())
    if argv[:1] == ["repeat"]:
        p = argparse.ArgumentParser(prog="run.py repeat")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--seed", type=int, default=1,
                       help="run i uses seed + i")
        p.add_argument("--out", required=True)
        a = p.parse_args(argv[1:])
        bench = load_benchmark()
        build()
        return repeat(a, bench)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    bench = load_benchmark()
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        raise BenchError(f"unknown workload {a.workload}")
    build()
    report = one_run(a.workload, a.seed, a.seconds, bool(a.trace))
    print(json.dumps(contract_result(report, bench, bool(a.trace))))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
