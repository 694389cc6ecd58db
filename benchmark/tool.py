#!/usr/bin/env python3
"""Tooling around socbench, driven by /BENCHMARK.json.

  tool.py smoke            run every workload (those of BENCHMARK.json and the
                           instant-device extras) for 2 s with --trace 0 and 1
                           and check the output against BENCHMARK.json
  tool.py aa [-k N] [--seed S] [--workloads a,b] [--seconds T] [--out FILE]
                           A/A noise protocol: N runs per side (default 5), the
                           sides alternating, seeds S..S+N-1; prints per-metric
                           medians, quartile spreads and the relative median
                           difference, and fails if a spread (except setup_s)
                           or a difference exceeds the metric's bound

Both run the benchmark exactly as the driver does: BENCHMARK.json's command,
from the repository root, plus --workload/--seed/--seconds/--trace.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# Workloads the binary has beyond those of BENCHMARK.json (spec.rs): the same
# code on instant devices, too noisy on a shared host for the driver's gate.
EXTRA = ["commit_instant", "read_instant"]


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the parsed result line."""
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stdout[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.time() - t0
    result["stdout"] = lines[:-1]
    return result


def check_result(workload, trace, result):
    """The contract: exact keys, every declared metric with its unit, nothing else."""
    errors = []
    if set(result) - {"wall_s", "stdout"} != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"failed {result.get('failed')}")
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    for name in sorted(set(declared) | set(got)):
        if name not in got:
            errors.append(f"{name}: declared, not printed")
        elif name not in declared:
            errors.append(f"{name}: printed, not declared")
        elif got[name] != declared[name]:
            errors.append(f"{name}: unit {got[name]!r}, declared {declared[name]!r}")
        elif not isinstance(result["metrics"][name].get("value"), (int, float)):
            errors.append(f"{name}: value is not a number")
        elif not trace and result["metrics"][name]["value"] <= 0:
            errors.append(f"{name}: end-to-end value {result['metrics'][name]['value']} is not positive")
    return [f"{workload} --trace {trace}: {e}" for e in errors]


def smoke(_args):
    errors = []
    for name in [w["name"] for w in BENCH["workloads"]] + EXTRA:
        for trace in (0, 1):
            r = run(name, 1, 2, trace)
            errors += check_result(name, trace, r)
            print(f"{name} --trace {trace}: {r['wall_s']:.1f} s, "
                  f"{r['attempted']} ops, {len(r['metrics'])} metrics")
    for e in errors:
        print("FAIL", e)
    sys.exit(1 if errors else 0)


def spread(values):
    """Distance between the quartiles as a share of the median (the driver's rule)."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def aa(args):
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in BENCH["workloads"]]
    metrics = BENCH["end_to_end"]
    values = {(w, side, m["name"]): [] for w in names for side in "AB" for m in metrics}
    walls = []
    for i in range(args.k):
        for side in ("AB" if i % 2 == 0 else "BA"):
            for w in names:
                r = run(w, args.seed + i, args.seconds, 0)
                errs = check_result(w, 0, r)
                if errs:
                    sys.exit("\n".join(errs))
                walls.append(r["wall_s"])
                for m in metrics:
                    values[(w, side, m["name"])].append(r["metrics"][m["name"]]["value"])
                print(f"[{time.strftime('%H:%M:%S')}] run {i + 1}/{args.k} side {side} {w}: "
                      f"{r['wall_s']:.1f} s", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({f"{w}/{s}/{m}": v for (w, s, m), v in values.items()}, f, indent=1)
    failed = []
    print(f"A/A: k={args.k} per side, seeds {args.seed}..{args.seed + args.k - 1}, "
          f"run_seconds={args.seconds}, mean wall {statistics.mean(walls):.1f} s/run, "
          f"finished {time.strftime('%Y-%m-%d %H:%M:%S')}")
    print("| workload | metric | median A | median B | IQR/med A | IQR/med B | B worse by | bound | |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for w in names:
        for m in metrics:
            a, b = values[(w, "A", m["name"])], values[(w, "B", m["name"])]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = (spread(a), spread(b)) if args.k >= 2 else (0.0, 0.0)
            bad = abs(worse) > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
            if bad:
                failed.append(f"{w} {m['name']}")
            print(f"| {w} | {m['name']} | {ma:.4g} | {mb:.4g} | {sa:.1%} | {sb:.1%} | "
                  f"{worse:+.1%} | {m['bound']:.0%} | {'FAIL' if bad else 'ok'} |")
    if args.traced:
        print("\n| workload | harness.rep_spread_pct | harness.trace_overhead_pct |")
        print("|---|---:|---:|")
        for w in names:
            r = run(w, args.seed, args.seconds, 1)
            errs = check_result(w, 1, r)
            if errs:
                sys.exit("\n".join(errs))
            mm = r["metrics"]
            print(f"| {w} | {mm['harness.rep_spread_pct']['value']:.1f} | "
                  f"{mm['harness.trace_overhead_pct']['value']:.2f} |")
    if failed:
        print("outside their bound: " + ", ".join(failed))
    sys.exit(1 if failed else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("smoke").set_defaults(fn=smoke)
    p = sub.add_parser("aa")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--out", default="")
    p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    p.set_defaults(fn=aa)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
