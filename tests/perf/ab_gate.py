#!/usr/bin/env python3
"""Same-runner A/B gate: a change's end-to-end metrics against its parent's.

Usage (from anywhere):

    python3 tests/perf/ab_gate.py --parent <tree> --change <tree> \
        [--pairs 5] [--seconds 2] [--seed 1] [--workloads w1,w2] \
        [--build-root .ab_build] [--moved mean_pst]

Each tree is a full source checkout. The gate reads only the change's
BENCHMARK.json (benchmark command, workloads, end-to-end metrics and their
bounds) and each tree's e2ebench/. It builds each tree's e2e_bench under
its own CARGO_TARGET_DIR (<build-root>/parent and <build-root>/change),
then runs --pairs pairs per workload with --trace 0, alternating which
tree goes first, and prints every pair.

Absolute figures do not carry across machines, but the ratio of two runs
on one machine does. For every bounded end-to-end metric the pair ratio is
change / parent for a lower-is-better metric and parent / change for a
higher-is-better one, so a ratio above 1 is always worse. The gate fails
when, on any workload:
  - a run fails, prints "correct": false, or fails a larger share of jobs
    than its partner;
  - the median pair ratio of a metric exceeds 1 + its bound;
  - on unique_burst or vqe_sweep, a deterministic metric (mean_pst,
    mean_jsd, hw_throughput, modeled_drain_s) differs within a pair,
    unless it is named with --moved.
Exits 0 when the gate passes, 1 when it fails, 2 on a build failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DETERMINISTIC_WORKLOADS = ("unique_burst", "vqe_sweep")
DETERMINISTIC_METRICS = ("mean_pst", "mean_jsd", "hw_throughput",
                         "modeled_drain_s")


def run(tree, target_dir, command, workload, seconds, seed):
    """One benchmark run; returns its JSON result, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def failed_share(result):
    return result["failed"] / max(1, result["attempted"])


def worse_ratio(metric, parent, change):
    """Pair ratio oriented so that a value above 1 means the change is worse."""
    a = parent["metrics"][metric["name"]]["value"]
    b = change["metrics"][metric["name"]]["value"]
    if a == b:
        return 1.0
    if metric["better"] == "lower":
        return b / a if a else float("inf")
    return a / b if b else float("inf")


def gate_workload(args, trees, targets, bench, workload):
    """Run the pairs of one workload; returns its list of failure messages."""
    bounded = [m for m in bench["end_to_end"] if "bound" in m]
    ratios = {m["name"]: [] for m in bounded}
    failures = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            results[side] = run(trees[side], targets[side], bench["command"],
                                workload, args.seconds, args.seed)
        parent, change = results["parent"], results["change"]
        if parent is None or change is None:
            failures.append(f"pair {i}: a run exited without a result")
            continue
        for side in order:
            if not results[side]["correct"]:
                failures.append(f"pair {i}: {side} reads correct: false")
        if failed_share(change) > failed_share(parent):
            failures.append(f"pair {i}: change fails {change['failed']} of "
                            f"{change['attempted']} jobs, parent "
                            f"{parent['failed']} of {parent['attempted']}")
        cells = []
        for m in bounded:
            r = worse_ratio(m, parent, change)
            ratios[m["name"]].append(r)
            a = parent["metrics"][m["name"]]["value"]
            b = change["metrics"][m["name"]]["value"]
            cells.append(f"{m['name']} {a:.6g} -> {b:.6g} ({r:.3f})")
        print(f"{workload} pair {i} [{' first, '.join(order)} second]: "
              + "; ".join(cells), flush=True)
        if workload in DETERMINISTIC_WORKLOADS:
            for name in DETERMINISTIC_METRICS:
                if name in args.moved:
                    continue
                a = parent["metrics"][name]["value"]
                b = change["metrics"][name]["value"]
                if a != b:
                    failures.append(f"pair {i}: deterministic {name} moved "
                                    f"{a!r} -> {b!r}")
    for m in bounded:
        if not ratios[m["name"]]:
            continue
        median = statistics.median(ratios[m["name"]])
        limit = 1.0 + m["bound"]
        verdict = "ok" if median <= limit else "WORSE"
        print(f"{workload} {m['name']}: median pair ratio {median:.3f} "
              f"(limit {limit:.3f}) {verdict}")
        if median > limit:
            failures.append(f"{m['name']} median pair ratio {median:.3f} "
                            f"exceeds {limit:.3f}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default every workload")
    parser.add_argument("--build-root", default=".ab_build",
                        help="holds one CARGO_TARGET_DIR per tree")
    parser.add_argument("--moved", action="append", default=[],
                        choices=DETERMINISTIC_METRICS,
                        help="a deterministic metric the change moves")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(workloads))
        if unknown:
            parser.error(f"unknown workloads: {', '.join(unknown)}")
        workloads = [w for w in workloads if w in wanted]

    targets = {side: os.path.join(os.path.abspath(args.build_root), side)
               for side in trees}
    for side in trees:
        # A short run builds the tree; its result is discarded.
        print(f"building {side}: {trees[side]}", flush=True)
        if run(trees[side], targets[side], bench["command"], workloads[0],
               0.1, args.seed) is None:
            print(f"ab_gate: {side} tree failed to build or run",
                  file=sys.stderr)
            return 2

    failures = []
    for workload in workloads:
        failures += [f"{workload}: {msg}" for msg in
                     gate_workload(args, trees, targets, bench, workload)]
    for msg in failures:
        print("FAIL", msg)
    print("ab_gate:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
