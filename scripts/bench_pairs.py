#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, a parent and a change.

Runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` in each
checkout, PAIRS times, with the parent first in odd pairs and the change
first in even ones, so that slow drift of the host hits both sides alike.
--workload takes one workload or a comma-separated list; each pair then runs
every listed workload on both sides, one workload after the other. Prints
every pair, then one block per workload with, for each end-to-end metric of
the change's BENCHMARK.json: each side's median and quartiles, the ratio of
the medians, how many pairs the change won (ties count for neither side) and
a verdict:

- "gain" when the change won at least nine pairs in ten and its median is
  better than the parent's by more than the parent's interquartile range
  and by more than a tenth of the metric's bound (a relative change, as
  the bound is), so that a steady shift far inside the bound, such as code
  layout moving a memory metric with no spread, is not called a gain;
- "worse beyond bound" when its median is worse than the parent's by more
  than the metric's bound;
- "within bound" otherwise.

Failed and attempted operations are summed per side and workload. Uses the
standard library only; each run is its own process, started in its checkout.

Example:
    git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/bench_pairs.py ../parent . --pairs 10 \
        --workload sweep_grid4,meta_grid16,sampled_grid4
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run in `checkout`; returns its result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3) of the values; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec, parent_runs, change_runs):
    """One row per end-to-end metric: name, unit, the quartiles of both
    sides, the median ratio, the change's wins and the verdict."""
    rows = []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        if 10 * wins >= 9 * len(parent) and gain > max(
                pq[2] - pq[0], metric["bound"] / 10 * pq[1]):
            verdict = "gain"
        elif -gain > metric["bound"] * pq[1]:
            verdict = "worse beyond bound"
        else:
            verdict = "within bound"
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        rows.append((name, metric["unit"], pq, cq, ratio, wins, verdict))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        help="a workload name or a comma-separated list of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = args.workload.split(",")
    if not all(workloads):
        parser.error("--workload names must be nonempty")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"]]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for k in range(args.pairs):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in sides:
                runs[w][side].append(run_once(getattr(args, side), w,
                                              args.seed, args.seconds))
            values = "  ".join(
                f"{n} {runs[w]['parent'][-1]['metrics'][n]['value']:.6g} -> "
                f"{runs[w]['change'][-1]['metrics'][n]['value']:.6g}" for n in names)
            print(f"{w} pair {k + 1}/{args.pairs} ({sides[0]} first): {values}",
                  flush=True)

    for w in workloads:
        print(f"\n{w} seed {args.seed}, {args.pairs} pairs of "
              f"--seconds {args.seconds:g}; median [q1, q3]")
        for name, unit, pq, cq, ratio, wins, verdict in summarize(
                spec, runs[w]["parent"], runs[w]["change"]):
            print(f"  {name:12s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] {unit}"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {unit}"
                  f"  change/parent {ratio:.4g}  wins {wins}/{args.pairs}  {verdict}")
        for side, side_runs in runs[w].items():
            failed = sum(r["failed"] for r in side_runs)
            attempted = sum(r["attempted"] for r in side_runs)
            correct = all(r["correct"] for r in side_runs)
            print(f"  {side}: failed {failed}/{attempted}, "
                  f"correct {str(correct).lower()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
