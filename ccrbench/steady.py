#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 ccrbench/steady.py [--runs 10] [--sets 1] [--workloads a,b] [--seed 1]

Run from the repository root. Runs `run.py` on each workload `--runs`
times, each run with its own seed (`--seed`, `--seed`+1, ...) and with
BENCHMARK.json's `run_seconds`, the run length the bounds are set for.
With `--sets 2` it does that twice, every workload once per set, the
second set with the next seeds. For every end-to-end metric of every set
it prints the median, the first and third quartiles and the spread,
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json and a
third of it, the spread a steady metric should stay under; from the
second set on also the change of the median against the first set. It
also prints each workload's share of failed ops.

Exits 1 if a run fails or is not correct, if a spread exceeds its bound,
if a median is worse than the first set's by more than the bound, or if
the share of failed ops differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, wl, seeds):
    """Runs `wl` once per seed; returns the parsed results and whether
    every run exited 0."""
    runs, ok = [], True
    for seed in seeds:
        cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"{wl} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
    return runs, ok


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")

    bad = False
    first = {}  # workload -> metric -> first set's median
    for k in range(args.sets):
        for wl in workloads:
            seed0 = args.seed + k * args.runs
            runs, ok = run_set(bench, wl, range(seed0, seed0 + args.runs))
            bad |= not ok
            if len(runs) < 2:
                bad = True
                continue
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            wrong = sum(not r["correct"] for r in runs)
            bad |= wrong > 0 or len(shares) > 1
            print(f"\nset {k + 1}, {wl}: {len(runs)} runs, failed share {shares}, "
                  f"incorrect runs {wrong}")
            print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
                  f"{'bound':>6} {'bound/3':>8}       {'vs set 1':>8}")
            for name, spec in metrics.items():
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                bound = spec["bound"]
                mark = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
                bad |= mark == "OVER"
                line = (f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                        f"{bound:>6} {round(bound / 3, 4):>8} {mark:<5}")
                base = first.setdefault(wl, {}).setdefault(name, med)
                if k > 0:
                    worse = (med - base) / base
                    if spec["better"] == "higher":
                        worse = -worse
                    line += f" {worse:>+8.4f} {'ok' if worse <= bound else 'WORSE'}"
                    bad |= worse > bound
                print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
