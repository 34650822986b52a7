#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds result lines from series.py (or .bench_out/results.jsonl).
For every workload and end-to-end metric it prints both sides' medians and
quartiles and how many pairs the second side won; runs are paired by seed,
or in file order when the seeds differ.  Directions and bounds come from
BENCHMARK.json.  The verdict follows the rule for a small, noisy machine:

  gain        the second side won at least 9/10 of the pairs (ties count
              for neither) and the medians differ by more than the first
              side's own spread (the distance between its quartiles);
  regression  the second side's median is worse by more than the bound;
  unresolved  the first side's spread exceeds the bound, and not every run of
              the second side beats every run of the first;
  same        otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """workload -> list of (seed, {metric: value}) in file order."""
    runs: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("trace", 0):
                continue
            values = {k: v["value"] for k, v in doc["metrics"].items()}
            runs.setdefault(doc["workload"], []).append((doc["seed"], values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pairs(a, b):
    seeds_a = [s for s, _ in a]
    if sorted(seeds_a) == sorted(s for s, _ in b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = dict(b)
        return [(va, by_seed[s]) for s, va in a]
    return list(zip((v for _, v in a), (v for _, v in b)))


def verdict(a_vals, b_vals, paired, lower_better, bound):
    sign = -1 if lower_better else 1
    med_a, med_b = statistics.median(a_vals), statistics.median(b_vals)
    q1, q3 = quartiles(a_vals)
    own_spread = q3 - q1
    won = sum(1 for x, y in paired if sign * (y - x) > 0)
    decided = sum(1 for x, y in paired if y != x)
    worse = sign * (med_a - med_b) / med_a
    if decided and won >= 0.9 * len(paired) and abs(med_b - med_a) > own_spread:
        return won, "gain"
    if worse > bound:
        return won, "regression"
    if own_spread / med_a > bound and not (
            min(sign * v for v in b_vals) > max(sign * v for v in a_vals)):
        return won, "unresolved"
    return won, "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", help="results of the parent (or baseline)")
    ap.add_argument("second", help="results of the change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    first, second = load(args.first), load(args.second)
    print(f"{'workload':8} {'metric':14} {'first median [q1, q3]':>34} "
          f"{'second median [q1, q3]':>34} {'won':>6}  verdict")
    for workload in sorted(set(first) & set(second)):
        a, b = first[workload], second[workload]
        paired_runs = pairs(a, b)
        for name, m in metrics.items():
            a_vals = [v[name] for _, v in a]
            b_vals = [v[name] for _, v in b]
            paired = [(x[name], y[name]) for x, y in paired_runs]
            won, word = verdict(a_vals, b_vals, paired, m["better"] == "lower", m["bound"])
            cells = []
            for vals in (a_vals, b_vals):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:8} {name:14} {cells[0]:>34} {cells[1]:>34} "
                  f"{won:>3}/{len(paired):<2}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
