#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/series.py --workloads decide,ladder,track --seeds 1-10 \
        --seconds 25 --out .bench_out/series.jsonl

Runs one untraced run per seed, one after another (never two at once; a
traced run is a single run.py --trace 1 call), appends every result line
to --out, and prints per workload and metric the median, the quartiles and
the spread: the distance between the quartiles as a share of the median,
which BENCHMARK.json's bound has to exceed.  compare.py compares two such
files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="decide,ladder,track")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            # run.py appends the full record (passes, yardstick) to results.jsonl
            with open(HERE.parent / ".bench_out" / "results.jsonl", encoding="utf-8") as fh:
                line = json.loads(fh.readlines()[-1])
            if line["metrics"] != json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]:
                print("results.jsonl does not end with this run", file=sys.stderr)
                return 1
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line) + "\n")
            results.setdefault(workload, []).append(line)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {shown}", flush=True)
    for workload, lines in results.items():
        for metric in lines[0]["metrics"]:
            med, q1, q3, rel = spread([ln["metrics"][metric]["value"] for ln in lines])
            print(f"{workload:7s} {metric:40s} median {med:.5g} "
                  f"[{q1:.5g}, {q3:.5g}] spread {rel:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
