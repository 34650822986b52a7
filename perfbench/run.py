#!/usr/bin/env python3
"""certcap benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The workload itself runs in a child
process (worker.py) that imports certcap from ./src and nothing heavier;
this process only starts it, times its set-up, checks every output against
the oracles (oracles.py) and prints the metrics.

--trace 0 prints the end-to-end metrics: ops_per_s, op_geomean_ms, setup_s
and peak_rss_mb.  --trace 1 runs the same passes with every layer function
wrapped (spans.py) and prints the per-layer metrics instead; the spans go to
.bench_out/.  Each result line is also appended to .bench_out/results.jsonl,
which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5          # set-up is timed this many times plus once in the real run
TIME_LIMIT_S = 170        # the whole run, set-up probes and checks included

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402


def _start_worker(args, workdir: Path, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process ran past the time limit")
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def _shows_known_fault(spec, found: list[str]) -> bool:
    """True when the oracles report exactly the operation's known fault."""
    expected = spec["fault_problems"]
    return bool(expected) and len(found) == len(expected) and all(
        re.fullmatch(pattern, problem) for pattern, problem in zip(expected, found))


def _check_outputs(ops, workdir: Path) -> tuple[list[str], list[str]]:
    """Run the oracles on the warm-up outputs: (known faults seen, problems)."""
    import oracles
    faults, problems = [], []
    for i, spec in enumerate(ops):
        out = json.loads((workdir / "out" / f"{i:03d}.json").read_text(encoding="utf-8"))
        try:
            found = oracles.check(spec, out, workdir)
        except Exception as exc:  # a malformed output is a wrong output
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if _shows_known_fault(spec, found):
            faults.append(spec["id"])
        elif found:
            problems += [f"{spec['id']}: {p}" for p in found]
        elif spec["fault"]:
            print(f"note: {spec['id']} no longer shows its known fault "
                  f"({spec['fault']})", file=sys.stderr)
    return faults, problems


def _end_to_end(n_ops, pass_times, op_times, setups) -> dict:
    per_op = [statistics.median(t) for t in op_times]
    return {"ops_per_s": n_ops / statistics.median(pass_times),
            "op_geomean_ms": 1000 * math.exp(statistics.fmean(math.log(t) for t in per_op)),
            "setup_s": statistics.median(setups)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "certcap" / "__init__.py").is_file():
        print(f"error: no certcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        probes = []
        for k in range(SETUP_PROBES):
            probes.append(_start_worker(args, workdir / f"probe{k}", True, deadline))
            shutil.rmtree(workdir / f"probe{k}")
        run = _start_worker(args, workdir / "run", False, deadline)
        probes.append(run)
        ops = corpus.build(args.workload, args.seed)
        if [op["id"] for op in ops] != run["ops"]:
            raise RuntimeError("the workload process ran another corpus")
        passes = corpus.passes(args.workload, args.seconds)
        if len(run["pass_times"]) != passes:
            raise RuntimeError(f"the workload process ran {len(run['pass_times'])} "
                               f"timed passes, not {passes}")
        faults, problems = _check_outputs(ops, workdir / "run")
        problems += [f"{op_id}: output differs between passes" for op_id in run["mismatches"]]
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            shutil.move(run["trace_file"], trace_path)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"WRONG {p}", file=sys.stderr)
    units = {"ops_per_s": "1/s", "op_geomean_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        import spans
        values = run["layers"]
        units = {name: unit for name, unit, _ in spans.metric_names()}
    else:
        values = _end_to_end(len(ops), run["pass_times"], run["op_times"],
                             [p["setup_s"] for p in probes])
        values["peak_rss_mb"] = run["peak_rss_mb"]
    result = {"correct": not problems, "attempted": len(ops) * passes,
              "failed": len(faults) * passes,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "passes": passes, **result,
                             "yardstick_ms": 1000 * run["yardstick_s"]}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
