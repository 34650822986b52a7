"""The workload process: one caller, one certcap operation at a time.

Started by run.py, never imported by it.  It builds the seeded corpus,
writes and loads the input JSON (that is set-up), runs one untimed warm-up
pass whose outputs it saves for the oracles, then times a fixed number of
whole passes over the corpus (corpus.passes: about the requested seconds on
the reference machine).  Every later pass must
reproduce the warm-up output byte for byte.  With --trace it wraps the
layer functions (spans.py) after the warm-up and records spans.

Only certcap and the standard library are imported here, so set-up time and
peak memory are certcap's own.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import corpus  # noqa: E402

# The machine's speed swings by half between phases lasting seconds, so each
# operation's time is rescaled by the time of a fixed slice of pure-Python
# rational arithmetic (the yardstick) run right before and right after it:
# reported times are at the speed where one slice takes YARDSTICK_REF_S.
YARDSTICK_REF_S = 0.005
MODULES = ("capacity", "channel", "classify", "cli", "confgraph", "enclosure",
           "linalg", "linprog", "plant", "roots", "simulate")


def _import_certcap() -> dict:
    """certcap's modules by short name (the package re-exports shadow some)."""
    import certcap
    if Path(certcap.__file__).resolve().parent != (SRC / "certcap").resolve():
        raise ImportError(f"certcap imported from {certcap.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"certcap.{name}") for name in MODULES}


def yardstick() -> float:
    """Seconds taken by a fixed slice of rational and integer work.

    Like certcap's own work, it is bound by big-integer gcds and Python
    object churn; it imports nothing from certcap, so no change to the
    program can move it.
    """
    start = time.perf_counter()
    x, acc = Fraction(1, 3), 0
    for _ in range(300):
        x = (x * Fraction(7, 5) + Fraction(1, 7)) % 3
        acc ^= (x.numerator * 2654435761) & 0xFFFF
    return time.perf_counter() - start


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.m = _import_certcap()
        self.ops = corpus.build(name, seed)
        self.workdir = workdir
        self.tracer = None
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(exist_ok=True)
        self.prepared = [self._prepare(i, spec) for i, spec in enumerate(self.ops)]

    # -- set-up: write every input document, then load it back through certcap
    def _write(self, name: str, doc: dict) -> Path:
        path = self.workdir / "in" / name
        path.write_text(json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8")
        return path

    def _channel_doc(self, spec) -> dict:
        if "stream" not in spec:
            return spec
        ch = self.m["channel"]
        base = ch.load_channel(spec["base"])
        if spec["stream"] == "resolving":
            return ch.resolving_stream(base, spec["level"]).to_json()
        return ch.hovering_stream(base, [tuple(e) for e in spec["entries"]],
                                  spec["depth"]).to_json()

    def _prepare(self, i: int, spec: dict) -> dict:
        ch_mod, plant_mod = self.m["channel"], self.m["plant"]
        prep = {}
        if "plant" in spec:
            path = self._write(f"{i:03d}.plant.json", spec["plant"])
            prep["plant_path"] = path
            prep["plant"] = plant_mod.load_plant(path.read_text(encoding="utf-8"))
        if "channel" in spec:
            doc = self._channel_doc(spec["channel"])
            path = self._write(f"{i:03d}.channel.json", doc)
            prep["channel_path"] = path
            prep["channel"] = ch_mod.load_channel(path.read_text(encoding="utf-8"))
            if "stream" in spec["channel"]:
                (self.workdir / "out" / f"{i:03d}.channel.json").write_text(
                    json.dumps(doc, sort_keys=True), encoding="utf-8")
        if spec["kind"] == "sim":
            sim = self.m["simulate"]
            code = spec["code"]
            if code.get("identity"):
                prep["code"] = sim.identity_code(prep["channel"])
            else:
                prep["code"] = sim.witness_code(prep["channel"],
                                                [tuple(w) for w in code["witness"]])
        return prep

    # -- operations; layer functions are looked up at call time so that the
    # trace wrappers, installed after the warm-up, are the ones called
    def run(self, i: int, first: bool) -> tuple[float, str]:
        spec, prep = self.ops[i], self.prepared[i]
        kind = spec["kind"]
        if kind == "cli":
            return self._run_cli(i, spec, prep, first)
        if kind == "ladder":
            return self._run_ladder(i, spec, prep, first)
        if kind == "classify":
            return self._run_classify(i, spec, prep, first)
        return self._run_sim(i, spec, prep, first)

    def _save(self, i: int, doc: dict) -> None:
        path = self.workdir / "out" / f"{i:03d}.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")

    def _run_cli(self, i, spec, prep, first):
        csv_path = self.workdir / "out" / f"{i:03d}.csv"
        subst = {"{plant}": str(prep.get("plant_path")),
                 "{channel}": str(prep.get("channel_path")),
                 "{csv}": str(csv_path)}
        argv = [subst.get(a, a) for a in spec["argv"]]
        out, err = io.StringIO(), io.StringIO()
        main = self.m["cli"].main
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        dt = time.perf_counter() - t0
        doc = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if self.tracer:
            self.tracer.add("cli.stdout_bytes", len(doc["stdout"].encode()))
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        if "{csv}" in spec["argv"]:
            digest.update(csv_path.read_bytes())
            if first:
                csv_path.rename(csv_path.with_suffix(".first.csv"))
                doc["csv"] = csv_path.with_suffix(".first.csv").name
            else:
                csv_path.unlink()
        if first:
            self._save(i, doc)
        return dt, digest.hexdigest()

    def _run_ladder(self, i, spec, prep, first):
        ch_mod, cg = self.m["channel"], self.m["confgraph"]
        ch = prep["channel"]
        t0 = time.perf_counter()
        cert = ch_mod.certify_support(ch, 0)
        graph = cg.confusability_graph(cert, ch.inputs, len(ch.outputs))
        ladder = cg.CapacityLadder()
        for n in range(1, spec["max_block"] + 1):
            ladder = cg.extend_ladder(ladder, graph, n,
                                      node_budget=corpus.LADDER_NODE_BUDGET,
                                      vertex_cap=corpus.LADDER_VERTEX_CAP)
        doc = ladder.to_json()
        dt = time.perf_counter() - t0
        return dt, self._finish(i, doc, first)

    def _run_classify(self, i, spec, prep, first):
        cl = self.m["classify"]
        t0 = time.perf_counter()
        verdict = cl.classify(prep["plant"], prep["channel"], cl.Regime(spec["regime"]),
                              spec["budget"])
        doc = verdict.to_json()
        dt = time.perf_counter() - t0
        return dt, self._finish(i, doc, first)

    def _finish(self, i, doc, first):
        if first:
            self._save(i, doc)
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    def _run_sim(self, i, spec, prep, first):
        sim = self.m["simulate"]
        cfg = sim.SimConfig(prep["plant"], prep["channel"],
                            self.m["classify"].Regime(spec["regime"]), prep["code"],
                            horizon=spec["horizon"], seed=spec["sim_seed"],
                            x0=tuple(Fraction(v) for v in spec["x0"]))
        run = getattr(sim, f"run_{spec['run']}")
        t0 = time.perf_counter()
        traj = run(cfg)
        dt = time.perf_counter() - t0
        digest = hashlib.sha256(json.dumps(traj.summary, sort_keys=True).encode())
        digest.update(repr((traj.times, traj.x, traj.x_hat, traj.u, traj.error)).encode())
        if first:
            self._save(i, {"summary": traj.summary, "rows": f"{i:03d}.rows.jsonl"})
            # one row per line, so the dump never holds the trajectory twice
            with open(self.workdir / "out" / f"{i:03d}.rows.jsonl", "w",
                      encoding="utf-8") as fh:
                for k, t in enumerate(traj.times):
                    fh.write(json.dumps([t, [str(v) for v in traj.x[k]],
                                         [str(v) for v in traj.x_hat[k]],
                                         [str(v) for v in traj.u[k]],
                                         str(traj.error[k])]) + "\n")
        return dt, digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before it started us")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    # certcap.cli reads its default budget from here; the corpus fixes it
    os.environ.pop("CERTCAP_BUDGET", None)

    wl = Workload(args.workload, args.seed, workdir)
    setup = time.monotonic() - args.started
    setup_speed = statistics.median(yardstick() for _ in range(3))
    result = {"setup_s": setup * YARDSTICK_REF_S / setup_speed,
              "ops": [s["id"] for s in wl.ops]}
    if args.setup_only:
        (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    n = len(wl.ops)
    first_digest = []
    for i in range(n):
        first_digest.append(wl.run(i, first=True)[1])

    tracer = None
    if args.trace:
        import spans
        tracer = wl.tracer = spans.Tracer(wl.m)
        tracer.install()

    op_times = [[] for _ in range(n)]
    pass_times, slices, mismatches = [], [], []
    for _ in range(corpus.passes(args.workload, args.seconds)):
        gc.collect()
        if tracer:
            tracer.begin_pass()
        busy = raw = 0.0
        before = yardstick()
        for i in range(n):
            if tracer:
                with tracer.op_span(i):
                    dt, digest = wl.run(i, first=False)
            else:
                dt, digest = wl.run(i, first=False)
            after = yardstick()
            scaled = dt * 2 * YARDSTICK_REF_S / (before + after)
            slices.append(before)
            before = after
            raw += dt
            busy += scaled
            op_times[i].append(scaled)
            if digest != first_digest[i] and wl.ops[i]["id"] not in mismatches:
                mismatches.append(wl.ops[i]["id"])
        pass_times.append(busy)
        if tracer:
            tracer.end_pass(busy, busy / raw)

    result.update(pass_times=pass_times, op_times=op_times,
                  yardstick_s=statistics.median(slices),
                  mismatches=mismatches,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["trace_file"] = tracer.write(workdir / "spans.jsonl", wl.ops)
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
