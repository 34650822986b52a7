"""Span tracing for the traced run, from outside the program.

Each layer function is replaced, in its defining module and in every
certcap module that imported it by name, with a wrapper that records a span
(name, parent span, start, end).  Spans stay in memory; per-pass call
counts and self times (duration minus the time covered by child spans) are
folded at the end of every pass, and all spans are written out when the run
ends.  A few counters are taken from the wrapped calls' results.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

# metric prefix -> the functions it wraps, as (module, attribute path)
LAYERS = {
    "plant.instability_exponent": [("plant", "instability_exponent")],
    "plant.is_detectable": [("plant", "is_detectable")],
    "roots.symmetric_eigenvalue_enclosures": [("roots", "symmetric_eigenvalue_enclosures")],
    "roots.schur_stable": [("roots", "schur_stable")],
    "linalg.char_poly": [("linalg", "char_poly")],
    "classify.dovetail": [("classify", "dovetail")],
    "classify.revalidate": [("classify", "revalidate")],
    "linprog.solve_lp": [("linprog", "solve_lp")],
    "capacity.feedback_zero_error_capacity": [("capacity", "feedback_zero_error_capacity")],
    "capacity.minimax_ladder_step": [("capacity", "minimax_ladder_step")],
    "capacity.certified_capacity_bounds": [("capacity", "certified_capacity_bounds")],
    "enclosure.log2_enclosure": [("enclosure", "log2_enclosure")],
    "channel.certify_support": [("channel", "certify_support")],
    "confgraph.strong_power": [("confgraph", "strong_power")],
    "confgraph.max_independent_set": [("confgraph", "max_independent_set")],
    "confgraph.extend_ladder": [("confgraph", "extend_ladder")],
    "simulate.run_loop": [("simulate", "run_estimation"), ("simulate", "run_stabilization"),
                          ("simulate", "run_weak_detection")],
    "simulate.sample_output": [("simulate", "sample_output")],
    "simulate.to_csv": [("simulate", "Trajectory.to_csv")],
    "cli.main": [("cli", "main")],
}
# wrapped for their results only; their spans go to the span file
RESULT_ONLY = {"classify.classify": [("classify", "classify"),
                                     ("classify", "classify_fixed_plant")]}

# counters: name -> (unit, better)
COUNTERS = {
    "classify.budget_steps": ("count", "lower"),
    "classify.halted": ("count", "higher"),
    "confgraph.strong_power.vertices": ("count", "lower"),
    "confgraph.max_independent_set.exact_share": ("ratio", "higher"),
    "confgraph.extend_ladder.improving_share": ("ratio", "higher"),
    "simulate.steps": ("count", "lower"),
    "simulate.csv_bytes": ("B", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
}
SHARES = {"confgraph.max_independent_set.exact_share": "confgraph.max_independent_set",
          "confgraph.extend_ladder.improving_share": "confgraph.extend_ladder"}
PASS_METRIC = "bench.traced_pass_s"


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    out.append((PASS_METRIC, "s", "lower"))
    return out


def _after_classify(tr, result, args):
    tr.add("classify.budget_steps", result.steps)
    tr.add("classify.halted", int(result.outcome != "Undetermined"))


def _after_extend(tr, result, args):
    tr.add("confgraph.extend_ladder.improving_share",
           int(result.running_best is not args[0].running_best))


HOOKS = {
    "classify.classify": _after_classify,
    "confgraph.strong_power": lambda tr, r, a: tr.add("confgraph.strong_power.vertices", len(r)),
    "confgraph.max_independent_set":
        lambda tr, r, a: tr.add("confgraph.max_independent_set.exact_share", int(r.exact)),
    "confgraph.extend_ladder": _after_extend,
    "simulate.run_loop": lambda tr, r, a: tr.add("simulate.steps", len(r.times)),
    "simulate.to_csv": lambda tr, r, a: tr.add("simulate.csv_bytes", len(r.encode())),
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.spans: list[tuple] = []       # (name index, parent index, start ns, end ns)
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.pass_start = 0
        self.passes: list[dict] = []        # per pass: layer -> [calls, self ns]
        self.pass_counts: list[dict] = []
        self.pass_seconds: list[float] = []

    # -- installation
    def install(self) -> None:
        for group in (LAYERS, RESULT_ONLY):
            for layer, targets in group.items():
                for module, path in targets:
                    self._wrap(layer, module, path)

    def _wrap(self, layer: str, module: str, path: str) -> None:
        owner = self.modules[module]
        attr = path
        if "." in path:
            cls, attr = path.split(".")
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapper = self._wrapper(layer, original, HOOKS.get(layer))
        setattr(owner, attr, wrapper)
        if owner is self.modules[module]:
            for mod in self.modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrapper(self, layer, fn, hook):
        name_idx = self._name_index(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_idx, parent, start, clock())
                stack.pop()
            if hook is not None:
                hook(self, result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = fn.__doc__
        return traced

    # -- recording
    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    @contextmanager
    def op_span(self, op_index: int):
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx] = (self._name_index(f"op:{op_index}"), -1, start,
                               time.perf_counter_ns())
            self.stack.pop()

    def begin_pass(self) -> None:
        self.pass_start = len(self.spans)
        self.counts = {}

    def end_pass(self, seconds: float, scale: float) -> None:
        """Fold the pass's spans; ``scale`` rescales raw times to the
        yardstick's reference speed, as the pass's ``seconds`` already are."""
        start = self.pass_start
        child_ns = [0] * (len(self.spans) - start)
        for name_idx, parent, t0, t1 in self.spans[start:]:
            if parent >= start:
                child_ns[parent - start] += t1 - t0
        folded: dict[str, list[int]] = {}
        for k, (name_idx, parent, t0, t1) in enumerate(self.spans[start:]):
            entry = folded.setdefault(self.names[name_idx], [0, 0])
            entry[0] += 1
            entry[1] += (t1 - t0) - child_ns[k]
        self.passes.append({k: (c, ns * scale) for k, (c, ns) in folded.items()})
        self.pass_counts.append(dict(self.counts))
        self.pass_seconds.append(seconds)

    # -- reporting
    def layer_metrics(self) -> dict:
        metrics = {}
        for layer in LAYERS:
            calls = [p.get(layer, (0, 0))[0] for p in self.passes]
            self_ns = [p.get(layer, (0, 0))[1] for p in self.passes]
            if len(set(calls)) != 1:
                raise RuntimeError(f"{layer}: call counts differ between passes: {calls}")
            metrics[f"{layer}.calls"] = calls[0]
            metrics[f"{layer}.self_s"] = statistics.median(self_ns) / 1e9
        for counter in COUNTERS:
            values = [c.get(counter, 0) for c in self.pass_counts]
            if len(set(values)) != 1:
                raise RuntimeError(f"{counter}: differs between passes: {values}")
            value = values[0]
            if counter in SHARES:
                calls = metrics[f"{SHARES[counter]}.calls"]
                value = value / calls if calls else 0.0
            metrics[counter] = value
        metrics[PASS_METRIC] = statistics.median(self.pass_seconds)
        return metrics

    def write(self, path, ops) -> str:
        """All spans as JSON lines: [span, parent, name, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "ops": [op["id"] for op in ops]}) + "\n")
            for k, (name_idx, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"[{k},{parent},{name_idx},{t0},{t1}]\n")
        return str(path)
