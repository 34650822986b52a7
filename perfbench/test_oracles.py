"""Self-tests of the benchmark's oracles against closed forms.

    python3 -m pytest perfbench/test_oracles.py    (or: python3 perfbench/test_oracles.py)

The oracles decide whether certcap's outputs are right, so they are checked
here against values known in closed form, and their checks are shown to
reject outputs that are wrong in the ways the benchmark looks for.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import networkx as nx  # noqa: E402

import corpus  # noqa: E402
import oracles  # noqa: E402


def close(a, b, tol=1e-12):
    return abs(float(a) - float(b)) <= tol


def test_eta_from_eigenvalue_moduli():
    assert close(oracles.eta([["2", "0"], ["0", "1/2"]]), 1)
    assert close(oracles.eta([["0", "2"], ["-2", "0"]]), 2)
    assert close(oracles.eta([["3/2"]]), math.log2(1.5))
    # non-normal: singular values exceed one, eigenvalues do not
    assert close(oracles.eta([["1/2", "4"], ["0", "1/2"]]), 0)
    fault_etas = [oracles.eta([[str(v) for v in row] for row in a])
                  for a in corpus.GRAM_FAULT_PLANTS]
    assert close(fault_etas[0], 1) and close(fault_etas[1], math.log2(3) - 1)


def test_generated_plants_have_their_constructed_eta():
    import random
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for make in (corpus.normal_plant, corpus.expanding_plant, corpus.contracting_plant):
            p = make(rng, n)
            a = [[str(v) for v in row] for row in p["A"]]
            assert close(oracles.eta(a), p["eta"], 1e-9), (make.__name__, n)
        normal = corpus.normal_plant(rng, n)["A"]
        at = [list(col) for col in zip(*normal)]
        assert corpus._mat_mul(normal, at) == corpus._mat_mul(at, normal)


def test_c0fb_closed_forms():
    pent = oracles.rows_of(corpus.exact_doc(corpus.typewriter_rows(5)))
    assert close(oracles.c0fb(pent)[2], math.log2(5 / 2), 1e-8)
    c7 = oracles.rows_of(corpus.exact_doc(corpus.typewriter_rows(7)))
    assert close(oracles.c0fb(c7)[2], math.log2(7 / 2), 1e-8)
    nl4 = oracles.rows_of(corpus.exact_doc(corpus.noiseless_rows(4)))
    assert close(oracles.c0fb(nl4)[2], 2, 1e-8)
    bsc = oracles.rows_of(corpus.exact_doc(corpus.bsc_rows(F(1, 4))))
    assert oracles.c0fb(bsc)[0] is True


def test_blahut_arimoto_against_closed_forms():
    for p in (F(1, 4), F(1, 10)):
        rows = corpus.bsc_rows(p)
        lo, hi = oracles.blahut_arimoto(rows)
        h = -float(p) * math.log2(p) - float(1 - p) * math.log2(1 - p)
        assert lo - 1e-9 <= 1 - h <= hi + 1e-9
    for q in (5, 7):
        lo, hi = oracles.blahut_arimoto(corpus.typewriter_rows(q))
        assert lo - 1e-9 <= math.log2(q) - 1 <= hi + 1e-9
    lo, hi = oracles.blahut_arimoto(corpus.noiseless_rows(3))
    assert lo - 1e-9 <= math.log2(3) <= hi + 1e-9


def test_networkx_alpha_matches_published_values():
    for k, n in ((5, 2), (7, 2)):
        rows = corpus.typewriter_rows(k)
        g = oracles.strong_power_graph(oracles.confusable(rows), n)
        _, size = nx.max_weight_clique(nx.complement(g), weight=None)
        assert size == oracles.PUBLISHED_ALPHA[("cycle", k, n)]


def test_witness_independence():
    pent = corpus.typewriter_rows(5)
    words = [tuple(w) for w in corpus.PENTAGON_BLOCK2_WITNESS]
    assert oracles.independent(pent, words)
    assert not oracles.independent(pent, words + [(0, 1)])


def test_ladder_check_rejects_a_broken_rung():
    pent = corpus.typewriter_rows(5)
    words = corpus.PENTAGON_BLOCK2_WITNESS
    rung1 = {"n": 1, "alpha": 2, "witness": [0, 2], "exact": True,
             "rate_lo_lo": "1", "rate_lo_hi": "1"}
    rung2 = {"n": 2, "alpha": 5, "witness": words, "exact": True,
             "rate_lo_lo": "76084/65536", "rate_lo_hi": "76085/65536"}
    good = {"rungs": [rung1, rung2], "running_best": {"lo": "76084/65536"}}
    assert oracles.check_ladder(pent, 2, good) == []
    short = dict(rung2, alpha=3, witness=words[:3], exact=False,
                 rate_lo_lo="0", rate_lo_hi="1")
    bad = {"rungs": [rung1, short], "running_best": {"lo": "1"}}
    assert any("supermultiplicative" in p for p in oracles.check_ladder(pent, 2, bad))


def test_a_known_fault_counts_only_as_itself():
    import run
    ladder = next(op for op in corpus.build("ladder", 1) if op["fault"])
    fault = ["rung 4: alpha=20 < alpha_2 * alpha_2 = 25 (not supermultiplicative)"]
    assert run._shows_known_fault(ladder, fault)
    assert not run._shows_known_fault(ladder, [])
    assert not run._shows_known_fault(ladder, fault + ["rung 4: witness words are confusable"])
    assert not run._shows_known_fault(ladder, ["check raised KeyError: 'rungs'"])
    gram = next(op for op in corpus.build("decide", 1) if op["fault"])
    seen = ["outcome Unsolvable, expected ['Solvable'] (eta=1.000000000, capacity in "
            "[1.321928095, 1.321928095])", "eta_lo exceeds the true eta"]
    assert run._shows_known_fault(gram, seen)
    assert not run._shows_known_fault(gram, seen[:1])
    assert not run._shows_known_fault(gram, [seen[0].replace("Unsolvable", "Undetermined"),
                                             seen[1]])
    plain = next(op for op in corpus.build("decide", 1) if not op["fault"])
    assert not run._shows_known_fault(plain, ["exit code 1: boom"])


def _dump(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for t, x, xh, err in rows:
            fh.write(json.dumps([t, [str(x)], [str(xh)], [], str(err)]) + "\n")


def test_simulation_check_on_a_hand_made_run():
    # x(t+1) = 3/2 x(t) + zeta, |zeta| <= 1/10, one cell per... two cells
    plant = corpus.scalar_plant(F(3, 2))
    spec = {"kind": "sim", "plant": plant, "horizon": 3, "zero_error": True,
            "channel": corpus.exact_doc(corpus.noiseless_rows(2)), "code": {}}
    xs = [F(1, 3), F(1, 2) + F(1, 20), F(33, 40) - F(1, 10)]
    xh = [F(0), F(3, 4), F(3, 4)]
    rows = [(t, x, h, abs(x - h)) for t, (x, h) in enumerate(zip(xs, xh))]
    star = F(1, 10) / (1 - F(3, 2) / 2)
    summary = {"max_error": str(max(r[3] for r in rows)), "block_length": 1,
               "cells": [2], "message_count": 2, "analytic_bound": str(max(1, star)),
               "bounded": True, "diverged_at": None, "horizon": 3,
               "zero_error_transcript": True, "boundary": False}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "out").mkdir()
        _dump(work / "out" / "000.rows.jsonl", rows)
        assert oracles.check_simulation(spec, summary, work, rows_name="000.rows.jsonl") == []
        rows[1] = (1, xs[1], xh[1], F(0))
        _dump(work / "out" / "000.rows.jsonl", rows)
        problems = oracles.check_simulation(spec, summary, work, rows_name="000.rows.jsonl")
        assert any("|x - x_hat|" in p for p in problems)
        rows[1] = (1, xs[1] + F(1, 5), xh[1], abs(xs[1] + F(1, 5) - xh[1]))
        _dump(work / "out" / "000.rows.jsonl", rows)
        problems = oracles.check_simulation(spec, summary, work, rows_name="000.rows.jsonl")
        assert any("> D" in p for p in problems)


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
