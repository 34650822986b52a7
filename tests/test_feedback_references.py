"""se-fb, stab-fb, se-nofb, weak and both fixed-plant directions against
references that share no code with certcap.

``perfbench/oracles.py`` imports nothing from certcap: it takes C0fb from
Shannon's minimax solved by scipy's linprog, eta from mpmath eigenvalues,
confusability from the base rows, independence numbers of strong powers
from networkx and Shannon's C from closed forms or a numpy Blahut-Arimoto.  ``revalidate`` shares the support, graph, LP and log2 code
with the engine, so a fault common to both passes it; these references
catch such a fault.  Every channel is drawn exact, then used as is or
wrapped as a stream whose true channel it stays, so the base channel's
capacities decide every halted verdict.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certcap.channel import exact_channel, hovering_stream, resolving_stream
from certcap.classify import Regime, classify, classify_fixed_plant
from certcap.linalg import as_matrix
from certcap.plant import Plant, instability_exponent

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import oracles  # noqa: E402

F = Fraction


@st.composite
def exact_channels(draw):
    """(rows, channel): an exact channel with 2-4 inputs and outputs and a
    random support."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rows = []
    for _ in range(nx):
        weights = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=ny, max_size=ny))
        weights[draw(st.integers(0, ny - 1))] += 1  # every input reaches an output
        rows.append([F(w, sum(weights)) for w in weights])
    return rows, exact_channel(range(nx), range(ny), rows)


@st.composite
def channels(draw):
    """(base rows, channel): an exact channel with 2-4 inputs and outputs and
    a random support, as is, resolving or hovering on one of its zeros."""
    rows, base = draw(exact_channels())
    nx, ny = len(rows), len(rows[0])
    zeros = [(x, y) for x in range(nx) for y in range(ny) if rows[x][y] == 0]
    wrap = draw(st.sampled_from(["exact", "resolving", "hovering"] if zeros
                                else ["exact", "resolving"]))
    if wrap == "resolving":
        return rows, resolving_stream(base, draw(st.integers(1, 3)))
    if wrap == "hovering":
        return rows, hovering_stream(base, [draw(st.sampled_from(zeros))],
                                     draw(st.integers(2, 8)))
    return rows, base


@st.composite
def plants(draw, disturbance=F(1, 10)):
    """A scalar or diagonal plant with B = C = I and D = ``disturbance``."""
    n = draw(st.integers(1, 2))
    modes = draw(st.lists(st.fractions(F(1, 2), F(5, 2), max_denominator=8),
                          min_size=n, max_size=n))
    a = [[modes[i] if i == j else F(0) for j in range(n)] for i in range(n)]
    identity = as_matrix([[F(int(i == j)) for j in range(n)] for i in range(n)])
    return Plant(as_matrix(a), c=identity, b=identity, disturbance_bound=disturbance)


@settings(max_examples=200, deadline=None)
@given(drawn=channels(), plant=plants(),
       regime=st.sampled_from(["se-fb", "stab-fb", "capacity-below"]),
       budget=st.integers(1, 40))
def test_feedback_verdicts_agree_with_float_references(drawn, plant, regime, budget):
    rows, ch = drawn
    zero, _, c0fb = oracles.c0fb(rows)
    true_eta = oracles.eta([[str(v) for v in row] for row in plant.a])
    eta = float(true_eta)
    # a float reference cannot tell which side of C0fb an eta this close
    # lies on: these are the limits of what it can check
    assume(abs(eta - c0fb) > 10 * oracles.MARGIN)
    if regime == "capacity-below":
        verdict = classify_fixed_plant(instability_exponent(plant.a), ch, regime, budget)
    else:
        verdict = classify(plant, ch, Regime(regime), budget)
    cert = verdict.to_json()["certificate"]
    if verdict.outcome == "Undetermined":
        assert oracles.enc_contains(cert["progress"]["eta"]["enclosure"], true_eta)
        if not ch.is_exact or verdict.steps < 2:
            return
        # on an exact channel the capacity task, stepped second, has a bound
        bound = cert["progress"]["fb-capacity"]["enclosure"]
        assert bound is not None
    elif verdict.outcome == "Solvable":
        assert eta < c0fb and cert["kind"] == "separated-intervals"
        assert oracles.enc_contains(cert["eta"], true_eta)
        bound = cert["capacity"]
    else:
        assert verdict.outcome == "Unsolvable" and eta > c0fb
        assert cert["kind"] == "psi" and (zero or not cert["complete_graph"])
        assert oracles.mpf(F(cert["eta_lo"])) <= true_eta + oracles.ETA_TOL
        bound = cert["c0fb_upper"]
    # every bound is an upper one; on an exact channel it encloses C0fb
    assert float(F(bound["hi"])) >= c0fb - oracles.MARGIN
    assert not ch.is_exact or float(F(bound["lo"])) <= c0fb + oracles.MARGIN


@settings(max_examples=200, deadline=None)
@given(drawn=channels(), plant=plants(),
       regime=st.sampled_from(["se-nofb", "capacity-above"]), budget=st.integers(1, 40))
def test_zero_error_verdicts_agree_with_graph_references(drawn, plant, regime, budget):
    rows, ch = drawn
    true_eta = oracles.eta([[str(v) for v in row] for row in plant.a])
    if regime == "capacity-above":
        verdict = classify_fixed_plant(instability_exponent(plant.a), ch, regime, budget)
    else:
        verdict = classify(plant, ch, Regime(regime), budget)
    cert = verdict.to_json()["certificate"]
    if verdict.outcome == "Undetermined":
        assert oracles.enc_contains(cert["progress"]["eta"]["enclosure"], true_eta)
        return
    if verdict.outcome == "Unsolvable":
        # only the alphabet bound proves it: no zero-error rate beats log2 min(|X|, |Y|)
        assert regime == "capacity-above" and cert["quantity"] == "alphabet-bound"
        assert float(true_eta) >= math.log2(min(len(rows), len(rows[0]))) - oracles.MARGIN
        return
    assert verdict.outcome == "Solvable" and cert["kind"] == "independent-set"
    n, alpha = cert["n"], cert["alpha"]
    words = [tuple(w) if n > 1 else (w,) for w in cert["witness"]]
    # the witness is a zero-error code of the base channel, so log2(alpha)/n <= C0
    assert len(set(words)) == alpha and oracles.independent(rows, words)
    assert oracles.enc_contains(cert["eta"], true_eta)
    assert oracles.mpf(F(cert["eta"]["hi"])) < mpmath.log(alpha, 2) / n
    reference = oracles.alpha(rows, n)
    assert reference is None or alpha <= reference


WEAK_BUDGETS = st.integers(1, 40)  # dovetailer steps, one per task step


def shannon_reference(rows) -> tuple[float, float]:
    """``oracles.shannon`` to within MARGIN: the closed form where one
    exists, else the Blahut-Arimoto bracket [I(p), max_x D(W_x || pW)] at
    gap MARGIN.  At the oracle's own gap, 1e-10, a channel with a dominated
    input can need more than its 200 000 iterations: rows (1/2, 0, 1/2),
    (1/3, 0, 2/3), (0, 2/3, 1/3), (2/3, 0, 1/3) need 208 050."""
    exact = oracles.closed_form_capacity(rows)
    if exact is not None:
        return exact, exact
    return oracles.blahut_arimoto(rows, gap=oracles.MARGIN)


@settings(max_examples=200, deadline=None)
@given(drawn=exact_channels(), plant=plants(disturbance=F(0)), budget=WEAK_BUDGETS)
def test_weak_verdicts_agree_with_shannon_references(drawn, plant, budget):
    rows, ch = drawn
    c_lo, c_hi = shannon_reference(rows)
    true_eta = oracles.eta([[str(v) for v in row] for row in plant.a])
    eta = float(true_eta)
    # a float reference cannot tell which side of C an eta this close lies on
    assume(eta < c_lo - 10 * oracles.MARGIN or eta > c_hi + 10 * oracles.MARGIN)
    verdict = classify(plant, ch, Regime("weak"), budget)
    cert = verdict.to_json()["certificate"]
    if verdict.outcome == "Undetermined":
        assert oracles.enc_contains(cert["progress"]["eta"]["enclosure"], true_eta)
        if verdict.steps < 2:
            return
        # the capacity task, stepped second, brackets C from both sides
        bounds = cert["progress"]["shannon"]
        lower, upper = bounds["lower"], bounds["upper"]
    else:
        assert cert["kind"] == "separated-intervals" and cert["quantity"] == "shannon"
        assert oracles.enc_contains(cert["eta"], true_eta)
        if verdict.outcome == "Solvable":
            assert eta < c_lo and cert["relation"] == "eta-below-capacity"
            lower, upper = cert["capacity"], None
        else:
            assert verdict.outcome == "Unsolvable" and eta > c_hi
            assert cert["relation"] == "capacity-below-eta"
            lower, upper = None, cert["capacity"]
    # a lower bound lies below C, an upper bound above it
    assert lower is None or float(F(lower["lo"])) <= c_hi + oracles.MARGIN
    assert upper is None or float(F(upper["hi"])) >= c_lo - oracles.MARGIN
