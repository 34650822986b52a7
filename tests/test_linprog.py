from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcap import capacity, confgraph
from certcap.capacity import minimax_ladder_step
from certcap.channel import typewriter
from certcap.confgraph import fractional_clique_cover
from certcap.graph import certified_graph
from certcap.linprog import (Constraint, Infeasible, LinearProgram, LpSolution,
                             Unbounded, _assert_certificates, solve_lp)


def balance_lp():
    lp = LinearProgram("min", ["p1", "p2", "t"], {"t": 1})
    lp.add({"p1": 1, "p2": 1}, "=", 1)
    lp.add({"p1": 1}, ">=", 0)
    lp.add({"p2": 1}, ">=", 0)
    lp.add({"p1": 1, "t": -1}, "<=", 0)
    lp.add({"p2": 1, "t": -1}, "<=", 0)
    return lp


def test_two_point_balance():
    sol = solve_lp(balance_lp())
    assert sol.optimum == Fraction(1, 2)
    assert sol.assignment["p1"] == sol.assignment["p2"] == Fraction(1, 2)


PENTAGON_SUPPORTS = [(y, (y - 1) % 5) for y in range(5)]


def pentagon_minimax_lp():
    names = [f"p{x}" for x in range(5)] + ["t"]
    lp = LinearProgram("min", names, {"t": 1})
    lp.add({f"p{x}": 1 for x in range(5)}, "=", 1)
    for x in range(5):
        lp.add({f"p{x}": 1}, ">=", 0)
    for support in PENTAGON_SUPPORTS:
        lp.add({f"p{x}": 1 for x in support} | {"t": -1}, "<=", 0)
    return lp


def grid_minimax_oracle(denominator=10) -> Fraction:
    """Brute force over all distributions on a 1/denominator grid."""
    best = None
    for cut in combinations_with_replacement(range(denominator + 1), 4):
        parts = [cut[0], cut[1] - cut[0], cut[2] - cut[1], cut[3] - cut[2],
                 denominator - cut[3]]
        dist = [Fraction(p, denominator) for p in parts]
        worst = max(sum(dist[x] for x in support) for support in PENTAGON_SUPPORTS)
        if best is None or worst < best:
            best = worst
    return best


def test_pentagon_lp_matches_grid_oracle():
    oracle = grid_minimax_oracle()
    assert oracle == Fraction(2, 5)  # uniform lies on the grid and is optimal
    sol = solve_lp(pentagon_minimax_lp())
    assert sol.optimum == Fraction(2, 5)


def _certificate(forged: str | None = None):
    """The balance LP's solution as _assert_certificates takes it, with one
    part of the certificate forged."""
    lp = balance_lp()
    sol = solve_lp(lp)
    assignment, optimum, dual = dict(sol.assignment), sol.optimum, list(sol.dual)
    if forged == "assignment":
        assignment["p2"] = Fraction(-1)  # breaks p2 >= 0
    elif forged == "dual-sign-leq":
        dual[3] = Fraction(1)  # a <= row of a min problem needs a dual <= 0
    elif forged == "dual-sign-geq":
        dual[1] = Fraction(-1)  # a >= row of a min problem needs a dual >= 0
    elif forged == "dual-equation":
        dual = [Fraction(0)] * len(dual)  # signs hold, t's column does not
    elif forged == "optimum":
        optimum += 1
    return lp, list(lp.variables), assignment, optimum, tuple(dual)


@pytest.mark.parametrize("forged, message", [
    ("assignment", "primal infeasible"),
    ("dual-sign-leq", "dual sign violation on <= row"),
    ("dual-sign-geq", "dual sign violation on >= row"),
    ("dual-equation", "dual equation violated for t"),
    ("optimum", "strong duality gap is nonzero"),
])
def test_forged_certificate_fails_its_check(forged, message):
    _assert_certificates(*_certificate())
    with pytest.raises(AssertionError, match=message):
        _assert_certificates(*_certificate(forged))


def test_infeasible():
    lp = LinearProgram("max", ["x"], {})
    lp.add({"x": 1}, "<=", 0)
    lp.add({"x": 1}, ">=", 1)
    with pytest.raises(Infeasible):
        solve_lp(lp)


def test_unbounded():
    lp = LinearProgram("max", ["x"], {"x": 1})
    lp.add({"x": 1}, ">=", 0)
    with pytest.raises(Unbounded):
        solve_lp(lp)


def test_max_sense_and_duals():
    lp = LinearProgram("max", ["x", "y"], {"x": 3, "y": 2})
    lp.add({"x": 1, "y": 1}, "<=", 4)
    lp.add({"x": 1}, "<=", 2)
    lp.add({"x": 1}, ">=", 0)
    lp.add({"y": 1}, ">=", 0)
    sol = solve_lp(lp)
    assert sol.optimum == 10
    assert sol.assignment == {"x": 2, "y": 2}
    # strong duality re-checked by hand
    rhs = [con.rhs for con in lp.constraints]
    assert sum(d * b for d, b in zip(sol.dual, rhs)) == 10


coeffs = st.fractions(min_value=-5, max_value=5)


@given(
    n=st.integers(min_value=1, max_value=3),
    rows=st.lists(st.tuples(st.lists(coeffs, min_size=3, max_size=3),
                            st.sampled_from(["<=", ">=", "="]),
                            coeffs),
                  min_size=0, max_size=3),
    objective=st.lists(coeffs, min_size=3, max_size=3),
    sense=st.sampled_from(["min", "max"]),
)
@settings(max_examples=120, deadline=None)
def test_random_boxed_lps_satisfy_strong_duality(n, rows, objective, sense):
    """Box constraints keep every instance feasible-or-infeasible but never
    unbounded, and solve_lp asserts primal/dual certificates internally."""
    names = [f"x{i}" for i in range(n)]
    lp = LinearProgram(sense, names, {names[i]: objective[i] for i in range(n)})
    for i in range(n):
        lp.add({names[i]: 1}, "<=", 10)
        lp.add({names[i]: 1}, ">=", -10)
    for coefficients, relation, rhs in rows:
        coeff_map = {names[i]: coefficients[i] for i in range(n)}
        lp.add(coeff_map, relation, rhs)
    try:
        sol = solve_lp(lp)
    except Infeasible:
        return
    # feasibility of the assignment, re-checked here
    for con in lp.constraints:
        lhs = sum(c * sol.assignment[v] for v, c in con.coeffs.items())
        assert (lhs <= con.rhs if con.relation == "<="
                else lhs >= con.rhs if con.relation == ">=" else lhs == con.rhs)
    assert sum(d * con.rhs for d, con in zip(sol.dual, lp.constraints)) == sol.optimum


# Reference solver: the two-phase simplex as it stood over a tableau of
# Fractions, one Fraction per entry.  The integer tableau must take every
# decision it takes, so optimum, assignment, dual and exceptions agree.

def reference_pivot(tableau, row, col):
    inv = 1 / tableau[row][col]
    pivot_line = [v * inv if v else v for v in tableau[row]]
    tableau[row] = pivot_line
    nonzero = [(j, w) for j, w in enumerate(pivot_line) if w]
    for r, line in enumerate(tableau):
        f = line[col]
        if r != row and f:
            for j, w in nonzero:
                line[j] -= f * w


def reference_simplex(tableau, basis, allowed):
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        col = next((j for j in range(len(obj) - 1)
                    if allowed[j] and obj[j] < 0), None)
        if col is None:
            return
        best_row, best_ratio = None, None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[best_row])):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            raise Unbounded("no leaving variable for an improving column")
        reference_pivot(tableau, best_row, col)
        basis[best_row] = col


def reference_solve_lp(problem):
    minimize = problem.sense == "min"
    names = list(problem.variables)
    nvar = len(names)
    obj = [Fraction(problem.objective.get(v, 0)) for v in names]
    if not minimize:
        obj = [-c for c in obj]
    m = len(problem.constraints)
    slack_of = {}
    for i, con in enumerate(problem.constraints):
        if con.relation != "=":
            slack_of[i] = len(slack_of)
    width = 2 * nvar + len(slack_of) + m + 1
    art0 = 2 * nvar + len(slack_of)
    tableau, row_sign = [], []
    for i, con in enumerate(problem.constraints):
        line = [Fraction(0)] * width
        for v, c in con.coeffs.items():
            j = names.index(v)
            line[j] += c
            line[nvar + j] -= c
        if con.relation != "=":
            line[2 * nvar + slack_of[i]] = Fraction(1 if con.relation == "<=" else -1)
        line[-1] = con.rhs
        sign = 1
        if line[-1] < 0:
            line = [-v for v in line]
            sign = -1
        line[art0 + i] = Fraction(1)
        tableau.append(line)
        row_sign.append(sign)
    phase1 = [Fraction(0)] * width
    for i in range(m):
        phase1 = [a - b for a, b in zip(phase1, tableau[i])]
    for i in range(m):
        phase1[art0 + i] = Fraction(0)
    tableau.append(phase1)
    basis = [art0 + i for i in range(m)]
    allowed = [True] * (width - 1)
    reference_simplex(tableau, basis, allowed)
    if tableau[-1][-1] != 0:
        raise Infeasible("phase-1 optimum is nonzero")
    for r in range(m):
        if basis[r] >= art0:
            col = next((j for j in range(art0) if tableau[r][j] != 0), None)
            if col is not None:
                reference_pivot(tableau, r, col)
                basis[r] = col
    objrow = [Fraction(0)] * width
    objrow[:nvar] = obj
    objrow[nvar:2 * nvar] = [-c for c in obj]
    for r, bvar in enumerate(basis):
        if objrow[bvar] != 0:
            f = objrow[bvar]
            objrow = [v - f * w for v, w in zip(objrow, tableau[r])]
    tableau[-1] = objrow
    for i in range(m):
        allowed[art0 + i] = False
    reference_simplex(tableau, basis, allowed)
    values = [Fraction(0)] * width
    for r, bvar in enumerate(basis):
        values[bvar] = tableau[r][-1]
    assignment = {names[j]: values[j] - values[nvar + j] for j in range(nvar)}
    optimum_min = sum(obj[j] * (values[j] - values[nvar + j]) for j in range(nvar))
    dual = [-tableau[-1][art0 + i] * row_sign[i] for i in range(m)]
    optimum = optimum_min if minimize else -optimum_min
    return LpSolution(optimum, assignment, tuple(d if minimize else -d for d in dual))


def _outcome(solver, lp):
    """The solution, or the type of the exception raised."""
    try:
        return solver(lp)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def assert_matches_reference(lp):
    assert _outcome(solve_lp, lp) == _outcome(reference_solve_lp, lp)


@given(
    n=st.integers(min_value=1, max_value=4),
    rows=st.lists(st.tuples(st.lists(coeffs, min_size=4, max_size=4),
                            st.sampled_from(["<=", ">=", "="]),
                            coeffs),
                  min_size=0, max_size=4),
    objective=st.lists(coeffs, min_size=4, max_size=4),
    sense=st.sampled_from(["min", "max"]),
    boxed=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_integer_tableau_matches_fraction_reference(n, rows, objective, sense, boxed):
    """Rational LPs, boxed or not (so unbounded ones occur): the integer
    tableau returns the reference's optimum, assignment and dual, or raises
    the same exception."""
    names = [f"x{i}" for i in range(n)]
    lp = LinearProgram(sense, names, {names[i]: objective[i] for i in range(n)})
    if boxed:
        for i in range(n):
            lp.add({names[i]: 1}, "<=", 10)
            lp.add({names[i]: 1}, ">=", -10)
    for coefficients, relation, rhs in rows:
        lp.add({names[i]: coefficients[i] for i in range(n)}, relation, rhs)
    assert_matches_reference(lp)


def _captured_lps(run, module):
    """Every LinearProgram that run() hands to ``module``'s solve_lp."""
    seen = []

    def record(lp):
        seen.append(lp)
        return solve_lp(lp)

    with mock.patch.object(module, "solve_lp", record):
        run()
    assert seen
    return seen


@pytest.mark.parametrize("q", [4, 5, 6, 7])
def test_typewriter_minimax_lp_matches_reference(q):
    """Typewriter minimax optima are not unique (uniform and alternating
    inputs both reach psi), so the reported optimizer follows the pivots."""
    for lp in _captured_lps(lambda: minimax_ladder_step(typewriter(q), 0, None), capacity):
        assert_matches_reference(lp)


@pytest.mark.parametrize("q", [5, 7])
def test_cycle_cover_lp_matches_reference(q):
    graph = certified_graph(typewriter(q))
    for lp in _captured_lps(lambda: fractional_clique_cover(graph), confgraph):
        assert_matches_reference(lp)


def test_constraint_rejects_unknown_relation():
    with pytest.raises(ValueError):
        Constraint({"x": Fraction(1)}, "<", Fraction(0))


def test_redundant_equalities_are_handled():
    lp = LinearProgram("max", ["x", "y"], {"x": 1})
    lp.add({"x": 1, "y": 1}, "=", 1)
    lp.add({"x": 1, "y": 1}, "=", 1)   # duplicate row
    lp.add({"x": 2, "y": 2}, "=", 2)   # scaled duplicate
    lp.add({"x": 1}, ">=", 0)
    lp.add({"y": 1}, ">=", 0)
    sol = solve_lp(lp)
    assert sol.optimum == 1
    assert sol.assignment == {"x": 1, "y": 0}


def test_degenerate_start_with_unbounded_direction():
    # the equality pins z; x stays free to run off to infinity
    lp = LinearProgram("max", ["x", "z"], {"x": 1})
    lp.add({"z": 1}, "=", 0)
    lp.add({"z": 1}, "<=", 0)
    lp.add({"x": 1}, ">=", 0)
    with pytest.raises(Unbounded):
        solve_lp(lp)
