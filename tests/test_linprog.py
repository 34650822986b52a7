from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcap import linprog
from certcap.linprog import (Constraint, Infeasible, LinearProgram, Unbounded,
                             solve_lp)


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


def dense_pivot(tableau, row, col):
    """Reference Gauss-Jordan pivot that rewrites every entry of every row."""
    inv = 1 / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            f = line[col]
            tableau[r] = [v - f * w for v, w in zip(line, tableau[row])]


def _solve_or_infeasible(lp):
    try:
        return solve_lp(lp)
    except Infeasible:
        return None


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
def test_sparse_pivot_matches_dense_pivot(n, rows, objective, sense):
    """Same boxed LPs as above: skipping zero columns of the pivot row must
    leave the optimum, assignment, duals and infeasibility unchanged."""
    names = [f"x{i}" for i in range(n)]
    lp = LinearProgram(sense, names, {names[i]: objective[i] for i in range(n)})
    for i in range(n):
        lp.add({names[i]: 1}, "<=", 10)
        lp.add({names[i]: 1}, ">=", -10)
    for coefficients, relation, rhs in rows:
        lp.add({names[i]: coefficients[i] for i in range(n)}, relation, rhs)
    sparse = _solve_or_infeasible(lp)
    with mock.patch.object(linprog, "_pivot", dense_pivot):
        dense = _solve_or_infeasible(lp)
    assert (sparse is None) == (dense is None)
    if sparse is not None:
        assert sparse.optimum == dense.optimum
        assert sparse.assignment == dense.assignment
        assert sparse.dual == dense.dual


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
