from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certcap import capacity, confgraph, linprog
from certcap.channel import typewriter
from certcap.confgraph import certified_graph, fractional_clique_cover
from certcap.graph import Support
from certcap.linalg import integer_pivot
from certcap.linprog import Infeasible, LpSolution, Unbounded, _assert_certificates, solve_lp

F = Fraction


def unit(k, n):
    """The coefficients of variable k alone, among n variables."""
    return tuple(int(i == k) for i in range(n))


def balance_lp():
    # variables p1, p2, t: min t, p1 + p2 = 1, p >= 0, each p <= t
    return (0, 0, 1), [
        ((1, 1, 0), "=", 1),
        ((1, 0, 0), ">=", 0),
        ((0, 1, 0), ">=", 0),
        ((1, 0, -1), "<=", 0),
        ((0, 1, -1), "<=", 0),
    ]


def test_two_point_balance():
    sol = solve_lp(*balance_lp())
    assert sol.optimum == Fraction(1, 2)
    assert sol.assignment == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


PENTAGON_SUPPORTS = [(y, (y - 1) % 5) for y in range(5)]


def pentagon_minimax_lp():
    # variables p0 .. p4, t
    rows = [((1,) * 5 + (0,), "=", 1)]
    rows += [(unit(x, 6), ">=", 0) for x in range(5)]
    rows += [(tuple(int(x in support) for x in range(5)) + (-1,), "<=", 0)
             for support in PENTAGON_SUPPORTS]
    return unit(5, 6), rows


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
    sol = solve_lp(*pentagon_minimax_lp())
    assert sol.optimum == Fraction(2, 5)


def _certificate(forged: str | None = None):
    """The balance LP's solution as _assert_certificates takes it, numerators
    over one den (the LP's data are integers already), with one part of the
    certificate forged."""
    objective, rows = balance_lp()
    sol = solve_lp(objective, rows)
    den = lcm(*(v.denominator for v in (*sol.assignment, sol.optimum, *sol.dual)))
    assignment = [int(x * den) for x in sol.assignment]
    optimum = int(sol.optimum * den)
    dual = [int(d * den) for d in sol.dual]
    if forged == "assignment":
        assignment[1] = -den  # p2 = -1 breaks p2 >= 0
    elif forged == "dual-sign-leq":
        dual[3] = den  # a dual of 1 on a <= row, which needs a dual <= 0
    elif forged == "dual-sign-geq":
        dual[1] = -den  # a dual of -1 on a >= row, which needs a dual >= 0
    elif forged == "dual-equation":
        dual = [0] * len(dual)  # signs hold, t's column does not
    elif forged == "optimum":
        optimum += den  # one more than the optimum
    return objective, rows, tuple(assignment), optimum, tuple(dual), den


@pytest.mark.parametrize("forged, message", [
    ("assignment", "primal infeasible"),
    ("dual-sign-leq", "dual sign violation on <= row"),
    ("dual-sign-geq", "dual sign violation on >= row"),
    ("dual-equation", "dual equation violated for variable 2"),
    ("optimum", "strong duality gap is nonzero"),
])
def test_forged_certificate_fails_its_check(forged, message):
    _assert_certificates(*_certificate())
    with pytest.raises(AssertionError, match=message):
        _assert_certificates(*_certificate(forged))


def test_infeasible():
    with pytest.raises(Infeasible):
        solve_lp((0,), [((1,), "<=", 0), ((1,), ">=", 1)])


def test_unbounded():
    # max x over x >= 0, as min -x
    with pytest.raises(Unbounded):
        solve_lp((-1,), [((1,), ">=", 0)])


def test_negated_objective_and_duals():
    # max 3x + 2y over x + y <= 4, x <= 2, x, y >= 0, as min -3x - 2y
    objective = (-3, -2)
    rows = [((1, 1), "<=", 4), ((1, 0), "<=", 2), ((1, 0), ">=", 0), ((0, 1), ">=", 0)]
    sol = solve_lp(objective, rows)
    assert sol.optimum == -10
    assert sol.assignment == (2, 2)
    # the dual certificate re-checked by hand
    assert all(d <= 0 for d in sol.dual[:2]) and all(d >= 0 for d in sol.dual[2:])
    for j, c in enumerate(objective):
        assert sum(d * a[j] for d, (a, _, _) in zip(sol.dual, rows)) == c
    assert sum(d * b for d, (_, _, b) in zip(sol.dual, rows)) == -10


def test_solve_lp_rejects_malformed_rows():
    with pytest.raises(ValueError, match="unknown relation"):
        solve_lp((1,), [((1,), "<", 0)])
    with pytest.raises(ValueError, match="rows must have 2 coefficients"):
        solve_lp((1, 0), [((1,), "<=", 0)])


coeffs = st.fractions(min_value=-5, max_value=5)


def random_lp(n, rows, objective, boxed):
    """n variables, each boxed to [-10, 10] or not, then the drawn rows."""
    lp_rows = [row for i in range(n) if boxed
               for row in ((unit(i, n), "<=", 10), (unit(i, n), ">=", -10))]
    lp_rows += [(tuple(coefficients[:n]), relation, rhs) for coefficients, relation, rhs in rows]
    return tuple(objective[:n]), lp_rows


@given(
    n=st.integers(min_value=1, max_value=3),
    rows=st.lists(st.tuples(st.lists(coeffs, min_size=3, max_size=3),
                            st.sampled_from(["<=", ">=", "="]),
                            coeffs),
                  min_size=0, max_size=3),
    objective=st.lists(coeffs, min_size=3, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_random_boxed_lps_satisfy_strong_duality(n, rows, objective):
    """Box constraints keep every instance feasible-or-infeasible but never
    unbounded, and solve_lp asserts primal/dual certificates internally.
    The objective's sign is drawn, so a max problem is covered as the min
    of its negation."""
    objective, rows = random_lp(n, rows, objective, boxed=True)
    try:
        sol = solve_lp(objective, rows)
    except Infeasible:
        return
    # feasibility of the assignment, re-checked here
    for coefficients, relation, rhs in rows:
        lhs = sum(c * x for c, x in zip(coefficients, sol.assignment))
        assert (lhs <= rhs if relation == "<="
                else lhs >= rhs if relation == ">=" else lhs == rhs)
    assert sum(d * rhs for d, (_, _, rhs) in zip(sol.dual, rows)) == sol.optimum


# Reference solver: the two-phase simplex as it stood over a tableau of
# Fractions, one Fraction per entry.  The integer tableau must take every
# decision it takes: the same (row, column) pivots in the same order, hence
# the same optimum, assignment, dual and exceptions.  ``path`` collects the
# reference's pivots.

def reference_pivot(tableau, row, col, path):
    path.append((row, col))
    inv = 1 / tableau[row][col]
    pivot_line = [v * inv if v else v for v in tableau[row]]
    tableau[row] = pivot_line
    nonzero = [(j, w) for j, w in enumerate(pivot_line) if w]
    for r, line in enumerate(tableau):
        f = line[col]
        if r != row and f:
            for j, w in nonzero:
                line[j] -= f * w


def reference_simplex(tableau, basis, allowed, path):
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
        reference_pivot(tableau, best_row, col, path)
        basis[best_row] = col


def reference_solve_lp(objective, rows, path):
    nvar = len(objective)
    obj = [Fraction(c) for c in objective]
    m = len(rows)
    slack_of = {}
    for i, (_, relation, _) in enumerate(rows):
        if relation != "=":
            slack_of[i] = len(slack_of)
    width = 2 * nvar + len(slack_of) + m + 1
    art0 = 2 * nvar + len(slack_of)
    tableau, row_sign = [], []
    for i, (coefficients, relation, rhs) in enumerate(rows):
        line = [Fraction(0)] * width
        for j, c in enumerate(coefficients):
            line[j] += c
            line[nvar + j] -= c
        if relation != "=":
            line[2 * nvar + slack_of[i]] = Fraction(1 if relation == "<=" else -1)
        line[-1] = Fraction(rhs)
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
    reference_simplex(tableau, basis, allowed, path)
    if tableau[-1][-1] != 0:
        raise Infeasible("phase-1 optimum is nonzero")
    for r in range(m):
        if basis[r] >= art0:
            col = next((j for j in range(art0) if tableau[r][j] != 0), None)
            if col is not None:
                reference_pivot(tableau, r, col, path)
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
    reference_simplex(tableau, basis, allowed, path)
    values = [Fraction(0)] * width
    for r, bvar in enumerate(basis):
        values[bvar] = tableau[r][-1]
    assignment = tuple(values[j] - values[nvar + j] for j in range(nvar))
    optimum = sum(obj[j] * assignment[j] for j in range(nvar))
    dual = [-tableau[-1][art0 + i] * row_sign[i] for i in range(m)]
    return LpSolution(optimum, assignment, tuple(dual))


def _outcome(solve):
    """The solution, or the type of the exception raised."""
    try:
        return solve()
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def pivot_path(lp):
    """solve_lp's outcome on lp and the (row, column) of each of its pivots."""
    path = []

    def pivot(rows, dens, row, col):
        path.append((row, col))
        integer_pivot(rows, dens, row, col)

    with mock.patch.object(linprog, "integer_pivot", pivot):
        return _outcome(lambda: solve_lp(*lp)), path


def reference_path(lp):
    """The reference's outcome on lp and the (row, column) of each of its pivots."""
    path = []
    return _outcome(lambda: reference_solve_lp(*lp, path)), path


def assert_matches_reference(lp):
    assert pivot_path(lp) == reference_path(lp)


@given(
    n=st.integers(min_value=1, max_value=4),
    rows=st.lists(st.tuples(st.lists(coeffs, min_size=4, max_size=4),
                            st.sampled_from(["<=", ">=", "="]),
                            coeffs),
                  min_size=0, max_size=4),
    objective=st.lists(coeffs, min_size=4, max_size=4),
    boxed=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_integer_tableau_matches_fraction_reference(n, rows, objective, boxed):
    """Rational LPs, boxed or not (so unbounded ones occur): the integer
    tableau takes the reference's pivots and returns its optimum, assignment
    and dual, or raises the same exception."""
    assert_matches_reference(random_lp(n, rows, objective, boxed))


def _captured_lps(run, module):
    """Every (objective, rows) that run() hands to ``module``'s solve_lp."""
    seen = []

    def record(*lp):
        seen.append(lp)
        return solve_lp(*lp)

    with mock.patch.object(module, "solve_lp", record):
        run()
    assert seen
    return seen


@pytest.mark.parametrize("q", [3, 4, 5, 6, 7])
def test_typewriter_minimax_lp_matches_reference(q):
    """Typewriter minimax optima are not unique (uniform and alternating
    inputs both reach psi), so the reported optimizer follows the pivots.
    The LP is solved on the true supports directly: typewriter(3)'s graph is
    complete, so its capacity step solves none."""
    ch = typewriter(q)
    supports = Support(ch, 0).sets
    for lp in _captured_lps(lambda: capacity._solve_minimax(q, supports), capacity):
        assert_matches_reference(lp)


@given(nx=st.integers(min_value=1, max_value=6), data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_minimax_lps_match_reference(nx, data):
    """Random support patterns up to 6 x 6, empty outputs included: the
    minimax LP's solution is the reference's, pivot for pivot."""
    subsets = st.lists(st.integers(min_value=0, max_value=nx - 1), unique=True).map(
        lambda xs: tuple(sorted(xs)))
    supports = tuple(data.draw(st.lists(subsets, min_size=1, max_size=6)))
    assume(any(supports))  # with no support at all no LP is solved
    for lp in _captured_lps(lambda: capacity._solve_minimax(nx, supports), capacity):
        assert_matches_reference(lp)


def test_degenerate_minimax_optimizer_follows_the_free_pivots():
    """Two distributions reach the value 1/2 here; the split of free
    variables into x+ - x- picks (0, 1/2, 1/2, 0, 0), where a tableau over
    nonnegative variables would pick (0, 1/2, 0, 0, 1/2)."""
    sol = capacity._solve_minimax(5, ((0, 2, 3, 4), (0, 1, 3), (0, 4)))
    assert sol.value == F(1, 2)
    assert sol.distribution == (0, F(1, 2), F(1, 2), 0, 0)
    assert sol.output_weights == (F(1, 2), F(1, 2), 0)


@pytest.mark.parametrize("q", [5, 7])
def test_cycle_cover_lp_matches_reference(q):
    graph = certified_graph(typewriter(q))
    for lp in _captured_lps(lambda: fractional_clique_cover(graph), confgraph):
        assert_matches_reference(lp)


def test_redundant_equalities_are_handled():
    # max x, as min -x, over variables x, y
    sol = solve_lp((-1, 0), [
        ((1, 1), "=", 1),
        ((1, 1), "=", 1),   # duplicate row
        ((2, 2), "=", 2),   # scaled duplicate
        ((1, 0), ">=", 0),
        ((0, 1), ">=", 0),
    ])
    assert sol.optimum == -1
    assert sol.assignment == (1, 0)


def test_degenerate_start_with_unbounded_direction():
    # the equality pins z; x stays free to run off to infinity (max x, as
    # min -x, over variables x, z)
    with pytest.raises(Unbounded):
        solve_lp((-1, 0), [((0, 1), "=", 0), ((0, 1), "<=", 0), ((1, 0), ">=", 0)])


def drive_out_pivots(lp):
    """solve_lp's outcome on lp and the (row, column) of each pivot made
    outside the simplex loops: the degenerate pivots that drive leftover
    basic artificials out between the two phases."""
    pivots, in_simplex = [], []
    real_simplex = linprog._simplex

    def simplex(*args):
        in_simplex.append(True)
        try:
            return real_simplex(*args)
        finally:
            in_simplex.pop()

    def pivot(rows, dens, row, col):
        if not in_simplex:
            pivots.append((row, col))
        integer_pivot(rows, dens, row, col)

    with mock.patch.object(linprog, "_simplex", simplex), \
            mock.patch.object(linprog, "integer_pivot", pivot):
        return _outcome(lambda: solve_lp(*lp)), pivots


@pytest.mark.parametrize("lp, driven", [
    # -2x >= 0 and x >= 0: phase 1 ends with x's second artificial basic at 0
    (((0,), [((-2,), ">=", 0), ((1,), ">=", 0)]), [(1, 2)]),
    # x pinned to 0 four ways, one of them the all-zero row 0 <= 0
    (((3,), [((1,), "<=", 0), ((-1,), ">=", 0), ((0,), "<=", 0), ((1,), ">=", 0)]),
     [(1, 2), (3, 3)]),
], ids=["two-rows", "four-rows"])
def test_leftover_artificials_are_driven_out(lp, driven):
    solution, pivots = drive_out_pivots(lp)
    assert pivots == driven
    assert solution.optimum == 0 and solution.assignment == (0,)
    assert pivot_path(lp) == reference_path(lp)  # optimum, assignment and duals too


@given(
    n=st.integers(min_value=1, max_value=3),
    rows=st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                            st.sampled_from(["<=", ">=", "="])),
                  min_size=1, max_size=4),
    objective=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_homogeneous_lps_match_fraction_reference(n, rows, objective):
    """Rows with rhs 0 end phase 1 at a degenerate vertex, where about one
    LP in four leaves an artificial basic for the drive-out pivot; the
    integer tableau still takes the reference's pivots and returns its
    optimum (0, or Unbounded), assignment and dual."""
    lp = tuple(objective[:n]), [(tuple(c[:n]), relation, 0) for c, relation in rows]
    assert_matches_reference(lp)
