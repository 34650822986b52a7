"""Exact rational linear programming via two-phase simplex with Bland's rule.

One form only: minimise objective . x over free x subject to rows, each row
(coefficients, one per variable; relation; rhs).  Sign restrictions enter as
ordinary rows; each free variable is split into x+ - x- in the tableau.
Every solve returns the optimizer as a tuple indexed like the objective,
the exact optimum, and a dual vector that is verified here to satisfy
strong duality before anything is returned.

The LP is scaled to integers by the lcm of its denominators; each tableau
row is integers over its own positive den (``linalg.integer_pivot``), so a
pivot rewrites only the rows with a nonzero in its column.  Bland's rule
reads numerator signs and the ratio test cross-multiplies within rows, so
every pivot is a Fraction tableau's; the certificate is checked in integers
over the lcm of the dens before any Fraction is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import integer_pivot, integer_rows


class Infeasible(Exception):
    """The constraint system has no solution."""


class Unbounded(Exception):
    """The objective is unbounded over the feasible region."""


LEQ, EQ, GEQ = "<=", "=", ">="


@dataclass(frozen=True)
class LpSolution:
    optimum: Fraction
    assignment: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


def _simplex(tableau: list[list[int]], dens: list[int], basis: list[int], allowed: list[bool]):
    """Minimize the last row of the tableau (row r over dens[r]) in place;
    Bland's rule, hence terminating.  Rows below the len(basis) constraint
    rows are pivoted but never leave."""
    m = len(basis)
    while True:
        obj = tableau[-1]
        col = next((j for j in range(len(obj) - 1) if allowed[j] and obj[j] < 0), None)
        if col is None:
            return
        candidates = [r for r in range(m) if tableau[r][col] > 0]
        if not candidates:
            raise Unbounded("no leaving variable for an improving column")
        best_row = candidates[0]
        for r in candidates[1:]:
            # rhs_r / a_r < rhs_best / a_best, each row's den cancelling in its ratio
            lhs = tableau[r][-1] * tableau[best_row][col]
            rhs = tableau[best_row][-1] * tableau[r][col]
            if lhs < rhs or (lhs == rhs and basis[r] < basis[best_row]):
                best_row = r
        integer_pivot(tableau, dens, best_row, col)
        basis[best_row] = col


def solve_lp(objective, rows) -> LpSolution:
    """Exact optimum, optimizer and dual certificate of min objective . x
    over free x subject to ``rows``, for a feasible bounded LP.

    Each row is (coefficients, relation, rhs), one coefficient per variable
    and relation one of <=, =, >=.  The dual vector d (one entry per row, in
    input order) satisfies sum_i d_i * a_i = c componentwise, d_i <= 0 on <=
    rows, d_i >= 0 on >= rows, and d . b = optimum; all are asserted here in
    exact arithmetic before returning.
    """
    nvar, m = len(objective), len(rows)
    # the LP in integers: objective and rows times the lcm of their denominators
    (cost, *lines), scale = integer_rows([objective, *([*a, b] for a, _, b in rows)])
    lp = [(line[:-1], relation, line[-1]) for line, (_, relation, _) in zip(lines, rows)]
    # columns: x+ (nvar), x- (nvar), slacks (one per inequality), artificials (m)
    art0 = 2 * nvar + sum(relation != EQ for _, relation, _ in rows)
    width = art0 + m + 1
    tableau = []  # each row over scale, then over its den; the last row is phase 2's cost row
    slack = 2 * nvar
    for i, (coeffs, relation, rhs) in enumerate(lp):
        if relation not in (LEQ, EQ, GEQ):
            raise ValueError(f"unknown relation {relation!r}")
        if len(coeffs) != nvar:
            raise ValueError(f"rows must have {nvar} coefficients")
        line = [*coeffs, *(-c for c in coeffs), *[0] * (width - 2 * nvar - 1), rhs]
        if relation != EQ:
            line[slack] = scale if relation == LEQ else -scale
            slack += 1
        if rhs < 0:  # artificials start basic, so every rhs is made nonnegative
            line = [-v for v in line]
        line[art0 + i] = scale
        tableau.append(line)
    tableau.append([*cost, *(-c for c in cost), *[0] * (width - 2 * nvar)])

    # phase 1 minimizes the sum of artificials (the last row); every pivot
    # also prices out the row above it, the cost row
    phase1 = [-sum(column) for column in zip(*tableau[:m])] or [0] * width
    phase1[art0:-1] = [0] * m
    tableau.append(phase1)
    basis = [art0 + i for i in range(m)]
    allowed = [True] * (width - 1)
    dens = [scale] * len(tableau)
    _simplex(tableau, dens, basis, allowed)
    if tableau[-1][-1] != 0:
        raise Infeasible("phase-1 optimum is nonzero")

    # drive leftover basic artificials out by degenerate pivots; rows where
    # no structural column is available are all-zero (redundant constraints)
    # and stay inert under every later pivot
    for r in range(m):
        if basis[r] >= art0:
            col = next((j for j in range(art0) if tableau[r][j] != 0), None)
            if col is not None:
                integer_pivot(tableau, dens, r, col)
                basis[r] = col

    # phase 2: real objective; surviving artificials sit on redundant rows,
    # are barred from entering, and their columns retain basis-inverse data
    # for the dual read-out.
    del tableau[-1], dens[-1]
    allowed[art0:] = [False] * m
    _simplex(tableau, dens, basis, allowed)

    den = lcm(*dens)  # values and duals read out over one den
    values = [0] * width
    for r, bvar in enumerate(basis):
        values[bvar] = tableau[r][-1] * (den // dens[r])
    assignment = [values[j] - values[nvar + j] for j in range(nvar)]
    dual = [tableau[-1][art0 + i] * (den // dens[-1]) * (1 if rhs < 0 else -1)
            for i, (_, _, rhs) in enumerate(lp)]
    optimum = sum(c * x for c, x in zip(cost, assignment))
    _assert_certificates(cost, lp, assignment, optimum, dual, den)
    return LpSolution(Fraction(optimum, scale * den), tuple(Fraction(x, den) for x in assignment),
                      tuple(Fraction(d, den) for d in dual))


def _assert_certificates(objective, rows, assignment, optimum, dual, den):
    """Primal feasibility, dual signs, A^T d = c and d . b = optimum, exactly,
    for the certificate x = assignment / den, d = dual / den and optimum /
    den of the LP (objective, rows).  Multiplied through by den every check
    is one of numerators, so on the integer LP that solve_lp scales its input
    to, no Fraction is built; every sum skips zero coefficients."""
    residual = [-c * den for c in objective]  # A^T d - c, row by row, times den
    for i, ((coeffs, relation, rhs), d) in enumerate(zip(rows, dual)):
        lhs, rhs = sum(c * x for c, x in zip(coeffs, assignment) if c), rhs * den
        if not (lhs <= rhs if relation == LEQ else lhs >= rhs if relation == GEQ
                else lhs == rhs):
            raise AssertionError(f"primal infeasible at row {i}")
        if relation == LEQ and d > 0:
            raise AssertionError("dual sign violation on <= row")
        if relation == GEQ and d < 0:
            raise AssertionError("dual sign violation on >= row")
        if d:
            for j, c in enumerate(coeffs):
                if c:
                    residual[j] += d * c
    for j, r in enumerate(residual):
        if r:
            raise AssertionError(f"dual equation violated for variable {j}")
    if sum(d * rhs for d, (_, _, rhs) in zip(dual, rows) if d) != optimum:
        raise AssertionError("strong duality gap is nonzero")
