"""Exact rational linear programming via two-phase simplex with Bland's rule.

Variables are free; sign restrictions enter as ordinary constraints.  Every
solve returns a primal assignment, the exact optimum, and a dual vector that
is verified here to satisfy strong duality before anything is returned.

The tableau holds integers over one positive shared denominator
(``linalg.integer_pivot``).  Bland's rule reads numerator signs and the ratio
test cross-multiplies, so every pivot is the one a tableau of Fractions takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .linalg import integer_pivot


class Infeasible(Exception):
    """The constraint system has no solution."""


class Unbounded(Exception):
    """The objective is unbounded over the feasible region."""


LEQ, EQ, GEQ = "<=", "=", ">="
_RELATIONS = (LEQ, EQ, GEQ)


@dataclass(frozen=True)
class Constraint:
    coeffs: dict
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass
class LinearProgram:
    """min or max of a linear objective subject to linear constraints."""

    sense: str  # "min" | "max"
    variables: list[str]
    objective: dict = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)

    def add(self, coeffs: dict, relation: str, rhs) -> None:
        self.constraints.append(Constraint(
            {v: Fraction(c) for v, c in coeffs.items()}, relation, Fraction(rhs)))


@dataclass(frozen=True)
class LpSolution:
    optimum: Fraction
    assignment: dict
    dual: tuple[Fraction, ...]


def _simplex(tableau: list[list[int]], den: int, basis: list[int],
             allowed: list[bool]) -> int:
    """Minimize the last row of tableau / den in place; Bland's rule, hence
    terminating.  Rows below the len(basis) constraint rows are pivoted but
    never leave; returns the final den."""
    m = len(basis)
    while True:
        obj = tableau[-1]
        col = next((j for j in range(len(obj) - 1)
                    if allowed[j] and obj[j] < 0), None)
        if col is None:
            return den
        best_row = None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                if best_row is None:
                    best_row = r
                    continue
                # rhs_r / a against rhs_best / a_best, both a positive
                lhs = tableau[r][-1] * tableau[best_row][col]
                rhs = tableau[best_row][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_row]):
                    best_row = r
        if best_row is None:
            raise Unbounded("no leaving variable for an improving column")
        den = integer_pivot(tableau, den, best_row, col)
        basis[best_row] = col


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Exact optimum, optimizer and dual certificate of a feasible bounded LP.

    The dual vector d (one entry per constraint, in input order) satisfies
    sum_i d_i * a_i = c componentwise and d . b = optimum, with the sign
    conventions of the problem's sense; both identities are asserted here in
    exact arithmetic before returning.
    """
    minimize = problem.sense == "min"
    if problem.sense not in ("min", "max"):
        raise ValueError(f"unknown sense {problem.sense!r}")
    names = list(problem.variables)
    nvar = len(names)
    obj = [Fraction(problem.objective.get(v, 0)) for v in names]
    if not minimize:
        obj = [-c for c in obj]

    m = len(problem.constraints)
    # columns: x+ (nvar), x- (nvar), slacks (one per inequality), artificials (m)
    slack_of: dict[int, int] = {}
    nslack = 0
    for i, con in enumerate(problem.constraints):
        if con.relation != EQ:
            slack_of[i] = nslack
            nslack += 1
    width = 2 * nvar + nslack + m + 1
    art0 = 2 * nvar + nslack

    # one integer tableau over the lcm of the LP's denominators
    scale = lcm(*(c.denominator for c in obj),
                *(c.denominator for con in problem.constraints
                  for c in (*con.coeffs.values(), con.rhs)))
    tableau: list[list[int]] = []
    row_sign: list[int] = []
    for i, con in enumerate(problem.constraints):
        line = [0] * width
        for v, c in con.coeffs.items():
            j = names.index(v)
            c = c.numerator * (scale // c.denominator)
            line[j] += c
            line[nvar + j] -= c
        if con.relation != EQ:
            line[2 * nvar + slack_of[i]] = scale if con.relation == LEQ else -scale
        line[-1] = con.rhs.numerator * (scale // con.rhs.denominator)
        sign = 1
        if line[-1] < 0:
            line = [-v for v in line]
            sign = -1
        line[art0 + i] = scale
        tableau.append(line)
        row_sign.append(sign)

    # phase 1 minimizes the sum of artificials (the last row); every pivot
    # also prices out the row above it, phase 2's cost row
    cost = [c.numerator * (scale // c.denominator) for c in obj]
    phase1 = [-sum(line[j] for line in tableau) for j in range(width)]
    for i in range(m):
        phase1[art0 + i] = 0
    tableau += [cost + [-c for c in cost] + [0] * (width - 2 * nvar), phase1]
    basis = [art0 + i for i in range(m)]
    allowed = [True] * (width - 1)
    den = _simplex(tableau, scale, basis, allowed)
    if tableau[-1][-1] != 0:
        raise Infeasible("phase-1 optimum is nonzero")

    # drive leftover basic artificials out by degenerate pivots; rows where
    # no structural column is available are all-zero (redundant constraints)
    # and stay inert under every later pivot
    for r in range(m):
        if basis[r] >= art0:
            col = next((j for j in range(art0) if tableau[r][j] != 0), None)
            if col is not None:
                den = integer_pivot(tableau, den, r, col)
                basis[r] = col

    # phase 2: real objective; surviving artificials sit on redundant rows,
    # are barred from entering, and their columns retain basis-inverse data
    # for the dual read-out.
    tableau.pop()
    for i in range(m):
        allowed[art0 + i] = False
    den = _simplex(tableau, den, basis, allowed)

    values = [0] * width
    for r, bvar in enumerate(basis):
        values[bvar] = tableau[r][-1]
    assignment = {names[j]: Fraction(values[j] - values[nvar + j], den)
                  for j in range(nvar)}
    optimum_min = sum(obj[j] * assignment[names[j]] for j in range(nvar))
    dual_internal = [Fraction(-tableau[-1][art0 + i] * row_sign[i], den)
                     for i in range(m)]
    optimum = optimum_min if minimize else -optimum_min
    dual = tuple(d if minimize else -d for d in dual_internal)

    _assert_certificates(problem, names, assignment, optimum, dual)
    return LpSolution(optimum, assignment, dual)


def _assert_certificates(problem, names, assignment, optimum, dual):
    minimize = problem.sense == "min"
    # primal feasibility, exactly
    for con in problem.constraints:
        lhs = sum(c * assignment[v] for v, c in con.coeffs.items())
        ok = (lhs <= con.rhs if con.relation == LEQ else
              lhs >= con.rhs if con.relation == GEQ else lhs == con.rhs)
        if not ok:
            raise AssertionError(f"primal infeasible at {con}")
    # dual feasibility: sign pattern and A^T d = c (variables are free),
    # the residual A^T d - c summed over each row's own coefficients
    residual = {v: -Fraction(problem.objective.get(v, 0)) for v in names}
    for d, con in zip(dual, problem.constraints):
        if con.relation == LEQ and (d > 0 if minimize else d < 0):
            raise AssertionError("dual sign violation on <= row")
        if con.relation == GEQ and (d < 0 if minimize else d > 0):
            raise AssertionError("dual sign violation on >= row")
        if d:
            for v, c in con.coeffs.items():
                residual[v] += d * c
    for v in names:
        if residual[v]:
            raise AssertionError(f"dual equation violated for {v}")
    gap = sum(dual[i] * con.rhs for i, con in enumerate(problem.constraints))
    if gap != optimum:
        raise AssertionError("strong duality gap is nonzero")
