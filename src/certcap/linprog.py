"""Exact rational linear programming via two-phase simplex with Bland's rule.

Variables are free; sign restrictions enter as ordinary constraints.  Every
solve returns a primal assignment, the exact optimum, and a dual vector that
is verified here to satisfy strong duality before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


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


def _pivot(tableau: list[list[Fraction]], row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col), in place.

    Other rows change only at the pivot row's nonzero columns: elsewhere
    v - f * 0 == v exactly, so the tableau equals a dense update's.
    """
    inv = 1 / tableau[row][col]
    pivot_line = [v * inv if v else v for v in tableau[row]]
    tableau[row] = pivot_line
    nonzero = [(j, w) for j, w in enumerate(pivot_line) if w]
    for r, line in enumerate(tableau):
        f = line[col]
        if r != row and f:
            for j, w in nonzero:
                line[j] -= f * w


def _simplex(tableau: list[list[Fraction]], basis: list[int],
             allowed: list[bool]) -> None:
    """Minimize the objective row in place; Bland's rule, hence terminating."""
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
        _pivot(tableau, best_row, col)
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

    rows: list[list[Fraction]] = []
    row_sign: list[int] = []
    for i, con in enumerate(problem.constraints):
        line = [Fraction(0)] * width
        for v, c in con.coeffs.items():
            j = names.index(v)
            line[j] += c
            line[nvar + j] -= c
        if con.relation == LEQ:
            line[2 * nvar + slack_of[i]] = Fraction(1)
        elif con.relation == GEQ:
            line[2 * nvar + slack_of[i]] = Fraction(-1)
        line[-1] = con.rhs
        sign = 1
        if line[-1] < 0:
            line = [-v for v in line]
            sign = -1
        line[art0 + i] = Fraction(1)
        rows.append(line)
        row_sign.append(sign)

    # phase 1: minimize the sum of artificials
    tableau = [list(r) for r in rows]
    phase1 = [Fraction(0)] * width
    for i in range(m):
        phase1 = [a - b for a, b in zip(phase1, tableau[i])]
    for i in range(m):
        phase1[art0 + i] = Fraction(0)
    tableau.append(phase1)
    basis = [art0 + i for i in range(m)]
    allowed = [True] * (width - 1)
    _simplex(tableau, basis, allowed)
    if tableau[-1][-1] != 0:
        raise Infeasible("phase-1 optimum is nonzero")

    # drive leftover basic artificials out by degenerate pivots; rows where
    # no structural column is available are all-zero (redundant constraints)
    # and stay inert under every later pivot
    for r in range(m):
        if basis[r] >= art0:
            col = next((j for j in range(art0) if tableau[r][j] != 0), None)
            if col is not None:
                _pivot(tableau, r, col)
                basis[r] = col

    # phase 2: real objective; surviving artificials sit on redundant rows,
    # are barred from entering, and their columns retain basis-inverse data
    # for the dual read-out.
    cost = [Fraction(0)] * width
    cost[:nvar] = obj
    cost[nvar:2 * nvar] = [-c for c in obj]
    objrow = list(cost)
    for r, bvar in enumerate(basis):
        if objrow[bvar] != 0:
            f = objrow[bvar]
            objrow = [v - f * w for v, w in zip(objrow, tableau[r])]
    tableau[-1] = objrow
    for i in range(m):
        allowed[art0 + i] = False
    _simplex(tableau, basis, allowed)

    values = [Fraction(0)] * width
    for r, bvar in enumerate(basis):
        values[bvar] = tableau[r][-1]
    assignment = {names[j]: values[j] - values[nvar + j] for j in range(nvar)}
    optimum_min = sum(obj[j] * (values[j] - values[nvar + j]) for j in range(nvar))
    dual_internal = [-tableau[-1][art0 + i] * row_sign[i] for i in range(m)]
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
    # dual feasibility: sign pattern and A^T d = c (variables are free)
    for i, con in enumerate(problem.constraints):
        d = dual[i]
        if con.relation == LEQ and (d > 0 if minimize else d < 0):
            raise AssertionError("dual sign violation on <= row")
        if con.relation == GEQ and (d < 0 if minimize else d > 0):
            raise AssertionError("dual sign violation on >= row")
    for j, v in enumerate(names):
        lhs = sum(dual[i] * con.coeffs.get(v, Fraction(0))
                  for i, con in enumerate(problem.constraints))
        if lhs != Fraction(problem.objective.get(v, 0)):
            raise AssertionError(f"dual equation violated for {v}")
    gap = sum(dual[i] * con.rhs for i, con in enumerate(problem.constraints))
    if gap != optimum:
        raise AssertionError("strong duality gap is nonzero")
