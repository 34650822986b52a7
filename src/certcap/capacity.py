"""Channel capacity quantities with exact or certified-interval results.

Each quantity has one routine, driven by the command line and the
classifier alike: the feedback zero-error capacity through Shannon's minimax
over output support masses, an exact rational LP solved by
minimax_ladder_step: once, at level 0, on an exact channel, and once per
declared level on a stream channel, where each rung is built on the last and
bounds the capacity from above; and ShannonBounds, two-sided certified
bounds on the ordinary capacity whose step(log_width) runs one
alternating-optimization iteration at the width its caller schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .channel import Channel, SupportCertificate, certify_support, support_sets
from .confgraph import confusability_graph
from .enclosure import (DomainError, Enclosure, log2_enclosure, log2_fixed,
                        rational_str, width_bits)
from .linprog import LinearProgram, solve_lp

DEFAULT_C0FB_WIDTH = Fraction(1, 1 << 20)


@dataclass(frozen=True)
class MinimaxSolution:
    """Value and optimizers of min over inputs dists of the worst output mass."""

    value: Fraction
    distribution: tuple[Fraction, ...]
    # dual weights over the output constraints; they certify the value from
    # below, which is the direction the feedback capacity bound needs
    output_weights: tuple[Fraction, ...]
    support_sets: tuple[tuple[int, ...], ...]


def _solve_minimax(nx: int, supports: tuple[tuple[int, ...], ...]) -> MinimaxSolution:
    """The minimax LP over fixed output supports; it depends on nothing else."""
    ny = len(supports)
    if all(not s for s in supports):
        return MinimaxSolution(Fraction(0), (Fraction(1),) + (Fraction(0),) * (nx - 1),
                               (Fraction(0),) * ny, supports)
    names = [f"p{x}" for x in range(nx)] + ["t"]
    lp = LinearProgram("min", names, {"t": 1})
    lp.add({f"p{x}": 1 for x in range(nx)}, "=", 1)
    for x in range(nx):
        lp.add({f"p{x}": 1}, ">=", 0)
    constraint_outputs = []
    for y in range(ny):
        if supports[y]:
            coeffs = {f"p{x}": Fraction(1) for x in supports[y]}
            coeffs["t"] = Fraction(-1)
            lp.add(coeffs, "<=", 0)
            constraint_outputs.append(y)
    sol = solve_lp(lp)
    dist = tuple(sol.assignment[f"p{x}"] for x in range(nx))
    weights = [Fraction(0)] * ny
    for idx, y in enumerate(constraint_outputs):
        weights[y] = -sol.dual[1 + nx + idx]  # <=-row duals are nonpositive here
    return MinimaxSolution(sol.optimum, dist, tuple(weights), supports)


@dataclass(frozen=True)
class FeedbackCapacity:
    """Feedback zero-error capacity: exact symbolic form plus an enclosure."""

    zero_capacity: bool
    inverse_mass: Fraction  # capacity = log2 of this (1 when zero_capacity)
    enclosure: Enclosure
    minimax: MinimaxSolution | None

    def to_json(self) -> dict:
        return {"exact_inverse_psi": rational_str(self.inverse_mass),
                "zero_capacity": self.zero_capacity,
                "enclosure": self.enclosure.to_json()}


def feedback_zero_error_capacity(ch: Channel,
                                 max_width: Fraction = DEFAULT_C0FB_WIDTH) -> FeedbackCapacity:
    """Shannon's feedback zero-error capacity of an exact channel.

    Zero exactly when the confusability graph is complete; otherwise
    log2(1/mass), mass the level-0 rung of the minimax ladder, with the
    exact rational 1/mass retained so comparisons can be refined later to
    any precision.  The graph and the rung share one support certificate.
    """
    if not ch.is_exact:
        raise DomainError("exact channel required; use the minimax ladder for streams")
    support = certify_support(ch)
    if confusability_graph(support, ch.inputs, len(ch.outputs)).is_complete():
        return FeedbackCapacity(True, Fraction(1), Enclosure.exact(Fraction(0)), None)
    rung = minimax_ladder_step(ch, 0, None, width=max_width, support=support)
    return FeedbackCapacity(False, 1 / rung.mass, rung.upper, rung.solution)


@dataclass(frozen=True)
class MinimaxRung:
    level: int
    mass: Fraction
    upper: Enclosure | None  # enclosure of log2(1/mass); None while mass == 0
    solution: MinimaxSolution


def minimax_ladder_step(ch: Channel, level: int, last: MinimaxRung | None, *,
                        width: Fraction = DEFAULT_C0FB_WIDTH,
                        support: SupportCertificate | None = None) -> MinimaxRung:
    """The rung after ``last`` (None before the first): support certified at
    ``level``, or ``support`` when the caller has already certified it there.

    Proven support only grows with the level, so the minimax mass is
    nondecreasing along the rungs and log2(1/mass) is an upper bound on the
    feedback zero-error capacity of a stream channel that converges downward
    as entries resolve.  The minimax LP depends only on the support sets,
    so a level whose sets equal the last rung's reuses that rung's solution
    and solves no LP.  ``upper`` is always enclosed afresh at ``width``.
    """
    if last is not None and level <= last.level:
        raise DomainError("ladder levels must increase")
    nx = len(ch.inputs)
    supports = support_sets(support or certify_support(ch, level), nx, len(ch.outputs))
    if last is not None and supports == last.solution.support_sets:
        sol = last.solution
    else:
        sol = _solve_minimax(nx, supports)
    if last is not None and sol.value < last.mass:
        raise RuntimeError("support refinement decreased the minimax mass")
    upper = None if sol.value == 0 else log2_enclosure(1 / sol.value, width)
    return MinimaxRung(level, sol.value, upper, sol)


# ---------------------------------------------------------------------------
# ordinary capacity: alternating optimization with certified two-sided bounds

class ShannonBounds:
    """Anytime certified bracket [lower.lo, upper.hi] around the capacity.

    The input distribution evolves by the Blahut-Arimoto update in floating
    point, on rows converted to floats once.  Each step recomputes both
    bounds exactly at the current distribution (certified_capacity_bounds:
    integer sums, one Fraction per endpoint) with log2 terms of the width it
    is given, so the bracket is sound however the iteration behaves.  Each
    side keeps its best bound, with the distribution and log width that give it.
    """

    def __init__(self, ch: Channel):
        if not ch.is_exact:
            raise DomainError("exact channel required")
        self.rows = ch.rows
        self.float_rows = [[float(w) for w in row] for row in ch.rows]
        nx = len(ch.inputs)
        self.dist = tuple(Fraction(1, nx) for _ in range(nx))
        self.iterations = 0
        self.lower = self.upper = None  # the best Enclosure on each side so far
        self.lower_from = self.upper_from = None  # (distribution, log width)

    @property
    def gap(self) -> Fraction:
        return self.upper.hi - self.lower.lo

    @property
    def input_distribution(self) -> tuple[Fraction, ...]:
        return self.lower_from[0]

    def step(self, log_width: Fraction) -> None:
        lower, upper = certified_capacity_bounds(self.rows, self.dist, log_width)
        if self.lower is None or lower.lo > self.lower.lo:
            self.lower, self.lower_from = lower, (self.dist, log_width)
        if self.upper is None or upper.hi < self.upper.hi:
            self.upper, self.upper_from = upper, (self.dist, log_width)
        self.dist = next_distribution(self.float_rows, self.dist)
        self.iterations += 1

    def to_json(self) -> dict:
        return {"lower": self.lower.to_json(), "upper": self.upper.to_json(),
                "iterations": self.iterations,
                "input_distribution": [rational_str(p) for p in self.input_distribution]}


def certified_capacity_bounds(rows, dist, log_width):
    """Mutual information and worst relative-entropy enclosures at one dist.

    Both are valid capacity bounds for any input distribution: the mutual
    information from below, the largest divergence of a row from the output
    marginal from above.  The sums run in integers over one denominator: the
    distribution is P/dd and the rows W/wd (lcms of their denominators), so
    the marginal is M/(dd wd) with M_y = sum_x P_x W_xy and each term is
    log2_fixed(W_xy dd, M_y).  Each endpoint is one Fraction, built at the end.
    """
    m = width_bits(log_width)
    dd = math.lcm(*(p.denominator for p in dist))
    wd = math.lcm(*(w.denominator for row in rows for w in row))
    weights = [p.numerator * (dd // p.denominator) for p in dist]
    counts = [[w.numerator * (wd // w.denominator) for w in row] for row in rows]
    marginal = [sum(p * row[y] for p, row in zip(weights, counts))
                for y in range(len(rows[0]))]
    if any(mass == 0 and any(row[y] for row in counts) for y, mass in enumerate(marginal)):
        raise DomainError(
            "distribution assigns zero mass to a reachable output; "
            "the divergence upper bound would be vacuous")
    info_lo = info_hi = level = 0
    divs = []  # each row's divergence bounds, over wd * 2**m
    for p, row in zip(weights, counts):
        lo = hi = 0
        for w, mass in zip(row, marginal):
            if w:
                digits, exact = log2_fixed(w * dd, mass, m)
                lo, hi = lo + w * digits, hi + w * (digits if exact else digits + 1)
        divs.append((lo, hi))
        if p:
            info_lo, info_hi = info_lo + p * lo, info_hi + p * hi
            level = m if hi > lo else level  # an inexact term weighs in
    den = (dd * wd) << m
    info = Enclosure(Fraction(info_lo, den), Fraction(info_hi, den), level)
    los, his = zip(*divs)
    return info, Enclosure(Fraction(max(los), wd << m), Fraction(max(his), wd << m))


def next_distribution(rows, dist):
    """One heuristic alternating-optimization update in floating point on
    ``rows`` as floats, snapped to a positive rational distribution;
    certification never trusts it.

    The snap to a 2**-40 grid keeps entries strictly positive (so output
    marginals never vanish on reachable outputs) and renormalizes exactly.
    """
    nx, ny = len(rows), len(rows[0])
    p = [float(v) for v in dist]
    q = [sum(p[x] * rows[x][y] for x in range(nx)) for y in range(ny)]
    logs = []
    for x in range(nx):
        acc = 0.0
        for y in range(ny):
            w = rows[x][y]
            if w > 0 and q[y] > 0:
                acc += w * math.log2(w / q[y])
        logs.append(acc)
    peak = max(logs)
    weights = [p[x] * (2.0 ** (logs[x] - peak)) for x in range(nx)]
    total = sum(weights)
    nums = [max(1, round(w / total * (1 << 40))) for w in weights]
    grid = sum(nums)
    return tuple(Fraction(v, grid) for v in nums)


def shannon_capacity(ch: Channel, tolerance) -> ShannonBounds:
    """ShannonBounds stepped at one log width until the gap is within tolerance.

    The width leaves room for every log2 term of both bounds; fails after
    100 000 iterations.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    bounds = ShannonBounds(ch)
    nx, ny = len(ch.inputs), len(ch.outputs)
    log_width = tolerance / (8 * (nx * ny + nx + 4))
    bounds.step(log_width)
    while bounds.gap > tolerance:
        if bounds.iterations >= 100_000:
            raise RuntimeError(f"no certified gap <= {tolerance} within 100000 iterations")
        bounds.step(log_width)
    return bounds
