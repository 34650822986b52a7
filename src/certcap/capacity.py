"""Channel capacity quantities with exact or certified-interval results.

Each quantity has one routine, driven by the command line and the
classifier alike: the feedback zero-error capacity through Shannon's minimax
over output support masses, an exact rational LP solved by
minimax_ladder_step once per declared level of the channel (an exact channel
declares only level 0) on the graph.Support that its rung keeps, where each
rung is built on the last and bounds the capacity from above; and
ShannonBounds, two-sided certified bounds on the ordinary capacity whose
step(log_width) runs one alternating-optimization iteration at the width its
caller schedules, bounded by the checker's own enclosure.certified_capacity_bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .channel import Channel
from .enclosure import (DomainError, Enclosure, certified_capacity_bounds, log2_enclosure,
                        rational_str)
from .graph import Support
from .linprog import EQ, GEQ, LEQ, solve_lp

DEFAULT_C0FB_WIDTH = Fraction(1, 1 << 20)


@dataclass(frozen=True)
class MinimaxSolution:
    """Value and optimizers of min over inputs dists of the worst output mass."""

    value: Fraction
    distribution: tuple[Fraction, ...]
    # dual weights over the output constraints; they certify the value from
    # below, which is the direction the feedback capacity bound needs
    output_weights: tuple[Fraction, ...]


def _solve_minimax(nx: int, supports: tuple[tuple[int, ...], ...]) -> MinimaxSolution:
    """The minimax LP over fixed output supports; it depends on nothing else."""
    ny = len(supports)
    if all(not s for s in supports):
        return MinimaxSolution(Fraction(0), (Fraction(1),) + (Fraction(0),) * (nx - 1),
                               (Fraction(0),) * ny)
    # variables p_0 .. p_{nx-1}, t: minimise t subject to sum p = 1, p >= 0
    # and, for each output with a support, its mass - t <= 0
    outputs = [y for y in range(ny) if supports[y]]
    rows = [((1,) * nx + (0,), EQ, 1)]
    rows += [(tuple(int(x == k) for k in range(nx)) + (0,), GEQ, 0) for x in range(nx)]
    rows += [(tuple(int(x in supports[y]) for x in range(nx)) + (-1,), LEQ, 0)
             for y in outputs]
    sol = solve_lp((0,) * nx + (1,), rows)
    weights = [Fraction(0)] * ny
    for idx, y in enumerate(outputs):
        weights[y] = -sol.dual[1 + nx + idx]  # <=-row duals are nonpositive here
    return MinimaxSolution(sol.optimum, sol.assignment[:nx], tuple(weights))


def feedback_zero_error_capacity(ch: Channel,
                                 max_width: Fraction = DEFAULT_C0FB_WIDTH) -> MinimaxRung:
    """Shannon's feedback zero-error capacity of an exact channel: its level-0
    rung, log2 of the exact rational 1/mass, refinable to any precision."""
    if not ch.is_exact:
        raise DomainError("exact channel required; use the minimax ladder for streams")
    return minimax_ladder_step(ch, 0, None, width=max_width)


@dataclass(frozen=True)
class MinimaxRung:
    level: int
    mass: Fraction
    upper: Enclosure | None  # enclosure of log2(1/mass); None while mass == 0
    solution: MinimaxSolution | None  # None when the capacity is zero
    support: Support = field(compare=False, repr=False)  # the support at ``level``

    def to_json(self) -> dict:
        return {"exact_inverse_psi": rational_str(1 / self.mass),
                "zero_capacity": self.solution is None,
                "enclosure": self.upper.to_json()}


def minimax_ladder_step(ch: Channel, level: int, last: MinimaxRung | None, *,
                        width: Fraction = DEFAULT_C0FB_WIDTH) -> MinimaxRung:
    """The rung after ``last`` (None before the first), with the graph and
    the LP on one graph.Support at ``level``, which the rung keeps.

    A settled support (no entry unresolved) is the true one, so if its
    confusability graph is complete the capacity is zero: mass 1, upper
    [0, 0], no solution.  (While entries are unresolved, the may-reach graph
    may have more than the true edges, so its being complete proves
    nothing.)  Proven support only grows with the level, so the minimax mass
    is nondecreasing along the rungs and log2(1/mass) is an upper bound on
    the feedback zero-error capacity of a stream channel that converges
    downward as entries resolve.  The minimax LP depends only on the support
    sets, so a level whose sets equal the last rung's reuses that rung's
    solution and solves no LP.  ``upper`` is always enclosed afresh at
    ``width``.
    """
    if last is not None and level <= last.level:
        raise DomainError("ladder levels must increase")
    support = Support(ch, level)
    if support.settled and support.graph.is_complete():
        return MinimaxRung(level, Fraction(1), Enclosure.exact(Fraction(0)), None, support)
    if last is not None and support.sets == last.support.sets:
        sol = last.solution
    else:
        sol = _solve_minimax(len(ch.inputs), support.sets)
    if last is not None and sol.value < last.mass:
        raise RuntimeError("support refinement decreased the minimax mass")
    upper = None if sol.value == 0 else log2_enclosure(1 / sol.value, width)
    return MinimaxRung(level, sol.value, upper, sol, support)


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
