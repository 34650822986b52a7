"""Channel capacity quantities with exact or certified-interval results.

Each quantity has one routine, driven by the command line and the
classifier alike: the feedback zero-error capacity through Shannon's minimax
over output support masses, an exact rational LP solved by
minimax_ladder_step once per declared level of the channel (an exact channel
declares only level 0) on the graph.Support that its rung keeps, where each
rung is built on the last and bounds the capacity from above; and
ShannonBounds, two-sided certified bounds on the ordinary capacity at input
distributions from propose_distribution, in exact-decimal Newton and
Blahut-Arimoto steps, bounded by the checker's enclosure.certified_capacity_bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Context, Decimal, DivisionByZero, InvalidOperation, localcontext
from fractions import Fraction
from operator import mul

from .channel import Channel
from .enclosure import (DomainError, Enclosure, certified_capacity_bounds, log2_enclosure,
                        rational_str, width_bits)
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
    solution and solves no LP, and its ``upper`` if that is exact or has
    ``width``'s digits: log2_enclosure would return it again.
    """
    if last is not None and level <= last.level:
        raise DomainError("ladder levels must increase")
    support = Support(ch, level)
    if support.settled and support.graph.is_complete():
        return MinimaxRung(level, Fraction(1), Enclosure.exact(Fraction(0)), None, support)
    kept = last is not None and support.sets == last.support.sets
    sol = last.solution if kept else _solve_minimax(len(ch.inputs), support.sets)
    if last is not None and sol.value < last.mass:
        raise RuntimeError("support refinement decreased the minimax mass")
    reuse = kept and last.upper and (last.upper.is_exact or last.upper.level == width_bits(width))
    upper = last.upper if reuse else log2_enclosure(1 / sol.value, width) if sol.value else None
    return MinimaxRung(level, sol.value, upper, sol, support)


# ---------------------------------------------------------------------------
# ordinary capacity: alternating optimization with certified two-sided bounds

class ShannonBounds:
    """Anytime certified bracket [lower.lo, upper.hi] around the capacity.

    The first step certifies the uniform distribution, each later one the next
    from propose_distribution, with both bounds computed exactly (integer sums,
    one Fraction per endpoint) by certified_capacity_bounds at the log width it
    is given, so the bracket is sound however the proposals behave.  Each side
    keeps its best bound, with the distribution and log width that give it.
    """

    def __init__(self, ch: Channel):
        if not ch.is_exact:
            raise DomainError("exact channel required")
        self.rows = ch.rows
        self.dist = (Fraction(1, len(ch.inputs)),) * len(ch.inputs)
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
        if self.iterations:  # proposed lazily: a run that halts in one step never pays
            self.dist = propose_distribution(self.rows, self.dist, log_width)
        lower, upper = certified_capacity_bounds(self.rows, self.dist, log_width)
        if self.lower is None or lower.lo > self.lower.lo:
            self.lower, self.lower_from = lower, (self.dist, log_width)
        if self.upper is None or upper.hi < self.upper.hi:
            self.upper, self.upper_from = upper, (self.dist, log_width)
        self.iterations += 1

    def to_json(self) -> dict:
        return {"lower": self.lower.to_json(), "upper": self.upper.to_json(),
                "iterations": self.iterations,
                "input_distribution": [rational_str(p) for p in self.input_distribution]}


def propose_distribution(rows, dist, log_width) -> tuple[Fraction, ...]:
    """The next input distribution after the positive ``dist``, in ``decimal``
    under its own context, so the same everywhere: the first of a Newton step
    and its halvings that lowers the estimated gap max_x D(W_x||q) - I, else
    a Blahut-Arimoto step, snapped to a 2**-bits grid with every entry at
    least one unit, so every reachable output keeps mass."""
    bits = max(60, width_bits(log_width) + 16)  # the grid and the digits grow with the width
    with localcontext(Context(prec=max(40, bits // 3 + 20), rounding="ROUND_HALF_EVEN",
                              Emin=-999999, Emax=999999, traps=[InvalidOperation, DivisionByZero])):
        def divergences(p):  # the output marginal q of p and each D(W_x||q) in nats
            q = [sum(map(mul, p, column)) for column in zip(*w)]
            return q, [sum(v * (v / m).ln() for v, m in zip(row, q) if v) for row in w]

        def snap(masses):
            return [max(1, round(v * (1 << bits) / sum(masses))) for v in masses]

        w = [[Decimal(v.numerator) / v.denominator for v in row] for row in rows]
        p = [Decimal(v.numerator) / v.denominator for v in dist]
        q, div = divergences(p)
        least = max(div) - sum(map(mul, p, div))
        for k in range(4 if (target := _newton_target(w, q, div, p)) else 0):
            nums = snap([a + (t - a) / (1 << k) for a, t in zip(p, target)])
            at = divergences([Decimal(v) / sum(nums) for v in nums])[1]
            if max(at) - sum(map(mul, nums, at)) / sum(nums) < least:
                break
        else:
            nums = snap([a * (d - max(div)).exp() for a, d in zip(p, div)])
    return tuple(Fraction(v, sum(nums)) for v in nums)


def _newton_target(w, q, div, p):
    """The maximizer t over the simplex of the mutual information's quadratic
    model at ``p`` (Hessian -M - rI, M_xz = sum_y W_xy W_zy / q_y, a ridge r
    keeping flat directions finite) by a primal active-set method, or None:
    D(W_x||q) - ((M + rI)(t - p))_x is one value where t_x > 0, no more elsewhere."""
    m = [[sum(a * b / c for a, b, c in zip(u, v, q) if a and b) for v in w] for u in w]
    ridge = max(map(max, m)).scaleb(-20)
    t, free = p[:], list(range(len(p)))
    for _ in range(4 * len(p)):
        sol = _solve([[m[x][z] + ridge * (x == z) for z in free] + [1, div[x] + ridge * p[x]]
                      for x in free] + [[1] * len(free) + [0, 1]])
        if sol is None:
            return None
        ratios = {x: t[x] / (t[x] - s) for x, s in zip(free, sol) if s < 0}
        block = min(ratios, key=ratios.get, default=None)  # the first bound on the way
        for x, s in zip(free, sol):
            t[x] = Decimal(0) if x == block else t[x] + ratios.get(block, 1) * (s - t[x])
        if ratios:
            free.remove(block)
            continue
        slack = {x: div[x] + ridge * p[x] - sum(map(mul, m[x], t)) - sol[-1]
                 for x in range(len(p)) if x not in free}
        if all(v <= 0 for v in slack.values()):
            return t
        free.append(max(slack, key=slack.get))
    return None


def _solve(a):
    """Gauss-Jordan on the augmented rows ``a``; None if a pivot vanishes."""
    for c in range(len(a)):
        r = max(range(c, len(a)), key=lambda i: abs(a[i][c]))
        if not a[r][c]:
            return None
        a[c], a[r] = a[r], a[c]
        for i in [i for i in range(len(a)) if i != c and a[i][c]]:
            a[i] = [u - a[i][c] / a[c][c] * v for u, v in zip(a[i], a[c])]
    return [row[-1] / row[i] for i, row in enumerate(a)]


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
    while bounds.lower is None or bounds.gap > tolerance:
        if bounds.iterations >= 100_000:
            raise RuntimeError(f"no certified gap <= {tolerance} within 100000 iterations")
        bounds.step(log_width)
    return bounds
