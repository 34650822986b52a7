import json
import random
from decimal import (ROUND_DOWN, Clamped, Context, Decimal, DivisionByZero, FloatOperation,
                     Inexact, InvalidOperation, Overflow, Rounded, Subnormal, Underflow,
                     localcontext)
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certcap import capacity
from certcap.capacity import (ShannonBounds, feedback_zero_error_capacity,
                              minimax_ladder_step, propose_distribution, shannon_capacity)
from certcap.channel import (certify_support, exact_channel, hovering_stream, load_channel,
                             noiseless, resolving_stream)
from certcap.check import verify_minimax_lower_bound
from certcap.classify import Regime, classify, revalidate
from certcap.enclosure import (DomainError, Enclosure, certified_capacity_bounds,
                               log2_enclosure, log2_fixed)
from certcap.plant import load_plant
from conftest import scalar_plant

F = Fraction
mpmath.mp.dps = 50


class TestMinimaxMass:
    def test_pentagon_uniform(self, pentagon):
        rung = minimax_ladder_step(pentagon, 0, None)
        sol, supports = rung.solution, rung.support.sets
        assert sol.value == F(2, 5)
        assert sol.distribution == (F(1, 5),) * 5
        assert verify_minimax_lower_bound(sol.output_weights, supports, 5, sol.value)
        assert not verify_minimax_lower_bound(sol.output_weights, supports, 5,
                                              sol.value + F(1, 100))
        # one weight per output, or the coverage sums are not defined
        assert not verify_minimax_lower_bound(sol.output_weights[:-1], supports, 5,
                                              sol.value)

    def test_weights_must_sum_to_one(self, pentagon):
        # doubled weights cover every input twice over, but are no convex combination
        rung = minimax_ladder_step(pentagon, 0, None)
        doubled = [2 * w for w in rung.solution.output_weights]
        assert sum(doubled) == 2
        assert not verify_minimax_lower_bound(doubled, rung.support.sets, 5,
                                              2 * rung.solution.value)

    def test_noiseless_binary(self, nl2):
        assert minimax_ladder_step(nl2, 0, None).mass == F(1, 2)

    def test_bsc_sees_everything(self, bsc14):
        assert minimax_ladder_step(bsc14, 0, None).mass == 1

    def test_empty_support_certificate_gives_zero(self, pentagon_stream):
        sol = minimax_ladder_step(pentagon_stream, 0, None).solution
        assert sol.value == 0


class TestFeedbackCapacity:
    def test_bsc_zero_case(self, bsc14):
        fb = feedback_zero_error_capacity(bsc14)
        assert fb.solution is None
        assert fb.upper.lo == fb.upper.hi == 0

    def test_noiseless_binary_exactly_one(self, nl2):
        fb = feedback_zero_error_capacity(nl2)
        assert 1 / fb.mass == 2
        assert fb.upper.lo == fb.upper.hi == 1

    def test_pentagon_enclosure(self, pentagon):
        fb = feedback_zero_error_capacity(pentagon, F(1, 2 ** 20))
        assert 1 / fb.mass == F(5, 2)
        assert fb.upper.width <= F(1, 2 ** 20)
        value = mpmath.log(mpmath.mpf(5) / 2, 2)
        assert float(fb.upper.lo) <= value <= float(fb.upper.hi)

    def test_output_permutation_invariance(self, pentagon):
        perm = [2, 0, 4, 1, 3]
        rows = [[pentagon.rows[x][perm[y]] for y in range(5)] for x in range(5)]
        permuted = exact_channel(pentagon.inputs, pentagon.outputs, rows)
        assert 1 / feedback_zero_error_capacity(permuted).mass == F(5, 2)

    def test_output_column_split_invariance(self, pentagon):
        # split output 0 into two half-probability copies: support unchanged
        rows = [[pentagon.rows[x][0] / 2, pentagon.rows[x][0] / 2]
                + [pentagon.rows[x][y] for y in range(1, 5)] for x in range(5)]
        split = exact_channel(pentagon.inputs, tuple(range(6)), rows)
        assert 1 / feedback_zero_error_capacity(split).mass == F(5, 2)


class TestMinimaxLadder:
    def test_exact_wrap_reaches_exact_value_at_pin_level(self, pentagon, pentagon_stream):
        exact_value = minimax_ladder_step(pentagon, 0, None).mass
        rung = None
        for level in range(4):
            rung = minimax_ladder_step(pentagon_stream, level, rung)
        assert rung.level == 3 and rung.mass == exact_value

    def test_level_zero_of_immediately_pinned_stream(self, pentagon):
        pinned = resolving_stream(pentagon, 0)
        rung = minimax_ladder_step(pinned, 0, None)
        assert rung.mass == minimax_ladder_step(pentagon, 0, None).mass

    def test_mass_monotone_and_upper_bounds_shrink(self, pentagon_stream):
        rung = None
        masses, uppers = [], []
        for level in range(4):
            rung = minimax_ladder_step(pentagon_stream, level, rung)
            masses.append(rung.mass)
            if rung.upper is not None:
                uppers.append(rung.upper.hi)
        assert masses == sorted(masses)
        assert uppers == sorted(uppers, reverse=True)

    def test_levels_must_increase(self, pentagon_stream):
        rung = minimax_ladder_step(pentagon_stream, 1, None)
        with pytest.raises(DomainError):
            minimax_ladder_step(pentagon_stream, 1, rung)

    def test_upper_bound_dominates_true_capacity(self, pentagon, pentagon_stream):
        true_fb = feedback_zero_error_capacity(pentagon)
        rung = None
        for level in range(1, 4):
            rung = minimax_ladder_step(pentagon_stream, level, rung)
            if rung.upper is not None:
                assert rung.upper.hi >= true_fb.upper.lo


class TestShannonCapacity:
    def test_noiseless_closes_immediately(self, nl2):
        bounds = shannon_capacity(nl2, F(1, 10 ** 6))
        assert bounds.iterations == 1
        assert bounds.lower.lo <= 1 <= bounds.upper.hi
        assert bounds.gap <= F(1, 10 ** 6)

    def test_bsc_brackets_closed_form(self, bsc110):
        bounds = shannon_capacity(bsc110, F(1, 10 ** 6))
        p = mpmath.mpf(1) / 10
        entropy = -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)
        value = 1 - entropy
        assert float(bounds.lower.lo) <= value <= float(bounds.upper.hi)
        assert bounds.gap <= F(1, 10 ** 6)

    def test_pentagon_brackets_closed_form(self, pentagon):
        bounds = shannon_capacity(pentagon, F(1, 10 ** 6))
        value = mpmath.log(mpmath.mpf(5) / 2, 2)
        assert float(bounds.lower.lo) <= value <= float(bounds.upper.hi)

    def test_asymmetric_channel_converges(self):
        z = exact_channel((0, 1), (0, 1), [[1, 0], [F(1, 4), F(3, 4)]])
        bounds = shannon_capacity(z, F(1, 10 ** 4))
        assert bounds.gap <= F(1, 10 ** 4)
        assert bounds.lower.lo > F(1, 2)  # Z-channel beats 1/2 bit

    def test_rejects_bad_tolerance(self, nl2):
        with pytest.raises(DomainError):
            shannon_capacity(nl2, F(0))

    def test_degenerate_distribution_rejected(self, nl2):
        from certcap.enclosure import certified_capacity_bounds
        with pytest.raises(DomainError, match="reachable output"):
            certified_capacity_bounds(nl2.rows, (F(1), F(0)), F(1, 256))

    def test_bounds_bracket_at_every_iteration(self):
        from certcap.classify import CapacityBoundsTask
        z = exact_channel((0, 1), (0, 1), [[1, 0], [F(1, 4), F(3, 4)]])
        task = CapacityBoundsTask(z)
        best_lo = None
        for _ in range(25):
            task.step()
            assert task.upper.hi >= task.lower.lo
            if best_lo is not None:
                assert task.lower.lo >= best_lo
            best_lo = task.lower.lo



class TestShannonBoundsSharedByBothCallers:
    @pytest.mark.parametrize("fixture", ["nl2", "bsc110", "pentagon"])
    def test_fixed_width_steps_reproduce_shannon_capacity(self, request, fixture):
        ch = request.getfixturevalue(fixture)
        tolerance = F(1, 10 ** 6)
        reference = shannon_capacity(ch, tolerance)
        nx, ny = len(ch.inputs), len(ch.outputs)
        width = tolerance / (8 * (nx * ny + nx + 4))
        bounds = ShannonBounds(ch)
        for _ in range(reference.iterations):
            assert bounds.lower is None or bounds.gap > tolerance
            bounds.step(width)
        assert bounds.gap <= tolerance
        assert bounds.iterations == reference.iterations
        assert (bounds.lower, bounds.upper) == (reference.lower, reference.upper)
        assert bounds.input_distribution == reference.input_distribution
        assert bounds.to_json() == reference.to_json()

    def test_capacity_task_steps_one_object_on_its_own_schedule(self, bsc110):
        from certcap.classify import CapacityBoundsTask
        task = CapacityBoundsTask(bsc110)
        bounds = ShannonBounds(bsc110)
        width = F(1, 1 << 12)
        for _ in range(40):
            task.step()
            bounds.step(width)
            if width > F(1, 1 << 60):
                width /= 4
            assert (task.lower, task.upper) == (bounds.lower, bounds.upper)
        assert width == task.log_width == F(1, 1 << 60)
        assert (task.bounds.lower_from, task.bounds.upper_from) == (
            bounds.lower_from, bounds.upper_from)


def test_a_kept_rung_keeps_its_enclosure(monkeypatch):
    # a hovering entry never resolves, so the 64 declared levels keep one
    # support and one minimax solution: log2(1/mass) is enclosed once
    ch = hovering_stream(noiseless(2), [(0, 1)], 64)
    calls = []
    monkeypatch.setattr(capacity, "log2_enclosure",
                        lambda *args: calls.append(args) or log2_enclosure(*args))
    rung = None
    for level in ch.declared_levels():
        rung = minimax_ladder_step(ch, level, rung)
    monkeypatch.undo()
    assert len(ch.declared_levels()) == 64 and len(calls) == 1
    assert rung.upper == log2_enclosure(1 / rung.mass, capacity.DEFAULT_C0FB_WIDTH)


@pytest.mark.parametrize("width", [F(1, 1 << 10), F(1, 1 << 20), F(1, 3)])
def test_a_kept_inexact_enclosure_is_made_again_only_at_a_new_width(pentagon_stream, width):
    # level 4 keeps level 3's settled support, so its LP solution, and keeps
    # log2(5/2)'s enclosure only at the same width
    rung = minimax_ladder_step(pentagon_stream, 3, None, width=F(1, 1 << 20))
    again = minimax_ladder_step(pentagon_stream, 4, rung, width=width)
    assert again.solution is rung.solution and again.mass == F(2, 5)
    assert again.upper == log2_enclosure(F(5, 2), width)
    assert (again.upper is rung.upper) == (width == F(1, 1 << 20))


# ---------------------------------------------------------------------------
# the decimal proposer: hostile channels, the KKT reference, determinism

def kkt_capacity(rows, dist):
    """C in bits from the KKT conditions, in mpmath at 50 digits: Newton
    (findroot) on D(W_x||q) = C, sum p = 1 over the inputs that ``dist``
    gives more than 2**-30, started at ``dist``; then every mass must be
    positive and every other input's divergence at most C, which makes C
    the capacity (the mutual information is concave)."""
    w = [[mpmath.mpf(v.numerator) / v.denominator for v in row] for row in rows]
    kept = [x for x, p in enumerate(dist) if p > F(1, 1 << 30)]

    def divergence(row, q):
        if any(v and not m for v, m in zip(row, q)):
            return mpmath.inf
        return mpmath.fsum(v * mpmath.log(v / m, 2) for v, m in zip(row, q) if v)

    def marginal(masses):
        return [mpmath.fsum(p * w[x][y] for p, x in zip(masses, kept)) for y in range(len(w[0]))]

    def equations(*v):
        q = marginal(v[:-1])
        return [divergence(w[x], q) - v[-1] for x in kept] + [mpmath.fsum(v[:-1]) - 1]

    start = [mpmath.mpf(dist[x].numerator) / dist[x].denominator for x in kept]
    root = mpmath.findroot(equations, start + [divergence(w[kept[0]], marginal(start))])
    masses, c = [root[i] for i in range(len(kept))], root[len(kept)]
    assert all(p > 0 for p in masses)
    q = marginal(masses)
    assert all(divergence(w[x], q) <= c + mpmath.mpf(10) ** -40 for x in range(len(w)))
    return c


def brackets(bounds, value) -> bool:
    return F(bounds.lower.lo) <= F(mpmath.nstr(value, 45)) <= F(bounds.upper.hi)


def seeded_sparse_rows(k: int, seed: int):
    """k inputs over k outputs with one support per k (input x reaches x,
    x + 1 and, on a fixed draw, one output across the cycle) and transition
    weights 1 to 4 drawn from ``seed``."""
    shape, rng = random.Random(f"support/{k}"), random.Random(f"weights/{k}/{seed}")
    rows = []
    for x in range(k):
        support = {x, (x + 1) % k}
        if shape.random() < 0.5:
            support.add((x + shape.randrange(2, k - 1)) % k)
        weights = {y: rng.randint(1, 4) for y in sorted(support)}
        rows.append([F(weights.get(y, 0), sum(weights.values())) for y in range(k)])
    return rows


@pytest.mark.parametrize("k", [6, 7])
@pytest.mark.parametrize("seed", range(6))
def test_seeded_sparse_channels_close_in_a_few_steps(k, seed):
    # the float Blahut-Arimoto proposer took 85 to 447 steps on these twelve
    rows = seeded_sparse_rows(k, seed)
    bounds = shannon_capacity(exact_channel(range(k), range(k), rows), F(1, 10 ** 6))
    assert bounds.iterations <= 20 and bounds.gap <= F(1, 10 ** 6)
    assert brackets(bounds, kkt_capacity(rows, bounds.input_distribution))


DOMINATED = [[F(1, 2), 0, F(1, 2)], [F(1, 3), 0, F(2, 3)], [0, F(2, 3), F(1, 3)],
             [F(2, 3), 0, F(1, 3)]]
Z_CHANNEL = [[F(1), F(0)], [F(1, 3), F(2, 3)]]
# the Z-channel's log2(1 + (1 - e) e^(e / (1 - e))) at e = 1/3
Z_CAPACITY = mpmath.log(1 + 2 / (3 * mpmath.sqrt(3)), 2)


@pytest.mark.parametrize("name, tolerance, steps", [
    ("dominated", F(1, 10 ** 12), 6),  # inputs 0 (the mean of 1 and 3) and 1 get mass 0
    ("sparse8", F(1, 10 ** 12), 8),  # only inputs 4 and 5 reach output 4; no unique optimum
    ("identical", F(1, 10 ** 12), 4),  # two equal rows: the optimum is no single point
    ("one-input", F(1, 10 ** 12), 1),
    ("z-channel", F(1, 10 ** 30), 6),
])
def test_hostile_channels_close_without_raising(data_dir, name, tolerance, steps):
    rows = {"dominated": DOMINATED, "identical": [[F(1, 3), F(2, 3)]] * 2 + [[F(3, 4), F(1, 4)]],
            "one-input": [[F(1, 3), F(2, 3)]], "z-channel": Z_CHANNEL}.get(name)
    ch = (load_channel((data_dir / "sparse8.json").read_text())
          if rows is None else exact_channel(range(len(rows)), range(len(rows[0])), rows))
    bounds = shannon_capacity(ch, tolerance)
    assert bounds.gap <= tolerance and bounds.iterations <= steps
    if name == "dominated":
        assert brackets(bounds, kkt_capacity(DOMINATED, bounds.input_distribution))
    if name == "identical":  # the two equal rows act as one input
        merged = (bounds.input_distribution[0] + bounds.input_distribution[1],
                  bounds.input_distribution[2])
        assert brackets(bounds, kkt_capacity(rows[1:], merged))
    if name == "sparse8":  # 0.16 on inputs 0 to 3, 0.04 on 4 and 5, 0.14 on 6 and 7
        assert brackets(bounds, mpmath.log(mpmath.mpf(25) / 4, 2))
    if name == "z-channel":
        assert brackets(bounds, Z_CAPACITY)
    if name == "one-input":
        assert bounds.lower.lo == bounds.upper.hi == 0


@pytest.mark.parametrize("log_width, bits", [(F(1, 1 << 12), 60), (F(1, 1 << 100), 100)])
def test_proposals_stay_positive_on_a_grid_that_grows_with_the_width(log_width, bits):
    # every entry keeps at least one grid unit, so no reachable output loses
    # mass: the first Newton step gives input 0 none, and it keeps one unit
    proposed = propose_distribution(DOMINATED, (F(1, 4),) * 4, log_width)
    assert sum(proposed) == 1 and min(proposed) > 0
    assert proposed[0].numerator == 1 and proposed[0].denominator >= 1 << bits


def test_proposals_run_between_steps_only(monkeypatch, pentagon, data_dir):
    # lazily: a run that closes in one step never proposes, and no run
    # proposes after its last step
    calls = []
    real = capacity.propose_distribution
    monkeypatch.setattr(capacity, "propose_distribution",
                        lambda *args: calls.append(args) or real(*args))
    assert shannon_capacity(pentagon, F(1, 10 ** 6)).iterations == 1 and not calls
    bounds = shannon_capacity(load_channel((data_dir / "asym3x4.json").read_text()), F(1, 10 ** 6))
    assert len(calls) == bounds.iterations - 1 > 0


def test_blahut_arimoto_steps_alone_close_the_z_channel(monkeypatch):
    # with no Newton target every proposal is a Blahut-Arimoto step: slower
    # (Newton targets take 3 steps here) but as sound
    monkeypatch.setattr(capacity, "_newton_target", lambda *args: None)
    bounds = shannon_capacity(exact_channel((0, 1), (0, 1), Z_CHANNEL), F(1, 10 ** 4))
    assert bounds.gap <= F(1, 10 ** 4) and bounds.iterations <= 11
    assert brackets(bounds, Z_CAPACITY)


def test_singular_systems_have_no_solution():
    d = Decimal
    assert capacity._solve([[d(1), d(2), d(3)], [d(2), d(4), d(6)]]) is None  # rank one
    assert capacity._solve([[d(0), d(1)]]) is None
    assert capacity._solve([[d(2), d(1), d(4)], [d(1), d(3), d(7)]]) == [1, 2]


def _targets_with_solver(monkeypatch, solver):
    """Each _newton_target result of one proposal on the Z-channel under
    ``solver`` in place of _solve, and the proposal."""
    targets, real = [], capacity._newton_target
    monkeypatch.setattr(capacity, "_solve", solver)
    monkeypatch.setattr(capacity, "_newton_target",
                        lambda *args: targets.append(real(*args)) or targets[-1])
    return targets, propose_distribution(Z_CHANNEL, (F(1, 2),) * 2, F(1, 1 << 12))


def test_a_singular_newton_system_falls_back_to_blahut_arimoto(monkeypatch):
    targets, proposed = _targets_with_solver(monkeypatch, lambda a: None)
    assert targets == [None]
    monkeypatch.setattr(capacity, "_newton_target", lambda *args: None)
    assert proposed == propose_distribution(Z_CHANNEL, (F(1, 2),) * 2, F(1, 1 << 12))


def test_a_cycling_active_set_gives_up_after_4n_solves(monkeypatch):
    # a solver that drops a free input, then lets it back in on a positive
    # slack, forever
    solves = []

    def cycling(a):
        solves.append(len(a))
        both_free = len(a) == 3
        return [Decimal(v) for v in ((-1, 1, 0) if both_free else (1, -10 ** 6))]

    targets, proposed = _targets_with_solver(monkeypatch, cycling)
    assert targets == [None] and solves == [3, 2] * 4
    assert sum(proposed) == 1 and min(proposed) > 0


HOSTILE_CONTEXT = Context(prec=5, rounding=ROUND_DOWN, traps=[
    Clamped, DivisionByZero, FloatOperation, Inexact, InvalidOperation, Overflow, Rounded,
    Subnormal, Underflow])


def test_proposals_ignore_the_callers_decimal_context(data_dir):
    asym = load_channel((data_dir / "asym3x4.json").read_text())
    plant = load_plant((data_dir / "plant_weak_1093_1000.json").read_text())

    def outputs():
        return (json.dumps(shannon_capacity(asym, F(1, 10 ** 12)).to_json()),
                json.dumps(classify(plant, asym, Regime("weak"), 10_000).to_json()))

    first = outputs()
    assert json.loads(first[0])["iterations"] > 1  # the proposer ran
    assert outputs() == first  # twice in one process
    with localcontext(HOSTILE_CONTEXT):
        assert outputs() == first


# the weak Z-channel plants of the Baseline that stayed Undetermined at budget
# 4000 under the float proposer: log2 a is C + 2**-k, a rational to 60 digits
@pytest.mark.parametrize("k, steps", [(44, 34), (50, 40)])
def test_weak_z_channel_just_above_capacity_halts_unsolvable(k, steps):
    with mpmath.workdps(80):
        a = F(mpmath.nstr(mpmath.mpf(2) ** (Z_CAPACITY + mpmath.mpf(2) ** -k), 60))
        assert mpmath.log(mpmath.mpf(a.numerator) / a.denominator, 2) > Z_CAPACITY
    z = exact_channel((0, 1), (0, 1), Z_CHANNEL)
    verdict = classify(scalar_plant(a), z, Regime("weak"), 200)
    assert (verdict.outcome, verdict.steps) == ("Unsolvable", steps)
    assert revalidate(verdict, z)


def test_ordering_chain_on_corpus(pentagon, nl2, bsc14):
    """Zero-error lower bounds <= feedback zero-error <= ordinary capacity."""
    from certcap.confgraph import CapacityLadder, extend_ladder
    from certcap.graph import confusability_graph

    tolerance = F(1, 10 ** 4)
    for ch in (pentagon, nl2, bsc14):
        fb = feedback_zero_error_capacity(ch)
        shannon = shannon_capacity(ch, tolerance)
        assert fb.upper.lo <= shannon.upper.hi + tolerance
        cert = certify_support(ch, 0)
        g = confusability_graph(cert, ch.inputs, len(ch.outputs))
        if g.is_complete():
            continue  # no zero-error code at all
        ladder = CapacityLadder()
        for n in (1, 2):
            ladder = extend_ladder(ladder, g, n)
        assert ladder.running_best.lo <= fb.upper.hi


# Reference bounds: certified_capacity_bounds and log2_enclosure as they
# stood with one Enclosure of Fractions per log2 term.  The integer bounds
# must return the same endpoints and levels, and raise where they raise.

def reference_exact_log2(x):
    n, d = x.numerator, x.denominator
    if n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0:
        return n.bit_length() - d.bit_length()
    return None


def reference_floor_log2(x):
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    return k if n << max(-k, 0) >= d << max(k, 0) else k - 1


def reference_extract_log_digits(y, m, precision):
    scale = 1 << precision
    zlo = (y.numerator * scale) // y.denominator
    zhi = -((-y.numerator * scale) // y.denominator)
    digits = 0
    for _ in range(m):
        zlo = (zlo * zlo) // scale
        zhi = -((-zhi * zhi) // scale)
        two = 2 * scale
        if zhi < two:
            bit = 0
        elif zlo >= two:
            bit = 1
            zlo //= 2
            zhi = (zhi + 1) // 2
        else:
            return None
        digits = (digits << 1) | bit
    return digits


def reference_log2_enclosure(x, max_width):
    x = Fraction(x)
    if x <= 0:
        raise DomainError("log2 requires a positive argument")
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise DomainError("target width must be positive")
    k = reference_exact_log2(x)
    if k is not None:
        return Enclosure.exact(Fraction(k))
    if x < 1:
        inverse = reference_log2_enclosure(1 / x, max_width)
        return Enclosure(-inverse.hi, -inverse.lo, inverse.level)
    m = max(1, -reference_floor_log2(max_width))
    k = reference_floor_log2(x)
    y = x / Fraction(2) ** k
    precision = m + 64
    digits = reference_extract_log_digits(y, m, precision)
    while digits is None:
        precision *= 2
        digits = reference_extract_log_digits(y, m, precision)
    lo = k + Fraction(digits, 1 << m)
    return Enclosure(lo, lo + Fraction(1, 1 << m), level=m)


def reference_capacity_bounds(rows, dist, log_width):
    ny = len(rows[0])
    marginal = [sum(dist[x] * rows[x][y] for x in range(len(rows)))
                for y in range(ny)]
    for y in range(ny):
        if marginal[y] == 0 and any(row[y] > 0 for row in rows):
            raise DomainError("distribution assigns zero mass to a reachable output")
    per_input = [reference_sum(reference_log2_enclosure(w / marginal[y], log_width).scaled(w)
                               for y, w in enumerate(row) if w)
                 for row in rows]
    info = reference_sum(div.scaled(dist[x]) for x, div in enumerate(per_input) if dist[x] > 0)
    upper = Enclosure(max(d.lo for d in per_input), max(d.hi for d in per_input))
    return info, upper


def reference_sum(terms):
    """The sum of enclosures, endpoint by endpoint, at the deepest of their levels."""
    terms = list(terms)
    return Enclosure(sum((t.lo for t in terms), Fraction(0)),
                     sum((t.hi for t in terms), Fraction(0)),
                     max((t.level for t in terms), default=0))


def _same_outcome(fn, reference, *args):
    try:
        expected = reference(*args)
    except DomainError:
        with pytest.raises(DomainError):
            fn(*args)
        return
    assert fn(*args) == expected  # Enclosure equality compares lo, hi and level


dyadic_width = st.integers(1, 80).map(lambda k: F(1, 1 << k))
any_width = st.one_of(dyadic_width,
                      st.fractions(min_value=F(1, 10 ** 15), max_value=3).filter(lambda w: w > 0))
# entries with zeros and with powers of two, which make ratios exact
entry = st.one_of(st.just(F(0)), st.sampled_from([F(1), F(1, 2), F(1, 4), F(1, 8)]),
                  st.fractions(min_value=0, max_value=1, max_denominator=40))
mass = st.one_of(st.just(0), st.sampled_from([1, 2, 4, 8]), st.integers(1, 1 << 40))


@st.composite
def capacity_cases(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [[draw(entry) for _ in range(ny)] for _ in range(nx)]
    if draw(st.booleans()):  # channel rows sum to one
        rows = [[w / sum(row) for w in row] if any(row) else row for row in rows]
    masses = [draw(mass) for _ in range(nx)]
    dist = tuple(F(v, sum(masses) or 1) for v in masses)
    return rows, dist, draw(any_width)


@given(case=capacity_cases())
@settings(max_examples=400, deadline=None)
# every row the distribution weighs is exact, and a row it does not weigh is
# not: the information bound stays at level 0
@example(case=([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]], (F(1), F(0)), F(1, 1 << 20)))
# ratios 2/3 and 4/3, one on each side of 1, at a width that is not dyadic
@example(case=([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]], (F(1, 2), F(1, 2)), F(1, 3)))
def test_integer_bounds_match_fraction_reference(case):
    rows, dist, width = case
    _same_outcome(certified_capacity_bounds, reference_capacity_bounds, rows, dist, width)


@pytest.mark.parametrize("rows, dist", [
    ([[F(1), F(0)], [F(0), F(1)]], (F(1), F(0))),          # output 1 reachable, no mass
    ([[F(1, 2), F(1, 2)], [F(0), F(1)]], (F(0), F(1))),    # output 0 reachable from row 0
])
def test_zero_marginal_raises_on_both_sides(rows, dist):
    for bounds in (certified_capacity_bounds, reference_capacity_bounds):
        with pytest.raises(DomainError, match="reachable output"):
            bounds(rows, dist, F(1, 256))


def test_unweighted_inexact_row_keeps_level_zero():
    rows, dist = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]], (F(1), F(0))
    info, upper = certified_capacity_bounds(rows, dist, F(1, 1 << 20))
    assert info == Enclosure.exact(F(0))  # row 0 matches the marginal exactly
    assert upper.level == 0 and upper.hi > 0  # row 1 still bounds from above


positive = st.integers(1, 1 << 70)


@given(x=st.one_of(st.fractions(min_value=F(1, 10 ** 30), max_value=10 ** 30)
                   .filter(lambda f: f > 0),
                   st.integers(-90, 90).map(lambda k: F(2) ** k)),
       width=any_width)
@settings(max_examples=300, deadline=None)
def test_log2_enclosure_matches_fraction_reference(x, width):
    _same_outcome(log2_enclosure, reference_log2_enclosure, x, width)


@given(n=positive, d=positive, k=st.integers(1, 1 << 40), m=st.integers(0, 80))
@settings(max_examples=300, deadline=None)
@example(n=3, d=12, k=5, m=7)  # 1/4: exact, below one
def test_log2_fixed_ignores_common_factors(n, d, k, m):
    digits, exact = log2_fixed(n, d, m)
    assert log2_fixed(n * k, d * k, m) == (digits, exact)
    assert exact == (reference_exact_log2(F(n, d)) is not None)
    if m:
        assert F(digits, 1 << m) == reference_log2_enclosure(F(n, d), F(1, 1 << m)).lo
    else:
        assert digits == reference_floor_log2(F(n, d))
