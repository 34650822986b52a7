from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certcap.capacity import (ShannonBounds, certified_capacity_bounds,
                              feedback_zero_error_capacity, minimax_ladder_step,
                              shannon_capacity)
from certcap.channel import certify_support, exact_channel, resolving_stream
from certcap.check import verify_minimax_lower_bound
from certcap.enclosure import DomainError, Enclosure, log2_enclosure, log2_fixed

F = Fraction
mpmath.mp.dps = 50


class TestMinimaxMass:
    def test_pentagon_uniform(self, pentagon):
        sol = minimax_ladder_step(pentagon, 0, None).solution
        assert sol.value == F(2, 5)
        assert sol.distribution == (F(1, 5),) * 5
        assert verify_minimax_lower_bound(sol.output_weights, sol.support_sets, 5, sol.value)
        assert not verify_minimax_lower_bound(sol.output_weights, sol.support_sets, 5,
                                              sol.value + F(1, 100))
        # one weight per output, or the coverage sums are not defined
        assert not verify_minimax_lower_bound(sol.output_weights[:-1], sol.support_sets, 5,
                                              sol.value)

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
        assert fb.zero_capacity
        assert fb.enclosure.lo == fb.enclosure.hi == 0

    def test_noiseless_binary_exactly_one(self, nl2):
        fb = feedback_zero_error_capacity(nl2)
        assert fb.inverse_mass == 2
        assert fb.enclosure.lo == fb.enclosure.hi == 1

    def test_pentagon_enclosure(self, pentagon):
        fb = feedback_zero_error_capacity(pentagon, F(1, 2 ** 20))
        assert fb.inverse_mass == F(5, 2)
        assert fb.enclosure.width <= F(1, 2 ** 20)
        value = mpmath.log(mpmath.mpf(5) / 2, 2)
        assert float(fb.enclosure.lo) <= value <= float(fb.enclosure.hi)

    def test_output_permutation_invariance(self, pentagon):
        perm = [2, 0, 4, 1, 3]
        rows = [[pentagon.rows[x][perm[y]] for y in range(5)] for x in range(5)]
        permuted = exact_channel(pentagon.inputs, pentagon.outputs, rows)
        assert feedback_zero_error_capacity(permuted).inverse_mass == F(5, 2)

    def test_output_column_split_invariance(self, pentagon):
        # split output 0 into two half-probability copies: support unchanged
        rows = [[pentagon.rows[x][0] / 2, pentagon.rows[x][0] / 2]
                + [pentagon.rows[x][y] for y in range(1, 5)] for x in range(5)]
        split = exact_channel(pentagon.inputs, tuple(range(6)), rows)
        assert feedback_zero_error_capacity(split).inverse_mass == F(5, 2)


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
                assert rung.upper.hi >= true_fb.enclosure.lo


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
        from certcap.capacity import certified_capacity_bounds
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


def test_ordering_chain_on_corpus(pentagon, nl2, bsc14):
    """Zero-error lower bounds <= feedback zero-error <= ordinary capacity."""
    from certcap.confgraph import CapacityLadder, confusability_graph, extend_ladder

    tolerance = F(1, 10 ** 4)
    for ch in (pentagon, nl2, bsc14):
        fb = feedback_zero_error_capacity(ch)
        shannon = shannon_capacity(ch, tolerance)
        assert fb.enclosure.lo <= shannon.upper.hi + tolerance
        cert = certify_support(ch, 0)
        g = confusability_graph(cert, ch.inputs, len(ch.outputs))
        if g.is_complete():
            continue  # no zero-error code at all
        ladder = CapacityLadder()
        for n in (1, 2):
            ladder = extend_ladder(ladder, g, n)
        assert ladder.running_best.lo <= fb.enclosure.hi


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
        return -reference_log2_enclosure(1 / x, max_width)
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
    info = Enclosure.exact(Fraction(0))
    per_input = []
    for x, row in enumerate(rows):
        div = Enclosure.exact(Fraction(0))
        for y, w in enumerate(row):
            if w == 0:
                continue
            term = reference_log2_enclosure(w / marginal[y], log_width)
            div = div + term.scaled(w)
        per_input.append(div)
        if dist[x] > 0:
            info = info + div.scaled(dist[x])
    upper = Enclosure(max(d.lo for d in per_input), max(d.hi for d in per_input))
    return info, upper


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
