from fractions import Fraction

import mpmath
import pytest

from certcap.capacity import (ShannonBounds, feedback_zero_error_capacity,
                              minimax_ladder_step, shannon_capacity,
                              verify_minimax_lower_bound)
from certcap.channel import certify_support, exact_channel, resolving_stream
from certcap.enclosure import DomainError

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
