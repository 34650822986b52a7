import json
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from certcap import capacity, confgraph
from certcap import classify as classify_module
from certcap.capacity import (DEFAULT_C0FB_WIDTH, certified_capacity_bounds,
                              feedback_zero_error_capacity, minimax_ladder_step)
from certcap.channel import (certify_support, exact_channel, hovering_stream,
                             load_channel, noiseless, product_channel,
                             stream_channel, support_sets, typewriter)
from certcap.classify import (BudgetReport, FeedbackCapacityTask,
                              IndependentSetCertificate,
                              InternalInvariantViolation, MinimaxLadderTask,
                              PsiCertificate, Regime, RegimePreconditionError,
                              SeparationCertificate, Verdict, classify,
                              classify_fixed_plant, dovetail, revalidate,
                              _assert_monotone_predicates)
from certcap.check import log2_compare
from certcap.enclosure import DomainError, Enclosure, log2_enclosure
from certcap.plant import instability_exponent
from conftest import diagonal_plant, scalar_plant

F = Fraction


class CountingTask:
    def __init__(self, name):
        self.name = name
        self.count = 0

    def exhausted(self):
        return False

    def step(self):
        self.count += 1

    def progress(self):
        return {"count": self.count}


class TestDovetail:
    def test_round_robin_fire_bound(self):
        a, b = CountingTask("a"), CountingTask("b")
        fired, steps = dovetail([a, b], [("hit", lambda: b.count >= 3)], 100)
        assert fired == "hit"
        assert steps <= 6

    def test_exhausts_at_exact_budget(self):
        fired, steps = dovetail([CountingTask("a"), CountingTask("b")],
                                [("never", lambda: False)], 17)
        assert fired is None and steps == 17

    def test_zero_budget(self):
        fired, steps = dovetail([CountingTask("a")], [("yes", lambda: True)], 0)
        assert fired is None and steps == 0

    def test_monotone_guard_trips(self):
        with pytest.raises(InternalInvariantViolation):
            _assert_monotone_predicates({"p": True}, {"p": False})
        _assert_monotone_predicates({"p": False}, {"p": True})

    def test_all_tasks_exhausted_stops_early(self):
        class Once(CountingTask):
            def exhausted(self):
                return self.count >= 2

        fired, steps = dovetail([Once("a")], [("never", lambda: False)], 50)
        assert fired is None and steps == 2


class TestWorkedClassifications:
    def test_fb_estimation_unsolvable_fast_plant(self, pentagon):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 100_000)
        assert verdict.outcome == "Unsolvable"
        assert isinstance(verdict.certificate, PsiCertificate)
        assert revalidate(verdict, pentagon)

    def test_nofb_estimation_solvable_via_witness(self, pentagon):
        verdict = classify(diagonal_plant([2], disturbance=F(1, 10)),
                           pentagon, Regime("se-nofb"), 100_000)
        assert verdict.outcome == "Solvable"
        cert = verdict.certificate
        assert isinstance(cert, IndependentSetCertificate)
        assert cert.n == 2 and cert.alpha == 5
        assert revalidate(verdict, pentagon)

    def test_zero_capacity_channel_unsolvable(self, bsc14):
        verdict = classify(diagonal_plant([2], disturbance=F(1, 10)),
                           bsc14, Regime("se-fb"), 100_000)
        assert verdict.outcome == "Unsolvable"
        assert verdict.certificate.complete_graph
        assert revalidate(verdict, bsc14)

    def test_weak_solvable(self, pentagon):
        verdict = classify(scalar_plant(2), pentagon, Regime("weak"), 100_000)
        assert verdict.outcome == "Solvable"
        assert isinstance(verdict.certificate, SeparationCertificate)
        assert revalidate(verdict, pentagon)

    def test_weak_unsolvable(self, pentagon):
        verdict = classify(scalar_plant(3), pentagon, Regime("weak"), 100_000)
        assert verdict.outcome == "Unsolvable"
        assert verdict.certificate.relation == "capacity-below-eta"
        assert revalidate(verdict, pentagon)

    def test_stream_stabilization_unsolvable(self, hover_channel):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           hover_channel, Regime("stab-fb"), 500)
        assert verdict.outcome == "Unsolvable"
        assert revalidate(verdict, hover_channel)

    def test_zero_capacity_flat_channel(self):
        from certcap.channel import exact_channel
        flat = exact_channel((0, 1), (0, 1),
                             [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        # unstable plant over a zero-capacity channel: weak is unsolvable
        verdict = classify(scalar_plant(2), flat, Regime("weak"), 10_000)
        assert verdict.outcome == "Unsolvable"
        assert revalidate(verdict, flat)
        # stable plant: exponent and capacity both exactly zero, a boundary
        verdict = classify(scalar_plant(F(1, 2)), flat, Regime("weak"), 60)
        assert verdict.outcome == "Undetermined"

    def test_stable_plant_weak_solvable(self, bsc14):
        verdict = classify(scalar_plant(F(1, 2)), bsc14, Regime("weak"), 10_000)
        assert verdict.outcome == "Solvable"
        assert revalidate(verdict, bsc14)

    def test_stabilization_mirrors_feedback_estimation(self, pentagon):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           pentagon, Regime("stab-fb"), 100_000)
        assert verdict.outcome == "Unsolvable"
        verdict = classify(diagonal_plant([F(3, 2)], disturbance=F(1, 10)),
                           pentagon, Regime("stab-fb"), 100_000)
        assert verdict.outcome == "Solvable"

    def test_budget_monotonicity(self, pentagon, bsc14, nl2):
        cases = [
            (diagonal_plant([3], disturbance=F(1, 10)), pentagon, "se-fb"),
            (diagonal_plant([2], disturbance=F(1, 10)), pentagon, "se-nofb"),
            (diagonal_plant([2], disturbance=F(1, 10)), bsc14, "se-fb"),
            (scalar_plant(2), pentagon, "weak"),
        ]
        for plant, ch, kind in cases:
            outcomes = [classify(plant, ch, Regime(kind), b).outcome
                        for b in (100, 1_000, 100_000)]
            settled = [o for o in outcomes if o != "Undetermined"]
            assert len(set(settled)) <= 1
            if "Undetermined" in outcomes:
                assert outcomes.index("Undetermined") == 0 or not settled

    def test_determinism_byte_identical(self, pentagon):
        plant = diagonal_plant([3], disturbance=F(1, 10))
        a = classify(plant, pentagon, Regime("se-fb"), 10_000)
        b = classify(plant, pentagon, Regime("se-fb"), 10_000)
        dump = lambda v: json.dumps(v.to_json(), sort_keys=True)
        assert dump(a) == dump(b)


class TestBudgetAndBoundary:
    def test_zero_budget_is_undetermined(self, pentagon):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 0)
        assert verdict.outcome == "Undetermined"
        assert isinstance(verdict.certificate, BudgetReport)

    def test_exact_boundary_is_undetermined(self, nl2):
        # exponent exactly 1 against feedback capacity exactly 1
        verdict = classify(diagonal_plant([2], disturbance=F(1, 10)),
                           nl2, Regime("se-fb"), 10_000)
        assert verdict.outcome == "Undetermined"
        assert "boundary" in verdict.certificate.note


class TestOneSidedness:
    def test_stream_unsolvable_can_fire(self, hover_channel):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           hover_channel, Regime("se-fb"), 500)
        assert verdict.outcome == "Unsolvable"
        assert revalidate(verdict, hover_channel)

    def test_stream_solvable_never_fires(self, hover_channel):
        # the true channel would be solvable (capacity 1 > 0.585) but the
        # hovering entry keeps the solvable direction from ever firing
        plant = diagonal_plant([F(3, 2)], disturbance=F(1, 10))
        for budget in (10, 100, 400):
            verdict = classify(plant, hover_channel, Regime("se-fb"), budget)
            assert verdict.outcome in ("Undetermined",)

    def test_nofb_never_unsolvable_on_corpus(self, pentagon, bsc14, nl2,
                                             hover_channel, pentagon_stream):
        plants = [diagonal_plant([2], disturbance=F(1, 10)),
                  diagonal_plant([3], disturbance=F(1, 10)),
                  diagonal_plant([F(3, 2)], disturbance=F(1, 10))]
        for ch in (pentagon, bsc14, nl2, hover_channel, pentagon_stream):
            for plant in plants:
                verdict = classify(plant, ch, Regime("se-nofb"), 200)
                assert verdict.outcome in ("Solvable", "Undetermined")

    def test_consistency_with_weak(self, pentagon):
        plant_fb = diagonal_plant([F(3, 2)], disturbance=F(1, 10))
        fb = classify(plant_fb, pentagon, Regime("se-fb"), 10_000)
        weak = classify(scalar_plant(F(3, 2)), pentagon, Regime("weak"), 10_000)
        if fb.outcome == "Solvable":
            assert weak.outcome != "Unsolvable"


class TestPreconditions:
    def test_missing_disturbance_bound(self, pentagon):
        with pytest.raises(RegimePreconditionError, match="D > 0"):
            classify(scalar_plant(3), pentagon, Regime("se-fb"), 10)

    def test_weak_rejects_disturbance(self, pentagon):
        with pytest.raises(RegimePreconditionError, match="undisturbed"):
            classify(scalar_plant(3, disturbance=F(1, 10)), pentagon,
                     Regime("weak"), 10)

    def test_undetectable_plant_rejected(self, pentagon):
        from certcap.linalg import as_matrix
        from certcap.plant import Plant
        plant = Plant(as_matrix([[2, 0], [0, 3]]), c=as_matrix([[1, 0]]),
                      disturbance_bound=F(1, 10))
        with pytest.raises(RegimePreconditionError, match="detectable"):
            classify(plant, pentagon, Regime("se-fb"), 10)

    def test_stab_needs_b(self, pentagon):
        plant = scalar_plant(2, disturbance=F(1, 10))
        with pytest.raises(RegimePreconditionError, match="input map"):
            classify(plant, pentagon, Regime("stab-fb"), 10)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            Regime("se-magic")


class TestFixedPlant:
    def test_alphabet_bound_short_circuit(self, nl2):
        verdict = classify_fixed_plant(Enclosure.exact(F(1)), nl2,
                                       "capacity-above", 100)
        assert verdict.outcome == "Unsolvable"
        assert verdict.steps == 0
        assert verdict.certificate.quantity == "alphabet-bound"
        assert revalidate(verdict, nl2)

    def test_capacity_above_halts_solvable(self, nl2):
        verdict = classify_fixed_plant(Enclosure.exact(F(1, 2)), nl2,
                                       "capacity-above", 100)
        assert verdict.outcome == "Solvable"
        assert verdict.certificate.n == 1
        assert revalidate(verdict, nl2)

    def test_capacity_below_halts_unsolvable(self, nl2):
        verdict = classify_fixed_plant(Enclosure.exact(F(2)), nl2,
                                       "capacity-below", 100)
        assert verdict.outcome == "Unsolvable"
        assert revalidate(verdict, nl2)

    def test_non_power_of_two_alphabet_bound(self, pentagon):
        verdict = classify_fixed_plant(Enclosure.exact(F(5, 2)), pentagon,
                                       "capacity-above", 100)
        assert verdict.outcome == "Unsolvable"  # 5/2 > log2(5) ~ 2.3219

    def test_non_dyadic_eta_below_the_alphabet_bound(self, pentagon):
        # 1/3 is not dyadic, so no exact power of two can be compared with it
        verdict = classify_fixed_plant(Enclosure.exact(F(1, 3)), pentagon,
                                       "capacity-above", 100)
        assert verdict.outcome == "Solvable"
        assert revalidate(verdict, pentagon)

    def test_non_dyadic_eta_capacity_below(self):
        nl3 = noiseless(3)
        verdict = classify_fixed_plant(Enclosure.exact(F(5, 3)), nl3,
                                       "capacity-below", 100)
        assert verdict.outcome == "Unsolvable"  # 5/3 > log2(3) ~ 1.585
        assert revalidate(verdict, nl3)

    def test_capacity_below_reports_no_other_outcome(self, nl2):
        # se-fb would halt Solvable at eta 1/2 and on the exact boundary at
        # eta 1; this direction can only report Unsolvable
        for eta in (F(1, 2), F(1)):
            verdict = classify_fixed_plant(Enclosure.exact(eta), nl2,
                                           "capacity-below", 100)
            assert verdict.outcome == "Undetermined"
            assert verdict.certificate.note == ""
            assert verdict.regime == "fixed-plant:capacity-below"

    @pytest.mark.parametrize("direction", ["capacity-above", "capacity-below"])
    def test_negative_exponent_is_a_domain_error(self, nl2, direction):
        # eta >= 0 for every plant; a negative value must not halt Solvable
        with pytest.raises(DomainError, match="exponent must be >= 0"):
            classify_fixed_plant(Enclosure(F(-1), F(1, 2)), nl2, direction, 10)

    def test_unknown_direction(self, nl2):
        with pytest.raises(ValueError, match="direction"):
            classify_fixed_plant(Enclosure.exact(F(1)), nl2, "capacity-sideways", 10)


class TestCertificateTamperDetection:
    def test_tampered_witness_fails_revalidation(self, pentagon):
        verdict = classify(diagonal_plant([2], disturbance=F(1, 10)),
                           pentagon, Regime("se-nofb"), 10_000)
        cert = verdict.certificate
        bad = IndependentSetCertificate(cert.n, cert.alpha,
                                        ((0, 0), (0, 1)) + cert.witness[2:],
                                        cert.rate_lo, cert.eta)
        from certcap.classify import Verdict
        forged = Verdict(verdict.outcome, verdict.regime, bad,
                         verdict.steps, verdict.budget)
        assert not revalidate(forged, pentagon)

    def test_tampered_mass_fails_revalidation(self, pentagon):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 10_000)
        cert = verdict.certificate
        bad = PsiCertificate(cert.mass * 2, cert.support_level,
                             cert.output_weights, cert.complete_graph,
                             cert.c0fb_upper, cert.eta_lo)
        from certcap.classify import Verdict
        forged = Verdict(verdict.outcome, verdict.regime, bad,
                         verdict.steps, verdict.budget)
        assert not revalidate(forged, pentagon)


def _with_certificate(verdict, cert):
    return Verdict(verdict.outcome, verdict.regime, cert, verdict.steps, verdict.budget)


class TestForgedCertificates:
    def test_alphabet_bound_just_below_log2_alphabet(self):
        nl3 = noiseless(3)
        bound = log2_enclosure(F(3), F(1, 1 << 20))
        eta = Enclosure.exact(bound.lo)  # a dyadic just below log2(3)
        cert = SeparationCertificate(
            "alphabet-bound", "capacity-below-eta", eta, bound, {"alphabet": 3})
        forged = Verdict("Unsolvable", "fixed-plant:capacity-above", cert, 0, 100)
        assert not revalidate(forged, nl3)
        # the producer does not short-circuit here either
        assert classify_fixed_plant(eta, nl3, "capacity-above", 0).outcome == "Undetermined"

    @pytest.mark.parametrize("pair", [[0, 5], [1, 0], [-1, 1]])
    def test_c0fb_pair_out_of_range_or_misordered(self, nl2, pair):
        verdict = classify(scalar_plant(F(3, 2), disturbance=F(1, 10)), nl2,
                           Regime("se-fb"), 100)
        cert = verdict.certificate
        assert cert.quantity == "c0fb" and revalidate(verdict, nl2)
        bad = replace(cert, payload={**cert.payload, "nonadjacent_pair": pair})
        assert revalidate(_with_certificate(verdict, bad), nl2) is False

    def test_c0fb_on_a_stream_with_unsettled_support(self):
        # (2, 0) never resolves; if it is positive, psi = 1/2 and C0fb = 1,
        # below the claimed eta, although the proven support alone gives 1/3
        ch = hovering_stream(noiseless(3), [(2, 0)])
        cert = SeparationCertificate(
            "c0fb", "eta-below-capacity", Enclosure.exact(F(6, 5)),
            log2_enclosure(F(3), F(1, 1 << 20)),
            {"inverse_psi": "3", "distribution": ["1/3"] * 3,
             "nonadjacent_pair": [0, 1]})
        assert not revalidate(Verdict("Solvable", "se-fb", cert, 1, 100), ch)

    def test_c0fb_distribution_on_a_phantom_input(self, nl2):
        # all mass on a third input that reaches no output would make every
        # output's mass 0 and "prove" any capacity, here 10 bits for 5 claimed
        cert = SeparationCertificate(
            "c0fb", "eta-below-capacity", Enclosure.exact(F(5)), Enclosure.exact(F(10)),
            {"inverse_psi": "1024", "distribution": ["0", "0", "1"],
             "nonadjacent_pair": [0, 1]})
        assert not revalidate(Verdict("Solvable", "se-fb", cert, 1, 100), nl2)

    def test_zero_psi_mass(self, pentagon):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 10_000)
        bad = replace(verdict.certificate, mass=F(0))
        assert revalidate(_with_certificate(verdict, bad), pentagon) is False

    def test_psi_weights_of_the_wrong_length(self, pentagon):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 10_000)
        weights = verdict.certificate.output_weights
        bad = replace(verdict.certificate, output_weights=weights[:-1])
        assert revalidate(_with_certificate(verdict, bad), pentagon) is False

    def test_alphabet_bound_checks_relation_and_capacity(self, pentagon):
        verdict = classify_fixed_plant(Enclosure.exact(F(5, 2)), pentagon,
                                       "capacity-above", 100)
        cert = verdict.certificate
        assert revalidate(verdict, pentagon)
        zero = Enclosure.exact(F(0))
        for bad in (replace(cert, relation="eta-below-capacity", capacity=zero),
                    replace(cert, capacity=zero),
                    replace(cert, capacity=Enclosure(cert.capacity.lo, F(3))),
                    replace(cert, payload={"alphabet": 4})):
            assert revalidate(_with_certificate(verdict, bad), pentagon) is False

    def test_negative_eta_is_rejected(self, nl2, pentagon):
        # eta >= 0 for every plant, and the producer refuses a negative one;
        # the first two forgeries re-validated before the checker tested the
        # sign (the third already failed on its own upper bound)
        minus = Enclosure.exact(F(-1))
        ladder = classify_fixed_plant(Enclosure.exact(F(1, 2)), nl2, "capacity-above", 100)
        c0fb = classify(scalar_plant(F(3, 2), disturbance=F(1, 10)), nl2,
                        Regime("se-fb"), 100)
        psi = classify(diagonal_plant([3], disturbance=F(1, 10)),
                       pentagon, Regime("se-fb"), 10_000)
        assert isinstance(ladder.certificate, IndependentSetCertificate)
        assert c0fb.certificate.quantity == "c0fb"
        for verdict, bad, ch in (
                (ladder, replace(ladder.certificate, eta=minus), nl2),
                (c0fb, replace(c0fb.certificate, eta=minus), nl2),
                (psi, replace(psi.certificate, eta_lo=F(-1)), pentagon)):
            assert revalidate(verdict, ch)
            assert revalidate(_with_certificate(verdict, bad), ch) is False

    def test_malformed_fields_fail_without_raising(self, pentagon):
        psi = classify(diagonal_plant([3], disturbance=F(1, 10)),
                       pentagon, Regime("se-fb"), 10_000)
        ladder = classify(diagonal_plant([2], disturbance=F(1, 10)),
                          pentagon, Regime("se-nofb"), 10_000)
        p, w = psi.certificate, ladder.certificate
        for verdict, bad in (
                (psi, replace(p, support_level=-1)),
                (psi, replace(p, c0fb_upper=Enclosure(F(1, 3), p.c0fb_upper.hi))),
                (ladder, replace(w, rate_lo=Enclosure(F(1, 3), w.rate_lo.hi))),
                (ladder, replace(w, rate_lo=Enclosure(F(1, 1 << 70), w.rate_lo.hi)))):
            assert revalidate(_with_certificate(verdict, bad), pentagon) is False

    def test_c0fb_zero_inverse_psi(self, nl2):
        cert = SeparationCertificate(
            "c0fb", "eta-below-capacity", Enclosure.exact(F(-1)), Enclosure.exact(F(0)),
            {"inverse_psi": "0", "distribution": ["1/2", "1/2"], "nonadjacent_pair": [0, 1]})
        assert revalidate(Verdict("Solvable", "se-fb", cert, 1, 100), nl2) is False

    def test_shannon_bounds_on_a_stream(self, hover_channel):
        # a stream has no rows to recompute the bounds from
        cert = SeparationCertificate(
            "shannon", "capacity-below-eta", Enclosure.exact(F(5)), Enclosure.exact(F(0)),
            {"input_distribution": ["1/2", "1/2"], "log_width": "1/16"})
        assert revalidate(Verdict("Unsolvable", "weak", cert, 1, 100), hover_channel) is False

    def test_empty_words_prove_no_rate(self, nl2):
        # with n = 0 the rate check alpha >= 2**(n * rate_lo.lo) holds for any rate
        cert = IndependentSetCertificate(0, 1, ((),), Enclosure.exact(F(10)),
                                         Enclosure.exact(F(5)))
        assert revalidate(Verdict("Solvable", "se-nofb", cert, 1, 100), nl2) is False

    def test_conservative_stream_graph_is_rejected(self, hover_channel):
        # the hovering entry (0, 1) may join inputs 0 and 1 at every level,
        # so the producer never accepts the graph and neither may the checker
        cert = IndependentSetCertificate(1, 2, ((0,), (1,)), log2_enclosure(F(2), F(1, 16)),
                                         Enclosure.exact(F(1, 2)))
        assert revalidate(Verdict("Solvable", "se-nofb", cert, 1, 100), hover_channel) is False

    def test_witness_label_outside_the_alphabet(self, pentagon):
        verdict = classify(diagonal_plant([2], disturbance=F(1, 10)),
                           pentagon, Regime("se-nofb"), 10_000)
        cert = verdict.certificate
        bad = replace(cert, witness=((0, 7),) + cert.witness[1:])
        assert revalidate(_with_certificate(verdict, bad), pentagon) is False

    def test_shannon_distribution_must_be_a_probability_vector(self, nl2):
        # 3/8 on each input of noiseless(2) (C = 1) "proves" C >= 1.06, above
        # eta = log2(41/20) = 1.036, although that plant is Unsolvable
        plant = scalar_plant(F(41, 20))
        assert classify(plant, nl2, Regime("weak"), 100).outcome == "Unsolvable"
        eta = instability_exponent(plant.a, F(1, 1 << 20))
        lower, _ = certified_capacity_bounds(nl2.rows, (F(3, 8), F(3, 8)), F(1, 1 << 20))
        assert eta.hi < lower.lo
        cert = SeparationCertificate(
            "shannon", "eta-below-capacity", eta, lower,
            {"input_distribution": ["3/8", "3/8"], "log_width": "1/1048576"})
        assert revalidate(Verdict("Solvable", "weak", cert, 1, 100), nl2) is False

    def test_endpoint_past_the_depth_cap_fails_fast(self, pentagon):
        verdict = classify(diagonal_plant([2], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 10_000)
        cert = verdict.certificate
        assert cert.quantity == "c0fb" and revalidate(verdict, pentagon)
        # still a true lower endpoint, but log2_compare would need 100000 squarings
        deep = Enclosure(cert.capacity.lo - F(1, 1 << 100_000), cert.capacity.hi)
        start = time.monotonic()
        assert revalidate(_with_certificate(verdict, replace(cert, capacity=deep)),
                          pentagon) is False
        assert time.monotonic() - start < 0.5


_DROP = object()


@pytest.mark.parametrize("quantity, change", [
    ("shannon", {"input_distribution": ["1", "0"]}),
    ("shannon", {"input_distribution": ["x", "1"]}),
    ("shannon", {"input_distribution": ["1"]}),
    ("shannon", {"log_width": "-1"}),
    ("shannon", {"input_distribution": 5}),
    ("shannon", {"log_width": _DROP}),
    ("c0fb", {"nonadjacent_pair": _DROP}),
    ("c0fb", {"nonadjacent_pair": [0, 1, 2]}),
    ("c0fb", {"nonadjacent_pair": ["0", "1"]}),
    ("c0fb", {"inverse_psi": "abc"}),
], ids=["shannon-zero-mass", "shannon-bad-rational", "shannon-short",
        "shannon-negative-width", "shannon-not-a-list", "shannon-missing-key",
        "c0fb-missing-pair", "c0fb-three-indices", "c0fb-string-indices",
        "c0fb-bad-inverse-psi"])
def test_malformed_payload_fails_without_raising(nl2, quantity, change):
    plant = scalar_plant(F(3, 2), disturbance=None if quantity == "shannon" else F(1, 10))
    verdict = classify(plant, nl2, Regime("weak" if quantity == "shannon" else "se-fb"), 100)
    cert = verdict.certificate
    assert cert.quantity == quantity and revalidate(verdict, nl2)
    payload = {k: v for k, v in {**cert.payload, **change}.items() if v is not _DROP}
    assert revalidate(_with_certificate(verdict, replace(cert, payload=payload)), nl2) is False


@pytest.mark.parametrize("a, regime, change", [
    (3, "se-fb", {"mass": "1/2"}),
    (3, "se-fb", {"output_weights": ("1/5",) * 5}),
    (3, "se-fb", {"support_level": "0"}),
    (3, "se-fb", {"eta_lo": "2"}),
    (2, "se-nofb", {"n": "2"}),
    (2, "se-nofb", {"witness": 5}),
    # a JSON round trip turns the labels of a one-letter witness into lists
    (F(3, 2), "se-nofb", {"witness": ([2], [4])}),
], ids=["psi-string-mass", "psi-string-weights", "psi-string-level",
        "psi-string-eta", "witness-string-n", "witness-not-a-tuple",
        "witness-list-labels"])
def test_mistyped_certificate_field_fails_without_raising(pentagon, a, regime, change):
    verdict = classify(diagonal_plant([a], disturbance=F(1, 10)), pentagon,
                       Regime(regime), 10_000)
    assert revalidate(verdict, pentagon)
    bad = replace(verdict.certificate, **change)
    assert revalidate(_with_certificate(verdict, bad), pentagon) is False


@pytest.mark.parametrize("case, target, change", [
    ("c0fb", "certificate", {"eta": "1/2"}),
    ("c0fb", "certificate", {"capacity": None}),
    ("c0fb", "certificate", {"quantity": ["c0fb"]}),
    ("c0fb", "certificate", {"relation": ["x"]}),
    ("c0fb", "verdict", {"regime": ["se-fb"]}),
    ("complete", "certificate", {"complete_graph": 1}),
    ("complete", "certificate", {"complete_graph": "yes"}),
    ("complete", "verdict", {"steps": "3"}),
    # a bool is no int: True would pass for n = 1 in every comparison
    ("ladder", "certificate", {"n": True}),
], ids=["c0fb-string-eta", "c0fb-no-capacity", "c0fb-list-quantity", "c0fb-list-relation",
        "list-regime", "complete-graph-int", "complete-graph-string", "string-steps",
        "bool-n"])
def test_forged_field_type_fails_without_raising(nl2, bsc14, case, target, change):
    # revalidate answers False, and never raises, whatever a field holds
    if case == "c0fb":
        ch, verdict = nl2, classify(scalar_plant(F(3, 2), disturbance=F(1, 10)), nl2,
                                    Regime("se-fb"), 100)
        assert verdict.certificate.quantity == "c0fb"
    elif case == "ladder":
        ch, verdict = nl2, classify_fixed_plant(Enclosure.exact(F(1, 2)), nl2,
                                                "capacity-above", 100)
        assert verdict.certificate.n == 1
    else:
        ch, verdict = bsc14, classify(diagonal_plant([2], disturbance=F(1, 10)), bsc14,
                                      Regime("se-fb"), 10_000)
        assert verdict.certificate.complete_graph is True
    assert revalidate(verdict, ch)
    bad = (replace(verdict, **change) if target == "verdict"
           else _with_certificate(verdict, replace(verdict.certificate, **change)))
    assert revalidate(bad, ch) is False


class TestZeroErrorConsumersAgree:
    def test_tuple_labelled_channel_rung_one_witness(self):
        # the product channel's input labels are tuples; rung 1 holds words of
        # one such label, which the re-validator reads as words
        ch = product_channel(noiseless(2), 2)
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)), ch,
                           Regime("se-nofb"), 2000)
        assert verdict.outcome == "Solvable"
        cert = verdict.certificate
        assert (cert.n, cert.alpha) == (1, 4)
        assert cert.witness == tuple((x,) for x in ch.inputs)
        assert revalidate(verdict, ch)

    def test_settled_graph_with_an_unresolved_entry(self):
        # entry (0, 2) hovers through level 63, but no other input can reach
        # output 2, so the graph is settled, and not conservative, at level 0
        exact = exact_channel((0, 1), (0, 1, 2), [[1, 0, 0], [0, 1, 0]])
        stream = hovering_stream(exact, [(0, 2)])
        assert certify_support(stream, stream.max_declared_level()).unresolved
        plant = diagonal_plant([F(3, 2)], disturbance=F(1, 10))
        for ch in (exact, stream):
            verdict = classify(plant, ch, Regime("se-nofb"), 2000)
            assert verdict.outcome == "Solvable"
            assert isinstance(verdict.certificate, IndependentSetCertificate)
            assert revalidate(verdict, ch)


    def test_hovering_entry_only_adds_an_edge(self):
        # typewriter(5) with (0, 2) unresolved: the may-reach graph is the
        # pentagon plus the edge 0-2, still with alpha 2, a rate-1 code
        ch = hovering_stream(typewriter(5), [(0, 2)])
        verdict = classify(diagonal_plant([F(3, 2)], disturbance=F(1, 10)), ch,
                           Regime("se-nofb"), 2000)
        assert (verdict.outcome, verdict.steps) == ("Solvable", 2)
        cert = verdict.certificate
        assert (cert.n, cert.alpha, cert.witness) == (1, 2, ((2,), (4,)))
        assert cert.rate_lo == Enclosure.exact(F(1))
        assert revalidate(verdict, ch)

    def test_unresolved_confusion_stays_undetermined(self, hover_channel):
        # criterion 6: the hovering entry may join the two inputs of
        # noiseless(2), so one rung is all the ladder can say
        verdict = classify(diagonal_plant([F(3, 2)], disturbance=F(1, 10)),
                           hover_channel, Regime("se-nofb"), 2000)
        assert verdict.outcome == "Undetermined"
        assert verdict.certificate.progress["ladder"] == {
            "rungs": 1, "running_best": Enclosure.exact(F(0)).to_json()}


class TestVerdictMatchesCertificate:
    """A certificate proves one outcome, in the regimes whose capacity it bounds."""

    def test_psi_certificate_cannot_prove_solvable(self, pentagon):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 10_000)
        assert revalidate(verdict, pentagon)
        assert revalidate(replace(verdict, outcome="Solvable"), pentagon) is False

    def test_alphabet_bound_cannot_prove_solvable(self, pentagon):
        verdict = classify_fixed_plant(Enclosure.exact(F(5, 2)), pentagon,
                                       "capacity-above", 100)
        assert revalidate(verdict, pentagon)
        assert revalidate(replace(verdict, outcome="Solvable"), pentagon) is False

    def test_c0fb_certificate_is_not_a_zero_error_proof(self, pentagon):
        # log2(12/5) ~ 1.263 lies between C0 = log2(5)/2 ~ 1.161 and
        # C0fb = log2(5/2) ~ 1.322: Solvable with feedback, not without
        verdict = classify(diagonal_plant([F(12, 5)], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 10_000)
        assert verdict.certificate.quantity == "c0fb" and revalidate(verdict, pentagon)
        assert revalidate(replace(verdict, regime="se-nofb"), pentagon) is False
        assert revalidate(replace(verdict, regime="weak"), pentagon)

    def test_c0fb_lower_bound_cannot_prove_unsolvable(self, nl2):
        # the distribution proves C0fb >= log2(1) = 0, which bounds nothing
        # from above: C0fb(noiseless(2)) = 1 > 1/2
        cert = SeparationCertificate(
            "c0fb", "capacity-below-eta", Enclosure.exact(F(1, 2)), Enclosure.exact(F(0)),
            {"inverse_psi": "1", "distribution": ["1", "0"], "nonadjacent_pair": [0, 1]})
        assert revalidate(Verdict("Unsolvable", "se-fb", cert, 1, 100), nl2) is False

    def test_psi_certificate_does_not_bound_the_ordinary_capacity(self, pentagon):
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           pentagon, Regime("se-fb"), 10_000)
        assert revalidate(replace(verdict, regime="se-nofb"), pentagon)
        assert revalidate(replace(verdict, regime="weak"), pentagon) is False


class TestRevalidatorIndependence:
    def test_no_log2_enclosure_outside_the_shannon_check(self, monkeypatch, pentagon,
                                                         bsc14, nl2, hover_channel):
        def fb(a):
            return diagonal_plant([a], disturbance=F(1, 10))

        cases = [
            (classify(fb(2), pentagon, Regime("se-nofb"), 10_000), pentagon),
            (classify(fb(3), pentagon, Regime("se-fb"), 10_000), pentagon),
            (classify(fb(3), hover_channel, Regime("se-fb"), 500), hover_channel),
            (classify(fb(2), bsc14, Regime("se-fb"), 10_000), bsc14),
            (classify(fb(F(3, 2)), nl2, Regime("se-fb"), 100), nl2),
            (classify_fixed_plant(Enclosure.exact(F(5, 2)), pentagon,
                                  "capacity-above", 100), pentagon),
        ]
        kinds = [(type(v.certificate).__name__, getattr(v.certificate, "quantity", None),
                  getattr(v.certificate, "complete_graph", None)) for v, _ in cases]
        assert kinds == [("IndependentSetCertificate", None, None),
                         ("PsiCertificate", None, False), ("PsiCertificate", None, False),
                         ("PsiCertificate", None, True),
                         ("SeparationCertificate", "c0fb", None),
                         ("SeparationCertificate", "alphabet-bound", None)]
        assert not hover_channel.is_exact

        def forbidden(*args):
            raise AssertionError("the re-validator called log2_enclosure")

        # the checker and the engine live in different modules: patch every binding
        for name, module in list(sys.modules.items()):
            if name.startswith("certcap.") and hasattr(module, "log2_enclosure"):
                monkeypatch.setattr(module, "log2_enclosure", forbidden)
        for verdict, ch in cases:
            assert revalidate(verdict, ch)


def test_log2_compare():
    assert log2_compare(F(4), F(2)) == 0
    assert log2_compare(F(5, 2), F(1)) > 0   # 5/2 > 2^1
    assert log2_compare(F(3), F(3, 2)) > 0   # 3 > 2^1.5
    assert log2_compare(F(5, 2), F(21, 16)) > 0  # log2 2.5 = 1.3219 > 21/16
    assert log2_compare(F(5, 2), F(43, 32)) < 0  # 43/32 = 1.34375
    assert log2_compare(F(0), F(-5)) < 0
    with pytest.raises(ValueError, match="dyadic"):
        log2_compare(F(3), F(1, 3))


values = st.fractions(min_value=F(1, 1000), max_value=1000).filter(lambda f: f > 0)


def _nearby_exponent(value, m, offset):
    """A dyadic at depth m within a few steps of log2(value): the hard cases."""
    guess = mpmath.log(mpmath.mpf(value.numerator) / value.denominator, 2)
    return F(int(mpmath.floor(guess * 2 ** m)) + offset, 1 << m)


@given(value=values, m=st.integers(0, 12), offset=st.integers(-3, 3))
def test_log2_compare_matches_exact_powers(value, m, offset):
    exponent = _nearby_exponent(value, m, offset)
    left = value ** exponent.denominator  # value**(2**m) in lowest terms
    right = F(2) ** exponent.numerator
    assert log2_compare(value, exponent) == (left > right) - (left < right)


@pytest.mark.parametrize("bits", [100, 300])
@pytest.mark.parametrize("m", [1, 2])
def test_log2_compare_within_the_first_bracket(bits, m):
    # the neighbours of 2**(1/2**m) on a grid finer than the first bracket's
    # precision make it straddle, so only outward rounding keeps the sign right
    root = 2 << (bits << m)
    for _ in range(m):
        root = math.isqrt(root)
    assert log2_compare(F(root, 1 << bits), F(1, 1 << m)) == -1
    assert log2_compare(F(root + 1, 1 << bits), F(1, 1 << m)) == 1


@given(value=values, m=st.integers(64, 200), offset=st.integers(-3, 3),
       power=st.integers(-40, 40))
def test_log2_compare_at_depth(value, m, offset, power):
    with mpmath.workprec(m + 200):
        exponent = _nearby_exponent(value, m, offset)
        gap = mpmath.log(mpmath.mpf(value.numerator) / value.denominator, 2) - (
            mpmath.mpf(exponent.numerator) / exponent.denominator)
    assert log2_compare(value, exponent) == (gap > 0) - (gap < 0)
    # a power of two is compared exactly, equality included
    two = F(2) ** power
    for shift in (-1, 0, 1):
        assert log2_compare(two, F(power * (1 << m) + shift, 1 << m)) == -shift


class TestNoRepeatedSolves:
    """Exact work is done once per classification, with the same results."""

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        real = capacity.solve_lp

        def counting(lp):
            calls.append(lp)
            return real(lp)

        monkeypatch.setattr(capacity, "solve_lp", counting)
        return calls

    def test_feedback_task_solves_once_and_refines_like_fresh(self, data_dir, monkeypatch):
        ch = load_channel((data_dir / "pentagon.json").read_text())
        calls = self._count_solves(monkeypatch)
        task = FeedbackCapacityTask(ch)
        steps = []
        while not task.exhausted():
            width = task.width
            task.step()
            steps.append((width, task.result))
        assert len(calls) == 1
        assert len(steps) > 20
        for width, result in steps:
            assert result == feedback_zero_error_capacity(ch, width)

    def test_pentagon_tie_verdict_matches_resolving_task(self, data_dir, monkeypatch):
        # a = 5/2 puts eta exactly on C0fb(pentagon) = log2(5/2): both tasks
        # run until exhausted and the verdict is Undetermined
        ch = load_channel((data_dir / "pentagon.json").read_text())
        plant = scalar_plant(F(5, 2), disturbance=1)
        calls = self._count_solves(monkeypatch)
        verdict = classify(plant, ch, Regime("se-fb"), 500)
        assert verdict.outcome == "Undetermined"
        assert verdict.steps < 500
        assert len(calls) == 1

        class ResolvingTask(FeedbackCapacityTask):
            def step(self):
                self.result = feedback_zero_error_capacity(self.channel, self.width)
                self.width /= 16

        monkeypatch.setattr(classify_module, "FeedbackCapacityTask", ResolvingTask)
        reference = classify(plant, ch, Regime("se-fb"), 500)
        assert len(calls) > 2
        assert (json.dumps(verdict.to_json(), sort_keys=True)
                == json.dumps(reference.to_json(), sort_keys=True))

    def test_minimax_ladder_solves_once_per_support_pattern(self, monkeypatch):
        ch = hovering_stream(noiseless(2), [(0, 1)], 64)
        calls = self._count_solves(monkeypatch)
        task = MinimaxLadderTask(ch)
        rungs = []
        while not task.exhausted():
            task.step()
            rungs.append(task.rung)
        assert [r.level for r in rungs] == list(range(64))
        patterns = {support_sets(certify_support(ch, r.level), 2, 2) for r in rungs}
        assert len(patterns) == 2
        assert len(calls) == len(patterns)
        for rung in rungs:
            cert = certify_support(ch, rung.level)
            fresh = minimax_ladder_step(ch, rung.level, None).solution
            assert rung.solution.support_sets == support_sets(cert, 2, 2)
            assert rung.solution == fresh
            assert rung.mass == fresh.value
            assert rung.upper == (None if fresh.value == 0
                                  else log2_enclosure(1 / fresh.value, DEFAULT_C0FB_WIDTH))

    def test_feedback_capacity_certifies_the_support_once(self, monkeypatch, pentagon,
                                                         bsc14):
        calls = []
        real = capacity.certify_support

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (capacity, confgraph):
            monkeypatch.setattr(module, "certify_support", counting)
        for ch, zero in ((pentagon, False), (bsc14, True)):
            calls.clear()
            assert feedback_zero_error_capacity(ch).zero_capacity is zero
            assert len(calls) == 1

    def test_minimax_ladder_jumps_to_the_next_declared_level(self):
        # every entry of typewriter(3) is pinned at level 10**6 and unknown
        # before it: level 0 and the pin are the only distinct rungs
        t3 = typewriter(3)
        ch = stream_channel(t3.inputs, t3.outputs,
                            [[[(10 ** 6, w, w)] for w in row] for row in t3.rows])
        verdict = classify(scalar_plant(2, disturbance=F(1, 10)), ch, Regime("se-fb"), 100)
        assert verdict.outcome == "Unsolvable" and verdict.steps <= 100
        cert = verdict.certificate
        assert (cert.support_level, cert.mass) == (10 ** 6, F(2, 3))
        assert revalidate(verdict, ch)

    def test_reused_rung_encloses_at_the_new_width(self):
        # typewriter(3) has psi = 2/3; its hovering zero leaves the support
        # complete from level 2 on
        ch = hovering_stream(typewriter(3), [(0, 2)], 8)
        first = minimax_ladder_step(ch, 2, None)
        second = minimax_ladder_step(ch, 3, first, width=F(1, 1 << 40))
        assert second.solution is first.solution
        assert second.mass == F(2, 3)
        assert second.upper == log2_enclosure(1 / second.mass, F(1, 1 << 40))
        assert second.upper != first.upper


def test_complete_graph_ladder_stops_after_rung_one(data_dir, monkeypatch):
    # BSC(1/4) confuses its two inputs: alpha(K2^n) = 1 for every n, so one
    # rung says all the ladder can ever say
    ch = load_channel((data_dir / "bsc_1_4.json").read_text())
    calls = []
    real = classify_module.extend_ladder

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(classify_module, "extend_ladder", counting)
    verdict = classify(scalar_plant(F(3, 2), disturbance=F(1, 10)), ch,
                       Regime("se-nofb"), 200)
    assert verdict.outcome == "Undetermined"
    assert calls == [1]
    assert verdict.certificate.progress["ladder"]["rungs"] == 1
