import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcap.channel import binary_symmetric, certify_support, noiseless, typewriter
from certcap.classify import Regime
from certcap.confgraph import max_independent_set, strong_power
from certcap.graph import confusability_graph
from certcap.linalg import as_matrix
from certcap.plant import Plant
from certcap.simulate import (CodeSpec, SimConfig, SimulationError, _dyadic_split,
                              _lowest_terms, identity_code, run_estimation,
                              run_stabilization, run_weak_detection,
                              sample_output, witness_code)
from conftest import diagonal_plant, reference_radius, scalar_plant, verify_recursion

F = Fraction


def pentagon_block2_code(pentagon):
    g = confusability_graph(certify_support(pentagon), pentagon.inputs, 5)
    result = max_independent_set(strong_power(g, 2))
    return witness_code(pentagon, result.witness)


class TestBoundedTracking:
    def test_noiseless_binary_sup_bound_exact(self, nl2):
        cfg = SimConfig(scalar_plant(F(3, 2), disturbance=F(1, 10)), nl2,
                        Regime("se-nofb"), identity_code(nl2),
                        horizon=2_000, seed=7)
        traj = run_estimation(cfg)
        assert traj.summary["bounded"] is True
        # fixed point of r -> (a r / M) + D is 2/5; transient from r0=1 dominates
        assert F(traj.summary["analytic_bound"]) == 1
        assert F(traj.summary["max_error"]) <= 1
        late = traj.error[-100:]
        assert all(e <= F(2, 5) for e in late)
        assert verify_recursion(traj, cfg)
        assert traj.summary["zero_error_transcript"] is True

    def test_pentagon_witness_code_tracks(self, pentagon):
        code = pentagon_block2_code(pentagon)
        cfg = SimConfig(scalar_plant(F(3, 2), disturbance=F(1, 10)), pentagon,
                        Regime("se-nofb"), code, horizon=600, seed=11)
        traj = run_estimation(cfg)
        assert traj.summary["bounded"] is True
        assert traj.summary["zero_error_transcript"] is True
        assert verify_recursion(traj, cfg)

    def test_error_never_exceeds_radius_with_zero_error_code(self, nl2):
        cfg = SimConfig(scalar_plant(F(3, 2), disturbance=F(1, 10)), nl2,
                        Regime("se-nofb"), identity_code(nl2),
                        horizon=400, seed=3)
        traj = run_estimation(cfg)
        assert all(e <= r for e, r in zip(traj.error, reference_radius(traj, cfg)))


class TestDivergenceSmoke:
    def test_bsc_identity_code_diverges_on_most_seeds(self, bsc14):
        diverged = 0
        for seed in range(20):
            cfg = SimConfig(scalar_plant(F(3, 2), disturbance=F(1, 10)), bsc14,
                            Regime("se-nofb"), identity_code(bsc14),
                            horizon=10_000, seed=seed)
            traj = run_estimation(cfg)
            if traj.summary["diverged_at"] is not None:
                diverged += 1
        assert diverged >= 19

    def test_divergence_is_recorded_with_step(self, bsc14):
        cfg = SimConfig(scalar_plant(F(3, 2), disturbance=F(1, 10)), bsc14,
                        Regime("se-nofb"), identity_code(bsc14),
                        horizon=10_000, seed=0)
        traj = run_estimation(cfg)
        t = traj.summary["diverged_at"]
        assert t is not None
        assert traj.error[traj.times.index(t)] > F(1000)


class TestStabilization:
    def test_bounded_state(self, nl2):
        cfg = SimConfig(scalar_plant(F(3, 2), b=1, disturbance=F(1, 10)), nl2,
                        Regime("stab-fb"), identity_code(nl2),
                        horizon=1_000, seed=3)
        traj = run_stabilization(cfg)
        assert traj.summary["bounded"] is True
        assert verify_recursion(traj, cfg)
        # state stays within a * bound(|x - xhat|) + D
        limit = F(3, 2) * F(traj.summary["analytic_bound"]) + F(1, 10)
        assert all(abs(x[0]) <= limit for x in traj.x)

    def test_undisturbed_state_decays_to_zero(self, nl2):
        cfg = SimConfig(scalar_plant(F(3, 2), b=1, disturbance=0), nl2,
                        Regime("stab-fb"), identity_code(nl2),
                        horizon=120, seed=5)
        traj = run_stabilization(cfg)
        assert abs(traj.x[-1][0]) < F(1, 10 ** 6)

    def test_diverges_over_noisy_channel(self, bsc14):
        diverged = 0
        for seed in range(10):
            cfg = SimConfig(scalar_plant(F(3, 2), b=1, disturbance=F(1, 10)),
                            bsc14, Regime("stab-fb"), identity_code(bsc14),
                            horizon=10_000, seed=seed)
            traj = run_stabilization(cfg)
            if traj.summary["diverged_at"] is not None:
                diverged += 1
        assert diverged >= 9


class TestWeakDetection:
    def test_scalar_three_halves_ratio(self, nl2):
        cfg = SimConfig(scalar_plant(F(3, 2)), nl2, Regime("weak"),
                        identity_code(nl2), horizon=80, seed=1)
        traj = run_weak_detection(cfg)
        assert F(traj.summary["decay_ratio"]) == F(3, 4)
        assert traj.summary["boundary"] is False
        radii = reference_radius(traj, cfg)
        assert all(e <= r for e, r in zip(traj.error, radii))
        for a, b in zip(radii, radii[1:]):  # one step per epoch
            assert b == a * F(3, 4)

    def test_boundary_rate_is_flagged_not_refused(self, nl2):
        cfg = SimConfig(scalar_plant(2), nl2, Regime("weak"),
                        identity_code(nl2), horizon=40, seed=1)
        traj = run_weak_detection(cfg)
        assert F(traj.summary["decay_ratio"]) == 1
        assert traj.summary["boundary"] is True

    def test_pentagon_block_two_ratio(self, pentagon):
        code = pentagon_block2_code(pentagon)
        cfg = SimConfig(scalar_plant(2), pentagon, Regime("weak"), code,
                        horizon=60, seed=2)
        traj = run_weak_detection(cfg)
        assert F(traj.summary["decay_ratio"]) == F(4, 5)
        assert traj.error[-1] < traj.error[0]

    def test_rejects_disturbed_plant(self, nl2):
        cfg = SimConfig(scalar_plant(2, disturbance=F(1, 10)), nl2,
                        Regime("weak"), identity_code(nl2), horizon=10, seed=0)
        with pytest.raises(SimulationError, match="undisturbed"):
            run_weak_detection(cfg)


class TestRefusalsAndShapes:
    def test_rate_at_growth_refused_for_estimation(self, nl2):
        cfg = SimConfig(scalar_plant(2, disturbance=F(1, 10)), nl2,
                        Regime("se-nofb"), identity_code(nl2),
                        horizon=10, seed=0)
        with pytest.raises(SimulationError, match="contraction impossible"):
            run_estimation(cfg)

    def test_non_diagonal_plant_refused(self, nl2):
        plant = Plant(as_matrix([[1, 1], [0, 1]]),
                      disturbance_bound=F(1, 10))
        cfg = SimConfig(plant, nl2, Regime("se-nofb"), identity_code(nl2),
                        horizon=10, seed=0)
        with pytest.raises(SimulationError, match="diagonal"):
            run_estimation(cfg)

    def test_diagonal_allocation(self):
        nl4 = noiseless(4)
        plant = diagonal_plant([F(3, 2), F(3, 2)], disturbance=F(1, 10))
        cfg = SimConfig(plant, nl4, Regime("se-nofb"), identity_code(nl4),
                        horizon=200, seed=9)
        traj = run_estimation(cfg)
        assert traj.summary["cells"] == [2, 2]
        assert traj.summary["bounded"] is True

    def test_integer_radius_runs_exactly(self, nl2):
        def run(radius):
            return run_estimation(SimConfig(
                scalar_plant(F(3, 2), disturbance=F(1, 10)), nl2, Regime("se-nofb"),
                identity_code(nl2), horizon=50, seed=1, initial_radius=radius))
        assert run(2).to_csv() == run(F(2)).to_csv()

    def test_x0_outside_box_rejected(self, nl2):
        cfg = SimConfig(scalar_plant(F(3, 2), disturbance=F(1, 10)), nl2,
                        Regime("se-nofb"), identity_code(nl2),
                        horizon=10, seed=0, x0=(F(5),))
        with pytest.raises(SimulationError, match="outside"):
            run_estimation(cfg)


def _config(ch, plant=None, regime="se-nofb", **fields):
    plant = plant or scalar_plant(F(3, 2), disturbance=F(1, 10))
    return SimConfig(plant, ch, Regime(regime), identity_code(ch), horizon=10, seed=0,
                     **fields)


@pytest.mark.parametrize("run, message", [
    (lambda ch: run_estimation(_config(ch, Plant(as_matrix([[F(3, 2)]]), c=as_matrix([[2]])))),
     r"full-state sensing \(C = I\) only"),
    (lambda ch: run_estimation(_config(ch, Plant(as_matrix([[F(3, 2)]]),
                                                 disturbance_bound=F(1, 10)))),
     r"full-state sensing \(C = I\) only"),
    (lambda ch: run_estimation(_config(ch, scalar_plant(F(-3, 2)))),
     "non-negative diagonal entries"),
    (lambda ch: run_stabilization(_config(ch, regime="stab-fb")),
     "stabilization needs an input map B"),
    (lambda ch: run_stabilization(_config(ch, scalar_plant(F(3, 2), b=0), "stab-fb")),
     "diagonal invertible B only"),
    (lambda ch: run_estimation(_config(ch, regime="weak")), r"expects an se-\* regime"),
    (lambda ch: run_stabilization(_config(ch)), "expects regime stab-fb"),
    (lambda ch: run_weak_detection(_config(ch, regime="se-fb")), "expects regime weak"),
    (lambda ch: run_estimation(_config(ch, x0=(F(0), F(0)))), "x0 dimension mismatch"),
    (lambda ch: witness_code(ch, ()), "empty witness"),
    (lambda ch: CodeSpec(2, ((0, 1), (1,))), "codeword length mismatch"),
    (lambda ch: CodeSpec(1, ((0,), (0,))), "duplicate codewords"),
], ids=["c-not-identity", "no-sensor", "negative-mode", "stab-without-b", "singular-b",
        "estimation-regime", "stabilization-regime", "weak-regime", "x0-length",
        "empty-witness", "codeword-length", "duplicate-codewords"])
def test_unrunnable_configuration_is_refused(nl2, run, message):
    with pytest.raises(SimulationError, match=message):
        run(nl2)


def _pentagon_diag_config(pentagon, horizon):
    return SimConfig(diagonal_plant([F(5, 4), F(6, 5)], disturbance=F(1, 10)), pentagon,
                     Regime("se-nofb"), pentagon_block2_code(pentagon), horizon=horizon,
                     seed=17)


def test_a_run_reduces_only_x_x_hat_and_error(pentagon, monkeypatch):
    """Per step a run reduces x and x_hat per mode and the error, nothing else."""
    import certcap.simulate as sim

    calls = []

    def spy(n, split):
        calls.append(n)
        return real(n, split)

    real = sim._lowest_terms
    monkeypatch.setattr(sim, "_lowest_terms", spy)
    traj = run_estimation(_pentagon_diag_config(pentagon, 1_000))
    steps, dim = len(traj.times), 2
    assert steps == 1_000 and traj.summary["epochs"] == 500
    assert len(calls) == steps * (2 * dim + 1)


def test_verify_recursion_catches_an_altered_state(nl2):
    cfg = _config(nl2)
    traj = run_estimation(cfg)
    assert verify_recursion(traj, cfg)
    x = list(traj.x)
    x[4] = (x[4][0] + F(1, 1000),)  # off the sampler's grid of disturbances
    assert not verify_recursion(replace(traj, x=tuple(x)), cfg)


class TestDeterminismAndSampling:
    def test_identical_configs_identical_bytes(self, bsc14):
        cfg = SimConfig(scalar_plant(F(3, 2), disturbance=F(1, 10)), bsc14,
                        Regime("se-nofb"), identity_code(bsc14),
                        horizon=300, seed=5)
        first, second = run_estimation(cfg), run_estimation(cfg)
        assert first == second
        assert first.to_csv() == second.to_csv()

    def test_sampler_honors_probabilities_exactly(self):
        import random
        row = (F(1, 3), F(1, 6), F(1, 2))
        rng = random.Random(123)
        counts = [0, 0, 0]
        draws = 30_000
        for _ in range(draws):
            counts[sample_output(rng, row)] += 1
        for idx, p in enumerate(row):
            assert abs(counts[idx] / draws - float(p)) < 0.02

    @pytest.mark.parametrize("words, output", [
        ([1431655765, 0], 0),            # floor(2**32 / 3) straddles 1/3; the next word
        ([1431655765, 2 ** 32 - 1], 1),  # settles the cell
        ([1431655764], 0),               # one word below the straddle is enough
    ])
    def test_sampler_refines_a_draw_that_straddles_a_cell_boundary(self, words, output):
        class Words:
            def __init__(self):
                self.left = list(words)

            def getrandbits(self, k):
                assert k == 32
                return self.left.pop(0)

        rng = Words()
        assert sample_output(rng, (F(1, 3), F(2, 3))) == output
        assert rng.left == []

    def test_sampler_never_returns_zero_probability_output(self):
        import random
        row = (F(1, 2), F(0), F(1, 2))
        rng = random.Random(9)
        for _ in range(2_000):
            assert sample_output(rng, row) != 1


def _trajectory_digest(traj) -> str:
    text = traj.to_csv() + json.dumps(traj.summary, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# (name, runner, plant factory, channel fixture or PINNED_CHANNELS name, regime, code,
# horizon, seed, extra SimConfig fields); each covers a branch of the loop
PINNED_RUNS = [
    ("noiseless2-est", run_estimation, lambda: scalar_plant(F(3, 2), disturbance=F(1, 10)),
     "nl2", "se-nofb", "identity", 300, 7, {}),
    ("pentagon-block2", run_estimation, lambda: scalar_plant(2, disturbance=F(1, 10)),
     "pentagon", "se-nofb", "block2", 200, 11, {}),
    ("diag-se-fb", run_estimation,
     lambda: diagonal_plant([F(3, 2), F(5, 4)], disturbance=F(1, 10)),
     "nl4", "se-fb", "identity", 200, 9, {}),
    ("stab-fb", run_stabilization,
     lambda: scalar_plant(F(3, 2), b=F(-2, 3), disturbance=F(1, 10)),
     "nl2", "stab-fb", "identity", 300, 3, {}),
    ("weak-boundary", run_weak_detection, lambda: scalar_plant(2),
     "nl2", "weak", "identity", 60, 1, {}),
    ("bsc-diverges", run_estimation, lambda: scalar_plant(F(3, 2), disturbance=F(1, 10)),
     "bsc14", "se-nofb", "identity", 10_000, 0, {}),
    ("negative-x0", run_estimation, lambda: scalar_plant(F(3, 2), disturbance=F(1, 10)),
     "nl2", "se-nofb", "identity", 200, 4,
     {"x0": (F(-7, 9),), "initial_radius": F(5, 4)}),
    ("radius-zero", run_estimation, lambda: scalar_plant(F(3, 2), disturbance=F(1, 10)),
     "nl2", "se-nofb", "identity", 100, 5, {"initial_radius": F(0)}),
    ("odd-denominator", run_estimation,
     lambda: diagonal_plant([F(3, 2), F(5, 4)], disturbance=F(1, 10)),
     "nl4", "se-fb", "identity", 200, 13,
     {"x0": (F(-7, 9), F(2, 15)), "initial_radius": F(5, 3)}),
    ("pentagon-diag", run_estimation,
     lambda: diagonal_plant([F(5, 4), F(6, 5)], disturbance=F(1, 10)),
     "pentagon", "se-nofb", "block2", 200, 17, {}),
    ("pentagon-mixed-cells", run_estimation,
     lambda: diagonal_plant([F(3, 5), F(6, 5)], disturbance=F(1, 10)),
     "pentagon", "se-nofb", "block2", 200, 23, {}),
    ("pentagon-stab", run_stabilization,
     lambda: scalar_plant(2, b=F(3, 7), disturbance=F(1, 10)),
     "pentagon", "stab-fb", "block2", 200, 19, {}),
    # denominators with odd primes other than 5: 3 cells, a = 7/3, D = 2/21,
    # x0 = 4/11 and modes over 9
    ("noiseless3-est", run_estimation,
     lambda: scalar_plant(F(7, 3), disturbance=F(2, 21)),
     "nl3", "se-nofb", "identity", 300, 29, {"x0": (F(4, 11),)}),
    ("noiseless3-stab", run_stabilization,
     lambda: scalar_plant(F(7, 3), b=F(3, 7), disturbance=F(2, 21)),
     "nl3", "stab-fb", "identity", 300, 31, {"x0": (F(4, 11),), "initial_radius": F(6, 7)}),
    ("diag-q9", run_estimation,
     lambda: diagonal_plant([F(7, 3), F(10, 9)], disturbance=F(2, 21)),
     "nl9", "se-fb", "identity", 200, 37, {"x0": (F(4, 11), F(-5, 13))}),
    ("weak-q9", run_weak_detection, lambda: scalar_plant(F(25, 9)),
     "nl3", "weak", "identity", 120, 41, {"x0": (F(4, 11),), "initial_radius": F(9, 7)}),
    ("bsc13-diverges", run_estimation,
     lambda: scalar_plant(F(16, 9), disturbance=F(2, 21)),
     "bsc13", "se-nofb", "identity", 3000, 43, {"x0": (F(4, 11),)}),
    # start states whose denominators share primes with zeta_den = 2**32 D_den,
    # or exceed its power of two, and a weak run with zeta_den = 1: L's first
    # plant step takes only the factors of zeta_den that L does not yet hold
    ("x0-past-zeta-twos", run_estimation,
     lambda: scalar_plant(F(3, 2), disturbance=F(1, 10)),
     "nl2", "se-nofb", "identity", 200, 5, {"x0": (F(3, 2 ** 40),)}),
    ("odd-start-est", run_estimation, lambda: scalar_plant(F(3, 2), disturbance=F(3, 14)),
     "nl2", "se-nofb", "identity", 200, 5, {"x0": (F(5, 21),), "initial_radius": F(7, 6)}),
    ("odd-start-stab", run_stabilization,
     lambda: scalar_plant(F(3, 2), b=F(-2, 3), disturbance=F(3, 14)),
     "nl2", "stab-fb", "identity", 200, 5, {"x0": (F(5, 21),), "initial_radius": F(7, 6)}),
    ("weak-x0-sevenths", run_weak_detection, lambda: scalar_plant(F(3, 2)),
     "nl2", "weak", "identity", 200, 5, {"x0": (F(2, 7),)}),
    # two modes over a code that is not zero-error: it diverges at t = 37, and
    # 14 of its 18 mis-decoded epochs get one mode's cell right, the other's wrong
    ("pentagon-identity-diag", run_estimation,
     lambda: diagonal_plant([F(5, 4), F(6, 5)], disturbance=F(1, 10)),
     "pentagon", "se-nofb", "identity", 300, 2, {}),
    # q = 1 over the block-2 witness, long enough for radius rows of 1700 bits
    ("pentagon-block2-long", run_estimation, lambda: scalar_plant(2, disturbance=F(1, 10)),
     "pentagon", "se-nofb", "block2", 1500, 7, {}),
]

# the channels of PINNED_RUNS that are not fixtures
PINNED_CHANNELS = {"nl3": noiseless(3), "nl4": noiseless(4), "nl9": noiseless(9),
                   "bsc13": binary_symmetric(F(1, 3))}

# sha256 of each run's CSV and summary, the bytes the reference Fraction loop
# first made; a change to the loop's arithmetic must leave every one of them
# as it is
PINNED_DIGESTS = {
    "noiseless2-est": "8d8674eb50c2456e4618e4822cd617ca89a75f9055861ab1cd4470a7de1e3886",
    "pentagon-block2": "acd10c460207735e7e48488752d51c32ae223cfc1ed2a4f7cce16fc5105cc112",
    "diag-se-fb": "ef6869fe0d7ed5e92288a4897505499bfdfb5737b658606ad3aef3167186dd40",
    "stab-fb": "fdccaa8f90a14f88b4e01689a55ffd4a46ad90a4998a8e390db50712ec45845d",
    "weak-boundary": "0e9fd582c644d752b5451481dcc97261064200fc32d3d6238e629175a09e1fbc",
    "bsc-diverges": "ea5759b173fe385599c851fb4a47dbb6b9fb084fed248a25c1234a358cc15980",
    "negative-x0": "4ae845e953e86fbfa1aeeb47ae350b056a4008c117528b6bbadad102c5827641",
    "radius-zero": "43b516d0709dcbde24f5647888044f341bb4c76c7e150efe29a31a21b28f9eae",
    "odd-denominator": "6395fec818b7f83b0a9b535dcb85c474c20594b4b3602f0d7b32e1a00fdbdb92",
    "pentagon-diag": "a9c118cc9b75ff660cf2597e3314161c64d25d466cdc7c243e3650fe9d7e0077",
    "pentagon-mixed-cells": "0228e50017d7df70343da278bf9da43607824e7b1f1350a3a90b91648d98a9df",
    "pentagon-stab": "5a004ac11d334ddf31975ea04b31e84f100f85c38d277660ec0c7be8e6274903",
    "noiseless3-est": "62a1ccd78f68127b1ad52cd82956eafbb106db4e0c7c3b83eb69f31322fe43cc",
    "noiseless3-stab": "4204e6673f2eb72b8c1e480283ed7a03afa2ade208bb59bf4f5af5bfefeeafe1",
    "diag-q9": "f5140d08437f821f19f3c793f8cf328f86f63f54dc76809e3e39515b2488fa65",
    "weak-q9": "399846f8c271740538c16763de5c75077cdd3cf99ca6207d22262d5e96aa4374",
    "bsc13-diverges": "da957926a7b9054c6191aea0bdba8d5fddaf366076a5e88ebc56c07a5f72816f",
    "x0-past-zeta-twos": "344e839f7effe6a2d85bf850ecb4f5f9729ec56026170aae801036a55f2ed73d",
    "odd-start-est": "2f57932dfc0200095f18895897bdde52ebf904bfba08e07818bb1289023daeda",
    "odd-start-stab": "65f9d8bb4f2929881dc0aff9f432b06600b8f6b431d8461f9b3a2fcd7a7f01ed",
    "weak-x0-sevenths": "cd6570c5aa217e733cacf958e670a9032017e08712074456f364d3962a6b8887",
    "pentagon-identity-diag": "22a27c25d7cda7c9252965341ae68d16e11b7f898047a5e7e7af8a5eddb9e08d",
    "pentagon-block2-long": "486d80467ec5b3efdef7c89587a993e7aa6b6628b7ac626ac5f9407eac85c04c",
}


def _pinned_trajectory(request, run):
    name, runner, plant, channel, regime, code, horizon, seed, extra = run
    ch = PINNED_CHANNELS.get(channel) or request.getfixturevalue(channel)
    code = pentagon_block2_code(ch) if code == "block2" else identity_code(ch)
    cfg = SimConfig(plant(), ch, Regime(regime), code, horizon=horizon, seed=seed,
                    **extra)
    return name, runner(cfg)


@pytest.mark.parametrize("run", PINNED_RUNS, ids=[r[0] for r in PINNED_RUNS])
def test_trajectory_bytes_are_pinned(request, run):
    name, traj = _pinned_trajectory(request, run)
    assert _trajectory_digest(traj) == PINNED_DIGESTS[name]


# sha256 of each pinned run's CSV alone, computed when the CSV was built as
# one string; the streamed lines must join to the same bytes
PINNED_CSV_DIGESTS = {
    "noiseless2-est": "43d3e8db435f193e99dcc47d6427188dd5635e2cdd0dd0304ae119d0545ddda7",
    "pentagon-block2": "7085194746d88432323196fd5f1522443778cc37ea112bc4c32e30c2b3b75f0d",
    "diag-se-fb": "29a476443b1de5cbed4e43b71978ed21e6a549821e241398fdb7da5f1efbe4b9",
    "stab-fb": "4684c2c6f1ca54345a16ebaded83bfa24dff12403df14a003585d97787913e79",
    "weak-boundary": "1837933db6e461284996ca0ee6d27863c9931c4bceb86b890ddb4ba1d630be7e",
    "bsc-diverges": "acaeab6e44a0d38e5611d1282ee429ca17df41826fa21860cac9dd7072f96bb5",
    "negative-x0": "28d17c62e0764759fda5b775483f605398f25c73a2059cf39ddac126a1ae93f9",
    "radius-zero": "444728f9b7e4c08fe2a00025f3ead33bfe4cff0fd1565ded1f088b41ba52e264",
    "odd-denominator": "22ea037d38f80267fcc2840f4ea00e76ab920b5220f30fc7f240611ebdd9ca99",
    "pentagon-diag": "9b3b7fa5d86f8a52bca91facae7849e6e70e276d8df5b4fce3b2dc3a5bfada11",
    "pentagon-mixed-cells": "6afafd8ca1e2046154864edfe46951dbd205cc4e7cb201da5d931bac5ef4c99a",
    "pentagon-stab": "ba49532454febe2658d9b3349c2ce344a964f75d2eb01461ab50459c203e78cf",
    "noiseless3-est": "b937772fa719447a8854af9dc9579878264bb69c82b104f19f05b84e480a6f7a",
    "noiseless3-stab": "c49512ac3d026da652522ba08b3c78742a69b6b600dd2fe9081db9882aaea2af",
    "diag-q9": "9619bd5a348fa73d87feb1fbeac126dec4b2d67faf0a5394378fe05c2b74a49f",
    "weak-q9": "c1c1e4a5e8a63eb1f460382476ac61556fca30cd07d8765274d04171dec2a5cd",
    "bsc13-diverges": "617a4e779d26505899dab6150fa292dac745a8468bd6543ed762293624e8ef22",
    "x0-past-zeta-twos": "4f0d63507d74a5ee158d70f4e653edf7394b84b9d712c469afa8016891b0bcf1",
    "odd-start-est": "f09e29b2bd38b84828f3021fa6bdb769cdf612944b4654ef2490a8f17fdb379e",
    "odd-start-stab": "4d49dd95c097c8dc96219aef9a02af41cd3e130d3126f1f2ffafd210e8352aea",
    "weak-x0-sevenths": "b9f7c0ec5c90ad3e44c56a3273dd67e2e4e952d4d3780f2b0dbb20a8e2a32144",
    "pentagon-identity-diag": "879d962b7b6aca7d684c9f747478040e674836ff3b069ca6dc079dcb687abbf8",
    "pentagon-block2-long": "2429d6ef3b11d7b43850355bf050d6e460e6ad8341aafec22b6b88f008a850b0",
}


@pytest.mark.parametrize("run", PINNED_RUNS, ids=[r[0] for r in PINNED_RUNS])
def test_streamed_csv_lines_are_pinned(request, run):
    name, traj = _pinned_trajectory(request, run)
    lines = list(traj.csv_lines())
    assert len(lines) == len(traj.times) + 1
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == PINNED_CSV_DIGESTS[name]


PENTAGON_CODE = pentagon_block2_code(typewriter(5))
BSC14 = binary_symmetric(F(1, 4))


@st.composite
def zero_error_runs(draw):
    """A loop over a zero-error code whose every mode contracts strictly."""
    kind = draw(st.sampled_from(["estimation", "stabilization", "weak"]))
    if draw(st.booleans()):
        # pentagon block-2 witness: 5 messages per 2 uses, so a^2 < 5
        dim, channel, code, top = 1, typewriter(5), PENTAGON_CODE, 2
    else:
        dim, base = draw(st.integers(1, 2)), draw(st.integers(2, 3))
        channel = noiseless(base ** dim)
        code, top = identity_code(channel), base
    modes = [F(draw(st.integers(0, 8 * top - 1)), 8) for _ in range(dim)]
    gains = [draw(st.sampled_from([F(1), F(-2, 3), F(5)])) for _ in range(dim)]
    bound = F(0) if kind == "weak" else draw(st.sampled_from([F(0), F(1, 10)]))
    eye = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    plant = Plant(as_matrix([[modes[i] * eye[i][j] for j in range(dim)] for i in range(dim)]),
                  c=as_matrix(eye),
                  b=as_matrix([[gains[i] * eye[i][j] for j in range(dim)]
                               for i in range(dim)]),
                  disturbance_bound=bound)
    radius = draw(st.sampled_from([F(0), F(1, 3), F(1), F(5, 2)]))
    x0 = tuple(radius * F(draw(st.integers(-64, 64)), 64) for _ in range(dim))
    regime = {"estimation": draw(st.sampled_from(["se-nofb", "se-fb"])),
              "stabilization": "stab-fb", "weak": "weak"}[kind]
    cfg = SimConfig(plant, channel, Regime(regime), code,
                    horizon=draw(st.integers(0, 80)), seed=draw(st.integers(0, 2 ** 30)),
                    initial_radius=radius, x0=x0)
    return {"estimation": run_estimation, "stabilization": run_stabilization,
            "weak": run_weak_detection}[kind], cfg


@settings(max_examples=80, deadline=None)
@given(zero_error_runs())
def test_zero_error_loop_invariants(run):
    runner, cfg = run
    traj = runner(cfg)
    assert verify_recursion(traj, cfg)
    assert all(e <= r for e, r in zip(traj.error, reference_radius(traj, cfg)))
    assert traj.summary["bounded"] is True
    assert traj.summary["zero_error_transcript"] is True


def _spy_on_gcds(monkeypatch) -> list:
    """The bit length of the smaller operand of every gcd called from now
    on, the loop's own and the ones inside Fraction."""
    import certcap.simulate as sim

    widest = []

    def spy(real):
        def gcd(*args):
            widest.append(min(abs(a).bit_length() for a in args))
            return real(*args)
        return gcd

    monkeypatch.setattr(math, "gcd", spy(math.gcd))
    monkeypatch.setattr(sim, "gcd", spy(sim.gcd))
    return widest


def test_row_gcds_have_a_word_sized_operand(monkeypatch, nl2):
    """Reducing a row costs no gcd on two numbers as large as the shared
    denominator, which gains a bit per step: in these noiseless(2) runs every
    gcd the loops call has an operand of at most 64 bits (over the pentagon
    too; see below)."""
    widest = _spy_on_gcds(monkeypatch)
    for runner, plant, regime in [
            (run_estimation, scalar_plant(F(3, 2), disturbance=F(1, 10)), "se-nofb"),
            (run_stabilization, scalar_plant(F(3, 2), b=1, disturbance=F(1, 10)), "stab-fb"),
            (run_weak_detection, scalar_plant(F(3, 2)), "weak")]:
        runner(SimConfig(plant, nl2, Regime(regime), identity_code(nl2),
                         horizon=1_000, seed=7))
    assert widest and max(widest) <= 64


@pytest.mark.parametrize("runner, plant, regime", [
    (run_estimation, scalar_plant(2, disturbance=F(1, 10)), "se-nofb"),
    (run_estimation, diagonal_plant([F(5, 4), F(6, 5)], disturbance=F(1, 10)), "se-nofb"),
    (run_stabilization, scalar_plant(2, b=F(3, 7), disturbance=F(1, 10)), "stab-fb")],
    ids=["a2-se-nofb", "diag-se-nofb", "a2-stab-fb"])
def test_block2_row_gcds_rarely_take_both_operands_large(monkeypatch, runner, plant, regime):
    """Over the pentagon's block-2 code L gains factors 5 from the cells, the
    mode denominators and 2**32 D_den, and a row that shares a power of 5 with
    L may fail the test with the base.  Such a row strips base's primes by
    gcds with the base, never by a gcd with L's whole odd part, so no gcd of
    the loop takes two large operands."""
    pentagon = typewriter(5)
    code = witness_code(pentagon, [(x, 2 * x % 5) for x in range(5)])
    widest = _spy_on_gcds(monkeypatch)
    runner(SimConfig(plant, pentagon, Regime(regime), code, horizon=1_000, seed=7))
    assert widest and max(widest) <= 64


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-2 ** 70, 2 ** 70),
                 st.integers(-2 ** 3100, 2 ** 3100),
                 st.builds(lambda a, k: a << k, st.integers(-2 ** 40, 2 ** 40),
                           st.integers(0, 3100))),
       st.one_of(st.integers(0, 2 ** 20).map(lambda m: 2 * m + 1),
                 st.integers(0, 2 ** 3000).map(lambda m: 2 * m + 1)),
       st.integers(0, 3000))
def test_lowest_terms_is_the_normalised_fraction(n, odd, k):
    den = odd << k
    got, want = _lowest_terms(n, _dyadic_split(den)), F(n, den)
    assert got == want
    assert (repr(got), str(got), hash(got)) == (repr(want), str(want), hash(want))
    assert got.denominator > 0
    assert math.gcd(got.numerator, got.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=4), st.integers(0, 200),
       st.sampled_from([-1, 1]), st.one_of(st.integers(0, 3), st.integers(0, 2 ** 100)),
       st.data())
def test_lowest_terms_with_a_small_base(bases, k, sign, cofactor, data):
    """den = 2**k times powers of small bases, each of whose primes divides
    base; n shares any power of them, or none, and may be 0 or negative."""
    def powers():
        return math.prod(b ** data.draw(st.one_of(st.integers(0, 2), st.integers(0, 300)))
                         for b in bases)
    den = powers() << k
    n = sign * powers() * cofactor
    base = _dyadic_split(math.prod(bases))[2]
    got, want = _lowest_terms(n, _dyadic_split(den, base)), F(n, den)
    assert got == want
    assert (repr(got), str(got), hash(got)) == (repr(want), str(want), hash(want))
    assert got.denominator > 0
    assert math.gcd(got.numerator, got.denominator) == 1


def test_error_at_the_threshold_does_not_stop_the_run(monkeypatch, nl2):
    """A run stops only once its error exceeds DIVERGENCE_THRESHOLD."""
    import certcap.simulate as sim

    def run(x0, limit=F(1000)):
        # cell [0, 4T) of the box [-4T, 4T) for T = limit: error |x0 - 2T| at
        # t = 0, then |x0 - 3T|, since a = 1 and the box halves onto [2T, 4T)
        return run_weak_detection(SimConfig(
            scalar_plant(1), nl2, Regime("weak"), identity_code(nl2), horizon=5,
            seed=0, initial_radius=4 * limit, x0=(x0,)))

    at = run(F(3000))
    assert at.error[:2] == (F(1000), F(0)) == (sim.DIVERGENCE_THRESHOLD, 0)
    assert at.summary["diverged_at"] is None and at.times == (0, 1, 2, 3, 4)
    above = run(F(3001))
    assert above.summary["diverged_at"] == 0 and above.times == (0,)
    # the loop reads the constant, not a literal 1000
    monkeypatch.setattr(sim, "DIVERGENCE_THRESHOLD", F(999))
    assert run(F(3000)).summary["diverged_at"] == 0
    monkeypatch.setattr(sim, "DIVERGENCE_THRESHOLD", F(1001))
    assert run(F(3001)).summary["diverged_at"] is None
    # thresholds of other bit sizes, and below 1: a bit-size shortcut that
    # still assumes 1000 lets the errors just above them through
    for limit in (F(512), F(3, 2), F(1, 3)):
        monkeypatch.setattr(sim, "DIVERGENCE_THRESHOLD", limit)
        at = run(3 * limit, limit)
        assert at.error[:2] == (limit, 0) and at.summary["diverged_at"] is None
        above = run(3 * limit + F(1, 1000), limit)
        assert above.error == (limit + F(1, 1000),) and above.summary["diverged_at"] == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F(9, 8), F(5, 4), F(3, 2), F(15, 8)]), st.integers(0, 2 ** 30))
def test_a_run_diverges_at_its_first_error_above_the_threshold(a, seed):
    """diverged_at is the first t whose recorded error exceeds
    DIVERGENCE_THRESHOLD, and the run ends there."""
    import certcap.simulate as sim

    traj = run_estimation(SimConfig(scalar_plant(a, disturbance=F(1, 10)), BSC14,
                                    Regime("se-nofb"), identity_code(BSC14),
                                    horizon=400, seed=seed))
    first = next((t for t, e in zip(traj.times, traj.error)
                  if e > sim.DIVERGENCE_THRESHOLD), None)
    assert traj.summary["diverged_at"] == first
    assert len(traj.times) == (400 if first is None else first + 1)


@settings(max_examples=60, deadline=None)
@given(st.one_of(zero_error_runs(),
                 st.builds(lambda a, seed: (run_estimation, SimConfig(
                     scalar_plant(a, disturbance=F(1, 10)), BSC14, Regime("se-nofb"),
                     identity_code(BSC14), horizon=400, seed=seed)),
                           st.sampled_from([F(9, 8), F(5, 4), F(3, 2)]),
                           st.integers(0, 2 ** 30))))
def test_summary_max_error_is_the_largest_error(run):
    """max_error skips comparisons by bit length; it must still be the max."""
    runner, cfg = run
    traj = runner(cfg)
    assert F(traj.summary["max_error"]) == max(traj.error, default=F(0))


@pytest.mark.parametrize("a, radius, x0", [(F(3, 2), F(3), F(3, 8)),
                                           (F(7, 3), F(1), F(-1, 64)),
                                           (F(2), F(5, 3), F(-215, 192))])
def test_max_error_reached_after_the_denominator_gains_a_three(a, radius, x0):
    """In these runs a later error beats the earlier maximum by less than its
    bit-length estimate, since L gained a factor 3 in between; a bit-length
    test one bit too eager keeps the earlier maximum."""
    nl3 = noiseless(3)
    traj = run_weak_detection(SimConfig(scalar_plant(a), nl3, Regime("weak"),
                                        identity_code(nl3), horizon=30, seed=0,
                                        initial_radius=radius, x0=(x0,)))
    peak = max(traj.error)
    assert traj.error.index(peak) > 0
    assert F(traj.summary["max_error"]) == peak
