"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Tolerances are pinned here, not configurable; derived constants come from
brute-force or high-precision oracles computed inside the tests.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import mpmath

from certcap.capacity import feedback_zero_error_capacity
from certcap.channel import certify_support
from certcap.classify import (CapacityBoundsTask, IndependentSetCertificate,
                              PsiCertificate, Regime, classify, revalidate)
from certcap.cli import main as cli_main
from certcap.confgraph import CapacityLadder, extend_ladder, strong_power
from certcap.graph import confusability_graph
from certcap.linalg import as_matrix, mat_mul
from certcap.plant import instability_exponent
from certcap.simulate import SimConfig, identity_code, run_estimation
from conftest import diagonal_plant, intersects, scalar_plant, verify_recursion

F = Fraction
mpmath.mp.dps = 50


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_pentagon_ladder(pentagon):
    with criterion(1, "pentagon ladder: alpha values exact, rate enclosed, < 5 s"):
        start = time.monotonic()
        cert = certify_support(pentagon, 0)
        g = confusability_graph(cert, pentagon.inputs, 5)
        ladder = extend_ladder(CapacityLadder(), g, 1)
        ladder = extend_ladder(ladder, g, 2)
        assert ladder.rungs[0].alpha == 2
        assert ladder.rungs[1].alpha == 5

        # independent brute-force oracle over the 25-vertex strong square
        square = strong_power(g, 2)
        assert not any(square.is_independent(c) for c in combinations(range(25), 6))
        assert any(square.is_independent(c) for c in combinations(range(25), 5))

        best = ladder.running_best
        assert F(11609, 10000) <= best.lo and best.hi <= F(11610, 10000)
        assert time.monotonic() - start < 5.0


def test_criterion_2_feedback_capacity(pentagon, bsc14):
    with criterion(2, "feedback zero-error capacity: exact 5/2 and exact 0 cases"):
        fb = feedback_zero_error_capacity(pentagon, F(1, 2 ** 20))
        assert 1 / fb.mass == F(5, 2)
        assert fb.upper.width <= F(1, 2 ** 20)
        assert fb.upper.lo <= F(13219281, 10 ** 7) <= fb.upper.hi
        zero = feedback_zero_error_capacity(bsc14)
        assert zero.solution is None
        assert zero.upper.lo == zero.upper.hi == 0


def test_criterion_3_shannon_capacity(bsc110):
    with criterion(3, "certified capacity bracket for BSC(1/10), gap <= 1e-6, < 10 s"):
        start = time.monotonic()
        task = CapacityBoundsTask(bsc110)
        lows = []
        while task.upper is None or task.upper.hi - task.lower.lo > F(1, 10 ** 6):
            task.step()
            lows.append(task.lower.lo)
        assert lows == sorted(lows)  # lower bounds monotone over iterations
        p = mpmath.mpf(1) / 10
        value = 1 - (-p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2))
        assert float(task.lower.lo) <= value <= float(task.upper.hi)
        assert task.upper.hi - task.lower.lo <= F(1, 10 ** 6)
        assert time.monotonic() - start < 10.0


def test_criterion_4_eta_certification():
    with criterion(4, "exponent enclosures exact on rational spectra, orthogonal-invariant"):
        enc = instability_exponent(as_matrix([[2, 0], [0, F(1, 2)]]), F(1, 2 ** 30))
        assert enc.width <= F(1, 2 ** 30)
        assert enc.lo <= 1 <= enc.hi
        enc = instability_exponent(as_matrix([[0, 2], [-2, 0]]), F(1, 2 ** 30))
        assert enc.lo <= 2 <= enc.hi

        rng = random.Random(73)
        a = as_matrix([[2, 1], [0, F(1, 2)]])
        for width in (F(1, 2 ** 10), F(1, 2 ** 16)):
            base = instability_exponent(a, width)
            for _ in range(100):
                t = F(rng.randint(-9, 9), rng.randint(1, 9))
                d = 1 + t * t
                c, s = (1 - t * t) / d, 2 * t / d
                rot = as_matrix([[c, -s], [s, c]])
                rot_t = as_matrix(tuple(zip(*rot)))
                conj = mat_mul(mat_mul(rot, a), rot_t)
                assert intersects(instability_exponent(conj, width), base)


def test_criterion_5_decider_halting_table(pentagon, bsc14):
    with criterion(5, "worked classifications reproduce with valid certificates"):
        budgets = (100, 1_000, 100_000)
        cases = [
            (diagonal_plant([3], disturbance=F(1, 10)), pentagon, "se-fb",
             "Unsolvable", PsiCertificate),
            (diagonal_plant([2], disturbance=F(1, 10)), pentagon, "se-nofb",
             "Solvable", IndependentSetCertificate),
            (diagonal_plant([2], disturbance=F(1, 10)), bsc14, "se-fb",
             "Unsolvable", PsiCertificate),
            (scalar_plant(2), pentagon, "weak", "Solvable", None),
        ]
        for plant, ch, kind, expected, cert_type in cases:
            verdict = classify(plant, ch, Regime(kind), 100_000)
            assert verdict.outcome == expected
            if cert_type is not None:
                assert isinstance(verdict.certificate, cert_type)
            assert revalidate(verdict, ch)
            outcomes = [classify(plant, ch, Regime(kind), b).outcome for b in budgets]
            for earlier, later in zip(outcomes, outcomes[1:]):
                assert earlier in (later, "Undetermined")
            assert outcomes[-1] == expected


def test_criterion_6_one_sidedness(pentagon, bsc14, nl2, hover_channel,
                                   pentagon_stream):
    with criterion(6, "semi-decidability asymmetry: only the permitted directions fire"):
        # the hovering entry keeps the solvable direction silent at any budget
        solvable_plant = diagonal_plant([F(3, 2)], disturbance=F(1, 10))
        for budget in (10, 100, 500):
            verdict = classify(solvable_plant, hover_channel, Regime("se-fb"), budget)
            assert verdict.outcome == "Undetermined"
        # while the unsolvable direction can still fire on the same channel
        verdict = classify(diagonal_plant([3], disturbance=F(1, 10)),
                           hover_channel, Regime("se-fb"), 500)
        assert verdict.outcome == "Unsolvable"
        assert revalidate(verdict, hover_channel)
        # no-feedback estimation never reports Unsolvable on any corpus input
        plants = [diagonal_plant([v], disturbance=F(1, 10))
                  for v in (F(3, 2), 2, 3)]
        for ch in (pentagon, bsc14, nl2, hover_channel, pentagon_stream):
            for plant in plants:
                verdict = classify(plant, ch, Regime("se-nofb"), 200)
                assert verdict.outcome != "Unsolvable"


def test_criterion_7_simulator_thresholds(nl2, bsc14):
    with criterion(7, "tracking below threshold is bounded; noisy runs diverge"):
        plant = scalar_plant(F(3, 2), disturbance=F(1, 10))
        cfg = SimConfig(plant, nl2, Regime("se-nofb"), identity_code(nl2),
                        horizon=10_000, seed=7)
        traj = run_estimation(cfg)
        analytic = F(traj.summary["analytic_bound"])
        assert max(traj.error) <= analytic          # exact rational comparison
        assert verify_recursion(traj, cfg)           # zero tolerance on the recursion
        assert traj.summary["zero_error_transcript"] is True

        diverged = 0
        for seed in range(100):
            cfg = SimConfig(plant, bsc14, Regime("se-nofb"), identity_code(bsc14),
                            horizon=10_000, seed=seed)
            smoke = run_estimation(cfg)
            if smoke.summary["diverged_at"] is not None:
                diverged += 1
        assert diverged >= 95


GOLDEN = [
    ("analyze", "--plant", "plant_diag3.json", "--channel", "pentagon.json",
     "--regime", "se-fb", "--budget", "10000"),
    ("analyze", "--plant", "plant_diag2.json", "--channel", "pentagon.json",
     "--regime", "se-nofb", "--budget", "10000"),
    ("analyze", "--plant", "plant_weak2.json", "--channel", "pentagon.json",
     "--regime", "weak", "--budget", "10000"),
    ("analyze", "--plant", "plant_diag2.json", "--channel", "bsc_1_4.json",
     "--regime", "se-fb", "--budget", "10000"),
    ("analyze", "--plant", "plant_diag3.json", "--channel", "stream_hover.json",
     "--regime", "se-fb", "--budget", "300"),
    ("capacity", "--channel", "pentagon.json", "--tolerance", "1/10000"),
    ("zero-error", "--channel", "pentagon.json"),
    ("fb-capacity", "--channel", "pentagon.json"),
    ("fb-capacity", "--channel", "bsc_1_4.json"),
    ("eta", "--plant", "plant_diag2.json"),
    ("simulate", "--plant", "plant_3_2.json", "--channel", "noiseless2.json",
     "--regime", "se-nofb", "--horizon", "400", "--seed", "2"),
    ("simulate", "--plant", "plant_weak_3_2.json", "--channel", "noiseless2.json",
     "--regime", "weak", "--horizon", "60", "--seed", "1"),
]


def test_criterion_8_cli_determinism(capsys, data_dir):
    with criterion(8, "every CLI command byte-identical across two runs"):
        for argv in GOLDEN:
            argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
            code1 = cli_main(argv)
            out1 = capsys.readouterr().out
            code2 = cli_main(argv)
            out2 = capsys.readouterr().out
            assert code1 == code2
            assert out1 == out2
            json.loads(out1)  # every report is valid JSON
