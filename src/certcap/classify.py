"""Budgeted semi-decision engine for estimation/stabilization solvability.

Each regime compares the instability exponent with one capacity: C0 for
se-nofb, C0fb for se-fb and stab-fb, Shannon's C for weak.  An exponent task
and that regime's capacity task refine anytime, interleaved fairly by a
deterministic dovetailer.  Every capacity task has the same interface:
``lower`` bounds the capacity from below and drives Solvable, ``upper``
bounds it from above and drives Unsolvable, each None while the task has no
such bound, and ``certificate(outcome, eta, ch)`` builds the proof of the
outcome that fired.  A verdict is emitted only with a machine-checkable
certificate that check.py re-validates from raw rationals; anything that
cannot fire within the step budget is reported as Undetermined with a
progress report, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .capacity import ShannonBounds, feedback_zero_error_capacity, minimax_ladder_step
from .channel import Channel, ResourceCapError
from .check import (SOLVABLE, UNDETERMINED, UNSOLVABLE, BudgetReport,
                    IndependentSetCertificate, PsiCertificate, SeparationCertificate,
                    Verdict, revalidate)
from .confgraph import CapacityLadder, certified_graph, extend_ladder
from .enclosure import DomainError, Enclosure, log2_enclosure, rational_str
from .linalg import Matrix
from .plant import InstabilityExponent, Plant, is_detectable, is_stabilizable

REGIME_KINDS = ("se-nofb", "se-fb", "stab-fb", "weak")


class RegimePreconditionError(ValueError):
    """A regime prerequisite (detectability, stabilizability, ...) fails."""


class InternalInvariantViolation(RuntimeError):
    """A halting predicate un-fired under refinement."""


@dataclass(frozen=True)
class Regime:
    """Problem flavour: estimation / stabilization, with or without feedback."""

    kind: str

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"unknown regime {self.kind!r}")

    def validate(self, plant: Plant) -> None:
        if self.kind in ("se-nofb", "se-fb", "stab-fb"):
            if plant.disturbance_bound is None or plant.disturbance_bound <= 0:
                raise RegimePreconditionError(
                    f"regime {self.kind} models a disturbed plant: D > 0 required")
        else:
            if plant.disturbance_bound not in (None, 0):
                raise RegimePreconditionError(
                    "regime weak models an undisturbed plant: drop D or set it to 0")
        if plant.c is None:
            raise RegimePreconditionError(f"regime {self.kind} needs a sensor map C")
        if not is_detectable(plant.a, plant.c):
            raise RegimePreconditionError("pair (A, C) is not detectable")
        if self.kind == "stab-fb":
            if plant.b is None:
                raise RegimePreconditionError("regime stab-fb needs an input map B")
            if not is_stabilizable(plant.a, plant.b):
                raise RegimePreconditionError("pair (A, B) is not stabilizable")


# ---------------------------------------------------------------------------
# anytime refinement tasks

_WIDTH_FLOOR = Fraction(1, 1 << 120)


class _NarrowingTask:
    """Encloses one quantity at ``width``, then narrows ``width`` sixteenfold.

    Exhausted once the enclosure is exact or the width has passed the floor.
    """

    def exhausted(self) -> bool:
        enclosure = self.enclosure
        return enclosure is not None and (enclosure.is_exact or self.width < _WIDTH_FLOOR)

    def step(self) -> None:
        self.refine(self.width)
        self.width /= 16

    def progress(self) -> dict:
        return {"width": rational_str(self.width),
                "enclosure": self.enclosure.to_json() if self.enclosure else None}


class EtaTask(_NarrowingTask):
    """Narrows one InstabilityExponent, which splits only the brackets in the way."""

    name = "eta"

    def __init__(self, a: Matrix):
        self.exponent = InstabilityExponent(a)
        self.width = Fraction(1, 16)
        self.enclosure: Enclosure | None = None

    def refine(self, width: Fraction) -> None:
        self.enclosure = self.exponent.enclose(width)


class FixedEtaTask:
    """Wraps an externally supplied exponent enclosure; nothing to refine."""

    name = "eta"

    def __init__(self, enclosure: Enclosure):
        self.enclosure = enclosure
        self._stepped = False

    def exhausted(self) -> bool:
        return self._stepped

    def step(self) -> None:
        self._stepped = True

    def progress(self) -> dict:
        return {"enclosure": self.enclosure.to_json()}


class _CapacityTask:
    """Bounds on a regime's capacity, as the module docstring describes.

    ``ties_are_final`` marks bounds that enclose one exact value, which an
    exact exponent equal to it can never be separated from.
    """

    lower: Enclosure | None = None
    upper: Enclosure | None = None
    ties_are_final = False


class FeedbackCapacityTask(_NarrowingTask, _CapacityTask):
    """Exact channel: one LP solve, then log-enclosure refinement.

    The first step computes the feedback zero-error capacity; later steps
    keep its exact 1/psi, minimax solution and zero-capacity flag and only
    re-enclose log2(1/psi) at the narrower width.
    """

    name = "fb-capacity"
    ties_are_final = True

    def __init__(self, ch: Channel):
        self.channel = ch
        self.width = Fraction(1, 1 << 10)
        self.result = None

    @property
    def enclosure(self) -> Enclosure | None:
        return self.result.enclosure if self.result else None

    lower = upper = enclosure

    def refine(self, width: Fraction) -> None:
        if self.result is None:
            self.result = feedback_zero_error_capacity(self.channel, width)
        else:  # log2 of a zero-capacity result's inverse mass 1 stays exactly 0
            self.result = replace(self.result, enclosure=log2_enclosure(
                self.result.inverse_mass, width))

    def certificate(self, outcome: str, eta: Enclosure, ch: Channel):
        result = self.result
        if outcome == SOLVABLE:
            return SeparationCertificate(
                "c0fb", "eta-below-capacity", eta, result.enclosure,
                {"inverse_psi": rational_str(result.inverse_mass),
                 "distribution": [rational_str(p) for p in result.minimax.distribution],
                 "nonadjacent_pair": list(_nonadjacent_pair(ch))})
        if result.zero_capacity:
            return PsiCertificate(Fraction(1), 0, (), True, result.enclosure, eta.lo)
        return PsiCertificate(result.minimax.value, 0, result.minimax.output_weights,
                              False, result.enclosure, eta.lo)


class MinimaxLadderTask(_CapacityTask):
    """Stream channel: support level climbs, minimax mass rises monotonically.

    Each step certifies the support at the next declared level (intervals
    change only there, so the levels between would repeat the last rung);
    the minimax LP is solved only at levels where the support sets change.
    """

    name = "psi-ladder"

    def __init__(self, ch: Channel):
        self.channel = ch
        levels = ch.declared_levels()
        self.levels, self.max_level = iter(levels), levels[-1]
        self.level = -1
        self.rung = None

    @property
    def upper(self) -> Enclosure | None:
        return self.rung.upper if self.rung else None

    def exhausted(self) -> bool:
        return self.level >= self.max_level

    def step(self) -> None:
        self.level = next(self.levels)
        self.rung = minimax_ladder_step(self.channel, self.level, self.rung)

    def progress(self) -> dict:
        rung = self.rung
        return {"level": self.level, "mass": rational_str(rung.mass) if rung else None,
                "upper": self.upper.to_json() if self.upper else None}

    def certificate(self, outcome: str, eta: Enclosure, ch: Channel):
        rung = self.rung
        return PsiCertificate(rung.mass, rung.level, rung.solution.output_weights,
                              False, rung.upper, eta.lo)


# the ladder task's search limits: vertices of a strong power, B&B nodes per rung
_LADDER_VERTEX_CAP, _LADDER_NODE_BUDGET = 1024, 20_000


class ZeroErrorLadderTask(_CapacityTask):
    """Independence-number rungs of ``certified_graph``, which never misses a
    true edge: every witness is a zero-error code, on streams too."""

    name = "ladder"

    def __init__(self, ch: Channel):
        self.graph = certified_graph(ch)
        self.ladder = CapacityLadder()
        self._capped = False

    @property
    def lower(self) -> Enclosure | None:
        return self.ladder.running_best

    def exhausted(self) -> bool:
        # alpha(G) = 1 means G is complete, and so is every strong power of G
        first = self.ladder.recorded(1)
        return self._capped or (first is not None and first.exact and first.alpha == 1)

    def step(self) -> None:
        try:
            self.ladder = extend_ladder(self.ladder, self.graph, len(self.ladder.rungs) + 1,
                                        node_budget=_LADDER_NODE_BUDGET,
                                        vertex_cap=_LADDER_VERTEX_CAP)
        except ResourceCapError:
            self._capped = True

    def progress(self) -> dict:
        return {"rungs": len(self.ladder.rungs),
                "running_best": self.lower.to_json() if self.lower else None}

    def certificate(self, outcome: str, eta: Enclosure, ch: Channel):
        best = max(self.ladder.rungs, key=lambda r: r.rate_lo.lo)
        return IndependentSetCertificate(best.n, best.alpha, best.witness, best.rate_lo, eta)


class CapacityBoundsTask(_CapacityTask):
    """Steps one ShannonBounds at a log width that narrows fourfold to 2**-60."""

    name = "shannon"

    def __init__(self, ch: Channel):
        if not ch.is_exact:
            raise RegimePreconditionError(
                "weak regime needs exact channel entries for capacity bounds")
        self.bounds = ShannonBounds(ch)
        self.log_width = Fraction(1, 1 << 12)

    lower = property(lambda self: self.bounds.lower)
    upper = property(lambda self: self.bounds.upper)

    def exhausted(self) -> bool:
        return self.bounds.iterations >= 1_000_000

    def step(self) -> None:
        self.bounds.step(self.log_width)
        if self.log_width > Fraction(1, 1 << 60):
            self.log_width /= 4

    def progress(self) -> dict:
        return {"iterations": self.bounds.iterations,
                "lower": self.lower.to_json() if self.lower else None,
                "upper": self.upper.to_json() if self.upper else None}

    def certificate(self, outcome: str, eta: Enclosure, ch: Channel):
        below = outcome == SOLVABLE
        dist, width = self.bounds.lower_from if below else self.bounds.upper_from
        return SeparationCertificate(
            "shannon", "eta-below-capacity" if below else "capacity-below-eta", eta,
            self.lower if below else self.upper,
            {"input_distribution": [rational_str(p) for p in dist],
             "log_width": rational_str(width)})


# ---------------------------------------------------------------------------
# the dovetailer

def _assert_monotone_predicates(previous: dict, current: dict) -> None:
    for name, was_true in previous.items():
        if was_true and not current[name]:
            raise InternalInvariantViolation(
                f"predicate {name!r} fired and then un-fired under refinement")


def dovetail(tasks, predicates, budget: int):
    """Fair round-robin over refinement tasks with monotone halting predicates.

    One task step consumes one budget unit; predicates are evaluated after
    every step and the first (in declaration order) to fire wins.  Returns
    (fired_name, steps_used) or (None, steps_used) when the budget is
    exhausted or every task has run out of refinements.
    """
    history = {name: False for name, _ in predicates}
    steps = 0
    while steps < budget:
        active = [t for t in tasks if not t.exhausted()]
        if not active:
            break
        for task in active:
            if steps >= budget:
                break
            if task.exhausted():
                continue
            task.step()
            steps += 1
            current = {name: bool(check()) for name, check in predicates}
            _assert_monotone_predicates(history, current)
            history = {name: history[name] or current[name] for name in history}
            for name, _ in predicates:
                if current[name]:
                    return name, steps
    return None, steps


# ---------------------------------------------------------------------------
# classification

def classify(plant: Plant, ch: Channel, regime: Regime, budget: int) -> Verdict:
    """Dovetailed classification of (plant, channel) under a regime.

    Halting semantics per regime:
      se-nofb   Solvable on a witnessed zero-error code beating the exponent;
                no Unsolvable direction exists (no sound upper bound on the
                no-feedback zero-error rate is implemented).
      se-fb     Solvable / Unsolvable by separating the exponent from the
                feedback zero-error capacity; on stream channels only the
                Unsolvable direction can ever fire.
      stab-fb   same comparisons as se-fb.
      weak      both directions against the ordinary capacity bracket.
    Exact-equality boundaries come back Undetermined: the underlying
    threshold statements are strict on both sides.
    """
    regime.validate(plant)
    return _run_classification(EtaTask(plant.a), ch, regime.kind, budget)


# a fixed-plant direction runs the tasks of one regime and reports only the
# one outcome the direction can certify
_FIXED_PLANT = {"fixed-plant:capacity-above": ("se-nofb", SOLVABLE),
                "fixed-plant:capacity-below": ("se-fb", UNSOLVABLE)}

_ALPHABET_BOUND_WIDTH = Fraction(1, 1 << 20)


def classify_fixed_plant(eta: Enclosure, ch: Channel, direction: str,
                         budget: int) -> Verdict:
    """Single-sided query for a fixed exponent value against one capacity.

    direction "capacity-above" runs the zero-error ladder and can halt
    Solvable; "capacity-below" runs the feedback-capacity upper bound and
    can halt Unsolvable.  When the exponent provably reaches log2 of the
    smaller alphabet size, no channel on these alphabets can beat it and
    "capacity-above" short-circuits to Unsolvable for every channel.  A
    negative exponent belongs to no plant and raises DomainError.
    """
    kind = f"fixed-plant:{direction}"
    if kind not in _FIXED_PLANT:
        raise ValueError(f"unknown direction {direction!r}")
    if eta.lo < 0:  # a sum of log2 max(1, |lambda|) over the eigenvalues
        raise DomainError(f"the exponent must be >= 0, got {rational_str(eta.lo)}")
    if direction == "capacity-above":
        alphabet = min(len(ch.inputs), len(ch.outputs))
        # exact for powers of two
        bound = log2_enclosure(Fraction(alphabet), _ALPHABET_BOUND_WIDTH)
        if eta.lo >= bound.hi:
            cert = SeparationCertificate(
                "alphabet-bound", "capacity-below-eta", eta, bound,
                {"alphabet": alphabet,
                 "note": "no channel on these alphabets has zero-error rate "
                         "above log2 of the smaller alphabet"})
            return Verdict(UNSOLVABLE, kind, cert, 0, budget)
    return _run_classification(FixedEtaTask(eta), ch, kind, budget)


def _run_classification(eta_task, ch: Channel, kind: str, budget: int) -> Verdict:
    regime, only = _FIXED_PLANT.get(kind, (kind, None))
    feedback = FeedbackCapacityTask if ch.is_exact else MinimaxLadderTask
    cap = {"se-nofb": ZeroErrorLadderTask, "se-fb": feedback, "stab-fb": feedback,
           "weak": CapacityBoundsTask}[regime](ch)
    tasks = [eta_task, cap]

    def eta() -> Enclosure | None:
        return eta_task.enclosure

    predicates = [(SOLVABLE, lambda: eta() is not None and cap.lower is not None
                   and eta().hi < cap.lower.lo),
                  (UNSOLVABLE, lambda: eta() is not None and cap.upper is not None
                   and cap.upper.hi < eta().lo)]
    if cap.ties_are_final:
        # exact equality of exact values: the threshold statements are
        # strict on both sides, so no verdict can ever fire
        predicates.append(("boundary", lambda: eta() is not None and cap.lower is not None
                           and eta().is_exact and cap.lower.is_exact
                           and eta().lo == cap.lower.lo))
    if only is not None:
        predicates = [p for p in predicates if p[0] == only]

    fired, steps = dovetail(tasks, predicates, budget)
    if fired is None or fired == "boundary":
        note = "boundary: exponent equals the capacity exactly" if fired == "boundary" else ""
        progress = {t.name: t.progress() for t in tasks}
        return Verdict(UNDETERMINED, kind, BudgetReport(steps, budget, progress, note),
                       steps, budget)
    verdict = Verdict(fired, kind, cap.certificate(fired, eta(), ch), steps, budget)
    if not revalidate(verdict, ch):
        raise InternalInvariantViolation("certificate failed re-validation")
    return verdict


def _nonadjacent_pair(ch: Channel) -> tuple[int, int]:
    graph = certified_graph(ch)
    n = len(graph)
    for i in range(n):
        for j in range(i + 1, n):
            if not graph.are_adjacent(i, j):
                return i, j
    raise RegimePreconditionError("confusability graph is complete")
