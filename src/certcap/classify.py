"""Budgeted semi-decision engine for estimation/stabilization solvability.

Each regime (plant.Regime, which also validates the plant-side hypotheses)
compares the instability exponent with one capacity: C0 for se-nofb, C0fb
for se-fb and stab-fb, Shannon's C for weak.  An exponent task and that
regime's capacity task refine anytime, interleaved fairly by a deterministic
dovetailer.  Every capacity task has the same interface: ``lower`` bounds
the capacity from below and drives Solvable, ``upper`` from above and drives
Unsolvable, each None while there is none (``upper`` always on the ladder
task); ``ties_are_final`` marks bounds on one exact value, never separable
from an equal exact exponent; ``certificate(outcome, eta)`` builds the proof
of the outcome that fired from the task's own state, certifying no support
again.  A verdict is emitted only with a machine-checkable certificate that
check.py re-validates from raw rationals; anything that cannot fire within
the budget is reported as Undetermined with a progress report, never guessed.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .capacity import DEFAULT_C0FB_WIDTH, ShannonBounds, minimax_ladder_step
from .channel import Channel, ResourceCapError
from .check import (SOLVABLE, UNDETERMINED, UNSOLVABLE, BudgetReport,
                    IndependentSetCertificate, PsiCertificate, SeparationCertificate,
                    Verdict, revalidate)
from .confgraph import CapacityLadder, certified_graph, extend_ladder
from .enclosure import DomainError, Enclosure, log2_enclosure, rational_str, width_bits
from .linalg import Matrix
from .plant import InstabilityExponent, Plant, RefinableLog2, Regime, RegimePreconditionError


class InternalInvariantViolation(RuntimeError):
    """A halting predicate un-fired under refinement."""


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


class FeedbackCapacityTask(_NarrowingTask):
    """Climbs the channel's declared levels, then narrows log2(1/mass).

    Each climbing step is one ``minimax_ladder_step`` at the next declared
    level (intervals change only there, so the levels between would repeat
    the last rung); the LP is solved only where the support sets change.
    After the last level each step keeps the rung and re-encloses log2(1/mass)
    sixteen times narrower, from digits a RefinableLog2 keeps.  Only an exact
    channel's level-0 support is its true support, so only there is the bound
    also a lower one whose ties are final; a stream's bound is an upper one.
    """

    name = "fb-capacity"

    def __init__(self, ch: Channel):
        self.channel = ch
        self.ties_are_final = ch.is_exact
        self.levels = ch.declared_levels()[::-1]  # the levels left to climb, last first
        self.width = Fraction(1, 1 << 10) if ch.is_exact else DEFAULT_C0FB_WIDTH
        self.rung = None
        self.log2 = RefinableLog2(width_bits(_WIDTH_FLOOR))  # no request passes the floor

    @property
    def enclosure(self) -> Enclosure | None:
        return self.rung.upper if self.rung else None

    upper = enclosure

    @property
    def lower(self) -> Enclosure | None:
        return self.enclosure if self.ties_are_final else None

    def exhausted(self) -> bool:
        # a last rung of mass 0 has no bound to narrow
        return not self.levels and (self.enclosure is None or super().exhausted())

    def step(self) -> None:
        if self.levels:
            self.rung = minimax_ladder_step(self.channel, self.levels.pop(), self.rung,
                                            width=self.width)
        else:
            self.rung = replace(self.rung, upper=self.log2.enclose(1 / self.rung.mass, self.width))
        if not self.levels:
            self.width /= 16

    def certificate(self, outcome: str, eta: Enclosure):
        rung = self.rung
        if outcome == SOLVABLE:  # only an exact channel's rung, whose support is settled
            g = rung.support.graph
            pair = next([i, j] for i in range(len(g)) for j in range(i + 1, len(g))
                        if not g.are_adjacent(i, j))  # the graph of a capacity > 0
            return SeparationCertificate(
                "c0fb", "eta-below-capacity", eta, rung.upper,
                {"inverse_psi": rational_str(1 / rung.mass),
                 "distribution": [rational_str(p) for p in rung.solution.distribution],
                 "nonadjacent_pair": pair})
        weights = rung.solution.output_weights if rung.solution else ()
        return PsiCertificate(rung.mass, rung.level, weights, rung.solution is None,
                              rung.upper, eta.lo)


# the ladder task's search limits: vertices of a strong power, B&B nodes per rung
_LADDER_VERTEX_CAP, _LADDER_NODE_BUDGET = 1024, 20_000


class ZeroErrorLadderTask:
    """Independence-number rungs of ``certified_graph``, which never misses a
    true edge: every witness is a zero-error code, on streams too."""

    name = "ladder"
    upper = None
    ties_are_final = False

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

    def certificate(self, outcome: str, eta: Enclosure):
        best = max(self.ladder.rungs, key=lambda r: r.rate_lo.lo)
        return IndependentSetCertificate(best.n, best.alpha, best.witness, best.rate_lo, eta)


class CapacityBoundsTask:
    """Steps one ShannonBounds at a log width that narrows fourfold to 2**-60."""

    name = "shannon"
    ties_are_final = False

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

    def certificate(self, outcome: str, eta: Enclosure):
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
            return _revalidated(Verdict(UNSOLVABLE, kind, cert, 0, budget), ch)
    return _run_classification(FixedEtaTask(eta), ch, kind, budget)


def _run_classification(eta_task, ch: Channel, kind: str, budget: int) -> Verdict:
    regime, only = _FIXED_PLANT.get(kind, (kind, None))
    cap = {"se-nofb": ZeroErrorLadderTask, "se-fb": FeedbackCapacityTask,
           "stab-fb": FeedbackCapacityTask, "weak": CapacityBoundsTask}[regime](ch)
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
    verdict = Verdict(fired, kind, cap.certificate(fired, eta()), steps, budget)
    return _revalidated(verdict, ch)


def _revalidated(verdict: Verdict, ch: Channel) -> Verdict:
    """A halted verdict, once its certificate re-validates."""
    if not revalidate(verdict, ch):
        raise InternalInvariantViolation("certificate failed re-validation")
    return verdict

