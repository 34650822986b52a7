"""Budgeted semi-decision engine for estimation/stabilization solvability.

Each regime compares the instability exponent with one capacity: C0 for
se-nofb, C0fb for se-fb and stab-fb, Shannon's C for weak.  An exponent task
and that regime's capacity task refine anytime, interleaved fairly by a
deterministic dovetailer.  Every capacity task has the same interface:
``lower`` bounds the capacity from below and drives Solvable, ``upper``
bounds it from above and drives Unsolvable, each None while the task has no
such bound, and ``certificate(outcome, eta, ch)`` builds the proof of the
outcome that fired.  A verdict is emitted only with a machine-checkable
certificate that re-validates from raw rationals; anything that cannot fire
within the step budget is reported as Undetermined with a progress report,
never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .capacity import (ShannonBounds, certified_capacity_bounds,
                       feedback_zero_error_capacity, minimax_ladder_step,
                       verify_minimax_lower_bound)
from .channel import Channel, ResourceCapError, certify_support, support_sets
from .confgraph import (CapacityLadder, certified_graph, confusability_graph,
                        extend_ladder, witness_json)
from .enclosure import (DomainError, Enclosure, exact_log2, log2_enclosure,
                        parse_rational, rational_str)
from .linalg import Matrix
from .plant import InstabilityExponent, Plant, is_detectable, is_stabilizable

REGIME_KINDS = ("se-nofb", "se-fb", "stab-fb", "weak")

SOLVABLE, UNSOLVABLE, UNDETERMINED = "Solvable", "Unsolvable", "Undetermined"


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


def _is_dyadic(x: Fraction) -> bool:
    return x.denominator & (x.denominator - 1) == 0


def log2_compare(value: Fraction, exponent: Fraction) -> int:
    """Exact sign of log2(value) - exponent for a dyadic exponent p / 2**m.

    Brackets value**(2**m) by m fixed-point squarings rounded outward and
    doubles the precision until the bracket clears 2**p.  The two sides can
    be equal only when value is a power of two, which is compared directly,
    so the loop terminates.  Independent of ``log2_enclosure``.
    """
    if not _is_dyadic(exponent):
        raise ValueError("exponent must be dyadic")
    p, denom = exponent.numerator, exponent.denominator
    if value <= 0:
        return -1
    k = exact_log2(value)
    if k is not None:
        return (k * denom > p) - (k * denom < p)
    n, d = value.numerator, value.denominator
    m = denom.bit_length() - 1
    precision = m + 64
    while True:
        # value**(2**j) lies in [lo, hi] * 2**e; lo keeps about `precision` bits
        shift = max(0, precision - n.bit_length() + d.bit_length())
        lo, hi, e = (n << shift) // d, -((-n << shift) // d), -shift
        for _ in range(m):
            lo, hi = lo * lo, hi * hi
            drop = lo.bit_length() - precision
            lo, hi, e = lo >> drop, -(-hi >> drop), 2 * e + drop
        if lo.bit_length() - 1 + e >= p:
            return 1
        if (hi - 1).bit_length() + e <= p:
            return -1
        precision *= 2


# deepest endpoint p / 2**m, and narrowest shannon log width, the re-validator
# settles (log2_compare costs about m**2.3); the engine's deepest endpoint is
# 2**-118, at FeedbackCapacityTask's last width
_MAX_ENDPOINT_DEPTH = 1024


def _log_endpoint_sound(value: Fraction, enclosure: Enclosure) -> bool:
    """Check lo <= log2(value) <= hi exactly; a non-dyadic or too deep endpoint fails."""
    return (all(_is_dyadic(x) and x.denominator.bit_length() <= _MAX_ENDPOINT_DEPTH + 1
                for x in (enclosure.lo, enclosure.hi))
            and log2_compare(value, enclosure.lo) >= 0
            and log2_compare(value, enclosure.hi) <= 0)


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
# certificates and verdicts

@dataclass(frozen=True)
class IndependentSetCertificate:
    n: int
    alpha: int
    witness: tuple  # words: tuples of n input labels
    rate_lo: Enclosure
    eta: Enclosure

    def to_json(self) -> dict:
        return {"kind": "independent-set", "n": self.n, "alpha": self.alpha,
                "witness": witness_json(self.witness, self.n),
                "rate_lo": self.rate_lo.to_json(), "eta": self.eta.to_json()}


@dataclass(frozen=True)
class PsiCertificate:
    """Unsolvable via a certified upper bound on the feedback zero-error rate."""

    mass: Fraction
    support_level: int
    output_weights: tuple
    complete_graph: bool
    c0fb_upper: Enclosure
    eta_lo: Fraction

    def to_json(self) -> dict:
        return {"kind": "psi", "psi": rational_str(self.mass),
                "support_level": self.support_level,
                "output_weights": [rational_str(w) for w in self.output_weights],
                "complete_graph": self.complete_graph,
                "c0fb_upper": self.c0fb_upper.to_json(),
                "eta_lo": rational_str(self.eta_lo)}


@dataclass(frozen=True)
class SeparationCertificate:
    quantity: str   # "c0fb" | "shannon" | "alphabet-bound"
    relation: str   # "eta-below-capacity" | "capacity-below-eta"
    eta: Enclosure
    capacity: Enclosure
    payload: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": "separated-intervals", "quantity": self.quantity,
                "relation": self.relation, "eta": self.eta.to_json(),
                "capacity": self.capacity.to_json(), "payload": self.payload}


@dataclass(frozen=True)
class BudgetReport:
    steps: int
    limit: int
    progress: dict
    note: str = ""

    def to_json(self) -> dict:
        return {"kind": "budget", "steps": self.steps, "limit": self.limit,
                "progress": self.progress, "note": self.note}


@dataclass(frozen=True)
class Verdict:
    outcome: str
    regime: str
    certificate: object
    steps: int
    budget: int

    def to_json(self) -> dict:
        return {"outcome": self.outcome, "regime": self.regime,
                "certificate": self.certificate.to_json(),
                "budget": {"limit": self.budget, "steps": self.steps}}


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


# ---------------------------------------------------------------------------
# certificate re-validation: it shares the support and adjacency derivation
# with the solvers and trusts no solver state

# Capacities ranked C0 <= C0fb <= C <= log2 of the smaller alphabet: the one
# each regime compares eta with, and the one each certificate bounds.  A lower
# bound proves Solvable up to its rank, an upper bound Unsolvable from it on.
_REGIME_RANK = {"se-nofb": 0, "fixed-plant:capacity-above": 0, "se-fb": 1,
                "stab-fb": 1, "fixed-plant:capacity-below": 1, "weak": 2}
_SEPARATION_CLAIMS = {("c0fb", "eta-below-capacity"): (SOLVABLE, 1),
                      ("shannon", "eta-below-capacity"): (SOLVABLE, 2),
                      ("shannon", "capacity-below-eta"): (UNSOLVABLE, 2),
                      ("alphabet-bound", "capacity-below-eta"): (UNSOLVABLE, 3)}


def revalidate(verdict: Verdict, ch: Channel) -> bool:
    """Re-check a halted verdict's certificate from raw rationals.

    A certificate proves one outcome, and only in the regimes whose capacity
    it bounds from the right side.  Interval separations are recomputed by
    direct comparisons, witnesses are re-verified pairwise against the
    confusability graph of the certified support, minimax bounds are
    re-derived from the stored dual weights, and dyadic log endpoints are
    checked by ``log2_compare``.  No solver state is trusted.
    """
    cert = verdict.certificate
    if isinstance(cert, BudgetReport):
        return verdict.outcome == UNDETERMINED
    # the one outcome the certificate proves, and the rank of the capacity it bounds
    if isinstance(cert, IndependentSetCertificate):
        claim, check = (SOLVABLE, 0), _check_independent_set
    elif isinstance(cert, PsiCertificate):
        claim, check = (UNSOLVABLE, 1), _check_psi
    elif isinstance(cert, SeparationCertificate):
        claim = _SEPARATION_CLAIMS.get((cert.quantity, cert.relation))
        check = _check_separation
    else:
        return False
    rank = _REGIME_RANK.get(verdict.regime)
    if claim is None or rank is None or claim[0] != verdict.outcome:
        return False
    if claim[1] > rank if claim[0] == SOLVABLE else claim[1] < rank:
        return False
    return check(cert, ch)


def _check_independent_set(cert: IndependentSetCertificate, ch: Channel) -> bool:
    if not (type(cert.n) is int and type(cert.alpha) is int and type(cert.witness) is tuple
            and _enclosures(cert.rate_lo, cert.eta) and cert.eta.lo >= 0):
        return False
    graph = certified_graph(ch)  # the producer's graph
    index = {v: i for i, v in enumerate(ch.inputs)}
    words = cert.witness
    # a tuple compares its items without hashing them, so list labels fail here
    if cert.n < 1 or any(type(w) is not tuple or len(w) != cert.n
                         or not all(x in ch.inputs for x in w) for w in words):
        return False
    if len(words) != cert.alpha or len(set(words)) != cert.alpha:
        return False
    for a, va in enumerate(words):
        for vb in words[a + 1:]:
            if all(x == y or graph.are_adjacent(index[x], index[y])
                   for x, y in zip(va, vb)):
                return False
    # rate_lo really encloses log2(alpha) / n
    return (_log_endpoint_sound(Fraction(cert.alpha), cert.rate_lo.scaled(cert.n))
            and cert.eta.hi < cert.rate_lo.lo)


def _check_psi(cert: PsiCertificate, ch: Channel) -> bool:
    nx, ny = len(ch.inputs), len(ch.outputs)
    if not (type(cert.support_level) is int and isinstance(cert.output_weights, tuple)
            and _rationals(cert.mass, cert.eta_lo, *cert.output_weights)
            and _enclosures(cert.c0fb_upper) and cert.eta_lo >= 0):
        return False
    if cert.complete_graph:
        return (ch.is_exact and certified_graph(ch).is_complete()
                and cert.eta_lo > 0 and cert.c0fb_upper.hi == 0)
    if cert.mass <= 0 or cert.support_level < 0:
        return False
    supports = support_sets(certify_support(ch, cert.support_level), nx, ny)
    # the upper endpoint really bounds log2(1/mass)
    return (verify_minimax_lower_bound(cert.output_weights, supports, nx, cert.mass)
            and _log_endpoint_sound(1 / cert.mass, cert.c0fb_upper)
            and cert.c0fb_upper.hi < cert.eta_lo)


def _check_separation(cert: SeparationCertificate, ch: Channel) -> bool:
    nx, ny = len(ch.inputs), len(ch.outputs)
    payload = cert.payload if isinstance(cert.payload, dict) else {}
    if cert.quantity == "alphabet-bound":
        # no zero-error rate exceeds log2 of the smaller alphabet, so the
        # producer fires at equality
        alphabet = payload.get("alphabet")
        return (alphabet == min(nx, ny)
                and _log_endpoint_sound(Fraction(alphabet), cert.capacity)
                and cert.capacity.hi <= cert.eta.lo)
    below = cert.relation == "eta-below-capacity"
    # Shannon's formulas need the exact support and rows, which a stream may not settle
    if not ch.is_exact or cert.eta.lo < 0 or not (cert.eta.hi < cert.capacity.lo if below
                                                  else cert.capacity.hi < cert.eta.lo):
        return False
    support = certify_support(ch, 0)
    supports = support_sets(support, nx, ny)
    if cert.quantity == "c0fb":
        inverse = _payload_rational(payload.get("inverse_psi"))
        dist = _payload_distribution(payload.get("distribution"), nx)
        pair = payload.get("nonadjacent_pair")
        if (inverse is None or inverse <= 0 or dist is None
                or not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(type(v) is int for v in pair)):
            return False
        worst = max((sum(dist[x] for x in s) for s in supports if s), default=Fraction(1))
        i, j = pair
        # a bit test would read an out-of-range index as "not adjacent"
        if worst > 1 / inverse or not 0 <= i < j < nx or confusability_graph(
                support, ch.inputs, ny).are_adjacent(i, j):
            return False
        # capacity enclosure really brackets log2(inverse)
        return _log_endpoint_sound(inverse, cert.capacity)
    # shannon: the stored bound is the one its distribution and width give
    dist = _payload_distribution(payload.get("input_distribution"), nx)
    width = _payload_rational(payload.get("log_width"))
    if (dist is None or width is None or width < Fraction(1, 1 << _MAX_ENDPOINT_DEPTH)
            # a reachable output without mass makes the divergence bound vacuous
            or any(s and not any(dist[x] for x in s) for s in supports)):
        return False
    lower, upper = certified_capacity_bounds(ch.rows, dist, width)
    return cert.capacity == (lower if below else upper)


def _rationals(*values) -> bool:
    """Whether every value is an int or a Fraction, as certificate numbers must be."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _enclosures(*values) -> bool:
    """Whether every value is an Enclosure with rational endpoints."""
    return all(isinstance(e, Enclosure) and _rationals(e.lo, e.hi) for e in values)


def _payload_rational(text) -> Fraction | None:
    """A certificate payload's rational string, or None if it is malformed."""
    try:
        return parse_rational(text)
    except DomainError:
        return None


def _payload_distribution(values, n: int) -> tuple | None:
    """A payload's probability vector over n inputs, or None if it is not one."""
    if not isinstance(values, (list, tuple)) or len(values) != n:
        return None
    dist = tuple(_payload_rational(v) for v in values)
    if None in dist or any(p < 0 for p in dist) or sum(dist) != 1:
        return None
    return dist
