"""Certificates, verdicts and ``revalidate``: a small proof checker beside
the engine in classify.py, which produces them.

It trusts no solver state and imports only primitives it shares with the
solvers: the one support derivation and zero-error word check (graph.py, on
channel.py), enclosures, the capacity bounds and log2_fixed, the one certified
log2 (enclosure.py).  They are its whole trusted base: no solver, CLI or simulator.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import dataclass, field, is_dataclass
from fractions import Fraction

from .channel import Channel
from .enclosure import (DomainError, Enclosure, certified_capacity_bounds, log2_fixed,
                        parse_rational, rational_str)
from .graph import Support, witness_json

SOLVABLE, UNSOLVABLE, UNDETERMINED = "Solvable", "Unsolvable", "Undetermined"


@dataclass(frozen=True)
class IndependentSetCertificate:
    n: int
    alpha: int
    witness: tuple[tuple, ...]  # words: tuples of n input labels
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
    output_weights: tuple[Fraction, ...]
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
    certificate: (IndependentSetCertificate | PsiCertificate | SeparationCertificate
                  | BudgetReport)
    steps: int
    budget: int

    def to_json(self) -> dict:
        return {"outcome": self.outcome, "regime": self.regime,
                "certificate": self.certificate.to_json(),
                "budget": {"limit": self.budget, "steps": self.steps}}


def _is_dyadic(x: Fraction) -> bool:
    return x.denominator & (x.denominator - 1) == 0


def log2_compare(value: Fraction, exponent: Fraction) -> int:
    """Exact sign of log2(value) - exponent for a dyadic exponent p / 2**m.

    log2_fixed, the one certified log2, gives D = floor(2**m log2(value)):
    log2(value) is D / 2**m for a power of two, else in (D, D + 1) / 2**m.
    """
    if not _is_dyadic(exponent):
        raise ValueError("exponent must be dyadic")
    if value <= 0:  # log2_fixed would return a wrong digit
        return -1
    p, m = exponent.numerator, exponent.denominator.bit_length() - 1
    digits, exact = log2_fixed(value.numerator, value.denominator, m)
    return 0 if exact and digits == p else 1 if digits >= p else -1


# the deepest endpoint 2**-m, and narrowest shannon log width, the re-validator settles;
# log2_fixed costs about m**2.5, and the engine's deepest is 2**-120 (a stream's c0fb)
_MAX_ENDPOINT_DEPTH = 1024


def _log_endpoint_sound(value: Fraction, enclosure: Enclosure) -> bool:
    """Check lo <= log2(value) <= hi exactly; a non-dyadic or too deep endpoint fails."""
    return (all(_is_dyadic(x) and x.denominator.bit_length() <= _MAX_ENDPOINT_DEPTH + 1
                for x in (enclosure.lo, enclosure.hi))
            and log2_compare(value, enclosure.lo) >= 0
            and log2_compare(value, enclosure.hi) <= 0)


def verify_minimax_lower_bound(weights, supports, nx: int, value: Fraction) -> bool:
    """Re-check from raw rationals that the minimax value over ``supports``
    (the inputs reaching each output) is >= value.

    Independent of the simplex path: the output weights must be a convex
    combination, and for every input the weighted count of the outputs it
    reaches must reach value (then any distribution pays at least value).
    """
    if len(weights) != len(supports) or any(w < 0 for w in weights) or sum(weights) != 1:
        return False
    return all(sum(w for w, s in zip(weights, supports) if x in s) >= value
               for x in range(nx))


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

    A verdict whose fields do not have their declared types fails before
    any check runs.  A certificate proves one outcome, and only in the
    regimes whose capacity it bounds from the right side.  Interval
    separations are recomputed by direct comparisons, witness words by the
    shared word check on the may-reach graph of the channel's last level,
    minimax bounds are re-derived from the stored dual weights, and
    dyadic log endpoints are checked by ``log2_compare``.
    """
    if not _well_typed(verdict, Verdict):
        return False
    cert = verdict.certificate
    if isinstance(cert, BudgetReport):
        return verdict.outcome == UNDETERMINED
    # the one outcome the certificate proves, and the rank of the capacity it bounds
    if isinstance(cert, IndependentSetCertificate):
        claim, check = (SOLVABLE, 0), _check_independent_set
    elif isinstance(cert, PsiCertificate):
        claim, check = (UNSOLVABLE, 1), _check_psi
    else:
        claim = _SEPARATION_CLAIMS.get((cert.quantity, cert.relation))
        check = _check_separation
    rank = _REGIME_RANK.get(verdict.regime)
    if claim is None or rank is None or claim[0] != verdict.outcome:
        return False
    if claim[1] > rank if claim[0] == SOLVABLE else claim[1] < rank:
        return False
    return check(cert, ch)


_field_types = functools.cache(typing.get_type_hints)


def _well_typed(value, hint) -> bool:
    """Whether ``value`` has exactly the declared type ``hint``, so a bool is
    no int.  A Fraction takes any rational (an int or a Fraction), a
    ``tuple[T, ...]`` checks each item, a union any member, and a dataclass
    each of its fields in turn.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_well_typed(value, h) for h in args)
    if origin is tuple:
        return type(value) is tuple and all(_well_typed(v, args[0]) for v in value)
    if type(value) not in ((int, Fraction) if hint is Fraction else (hint,)):
        return False
    return not is_dataclass(hint) or all(_well_typed(getattr(value, name), h)
                                         for name, h in _field_types(hint).items())


def _check_independent_set(cert: IndependentSetCertificate, ch: Channel) -> bool:
    words = cert.witness
    # a tuple compares its items without hashing them, so list labels fail here
    if cert.n < 1 or cert.eta.lo < 0 or any(
            len(w) != cert.n or not all(x in ch.inputs for x in w) for w in words):
        return False
    if len(words) != cert.alpha or len(set(words)) != cert.alpha:
        return False
    # a code of the narrowest may-reach graph, whose rate_lo really encloses log2(alpha) / n
    return (Support(ch, ch.max_declared_level()).graph.is_code(words, cert.n)
            and _log_endpoint_sound(Fraction(cert.alpha), cert.rate_lo.scaled(cert.n))
            and cert.eta.hi < cert.rate_lo.lo)


def _check_psi(cert: PsiCertificate, ch: Channel) -> bool:
    if cert.support_level < 0 or cert.eta_lo < 0:
        return False
    support = Support(ch, cert.support_level)
    if cert.complete_graph:
        # only a settled support is the true one
        return (support.settled and cert.eta_lo > 0 and cert.c0fb_upper.hi == 0
                and support.graph.is_complete())
    if cert.mass <= 0:
        return False
    # the upper endpoint really bounds log2(1/mass)
    return (verify_minimax_lower_bound(cert.output_weights, support.sets, len(ch.inputs),
                                       cert.mass)
            and _log_endpoint_sound(Fraction(1) / cert.mass, cert.c0fb_upper)
            and cert.c0fb_upper.hi < cert.eta_lo)


def _check_separation(cert: SeparationCertificate, ch: Channel) -> bool:
    nx, ny = len(ch.inputs), len(ch.outputs)
    if cert.quantity == "alphabet-bound":
        # no zero-error rate exceeds log2 of the smaller alphabet, so the
        # producer fires at equality
        alphabet = cert.payload.get("alphabet")
        return (alphabet == min(nx, ny)
                and _log_endpoint_sound(Fraction(alphabet), cert.capacity)
                and cert.capacity.hi <= cert.eta.lo)
    below = cert.relation == "eta-below-capacity"
    # Shannon's formulas need the exact support and rows, which a stream may not settle
    if not ch.is_exact or cert.eta.lo < 0 or not (cert.eta.hi < cert.capacity.lo if below
                                                  else cert.capacity.hi < cert.eta.lo):
        return False
    if cert.quantity == "c0fb":
        inverse = _payload_rational(cert.payload.get("inverse_psi"))
        dist = _payload_distribution(cert.payload.get("distribution"), nx)
        pair = cert.payload.get("nonadjacent_pair")
        if (inverse is None or inverse <= 0 or dist is None
                or not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(type(v) is int for v in pair)):
            return False
        support = Support(ch, 0)
        worst = max((sum(dist[x] for x in s) for s in support.sets if s), default=Fraction(1))
        i, j = pair
        # a bit test would read an out-of-range index as "not adjacent"
        if worst > 1 / inverse or not 0 <= i < j < nx or support.graph.are_adjacent(i, j):
            return False
        # capacity enclosure really brackets log2(inverse)
        return _log_endpoint_sound(inverse, cert.capacity)
    # shannon: the stored bound is the one its distribution and width give
    dist = _payload_distribution(cert.payload.get("input_distribution"), nx)
    width = _payload_rational(cert.payload.get("log_width"))
    if dist is None or width is None or width < Fraction(1, 1 << _MAX_ENDPOINT_DEPTH):
        return False
    try:
        lower, upper = certified_capacity_bounds(ch.rows, dist, width)
    except DomainError:  # a reachable output without mass: the divergence bound is vacuous
        return False
    return cert.capacity == (lower if below else upper)


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
