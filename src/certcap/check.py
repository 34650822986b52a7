"""Certificates, verdicts and ``revalidate``: a small proof checker beside
the engine in classify.py, which produces them.

It trusts no solver state, shares the support and adjacency derivation with
the solvers, and imports primitives only (support certification, the
may-reach graph, certified capacity bounds, enclosures), never a task, the
dovetailer, the CLI or the simulator.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import dataclass, field, is_dataclass
from fractions import Fraction

from .capacity import certified_capacity_bounds
from .channel import Channel, certify_support, support_sets
from .confgraph import certified_graph, confusability_graph, witness_json
from .enclosure import DomainError, Enclosure, exact_log2, parse_rational, rational_str

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
    separations are recomputed by direct comparisons, witnesses are
    re-verified pairwise against the confusability graph of the certified
    support, minimax bounds are re-derived from the stored dual weights, and
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
    graph = certified_graph(ch)  # the producer's graph
    index = {v: i for i, v in enumerate(ch.inputs)}
    for a, va in enumerate(words):
        for vb in words[a + 1:]:
            if all(x == y or graph.are_adjacent(index[x], index[y])
                   for x, y in zip(va, vb)):
                return False
    # rate_lo really encloses log2(alpha) / n
    return (_log_endpoint_sound(Fraction(cert.alpha), cert.rate_lo.scaled(cert.n))
            and cert.eta.hi < cert.rate_lo.lo)


def _check_psi(cert: PsiCertificate, ch: Channel) -> bool:
    if cert.complete_graph:
        return (ch.is_exact and certified_graph(ch).is_complete()
                and cert.eta_lo > 0 and cert.c0fb_upper.hi == 0)
    if cert.mass <= 0 or cert.support_level < 0 or cert.eta_lo < 0:
        return False
    nx, ny = len(ch.inputs), len(ch.outputs)
    supports = support_sets(certify_support(ch, cert.support_level), nx, ny)
    # the upper endpoint really bounds log2(1/mass)
    return (verify_minimax_lower_bound(cert.output_weights, supports, nx, cert.mass)
            and _log_endpoint_sound(1 / cert.mass, cert.c0fb_upper)
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
    support = certify_support(ch, 0)
    supports = support_sets(support, nx, ny)
    if cert.quantity == "c0fb":
        inverse = _payload_rational(cert.payload.get("inverse_psi"))
        dist = _payload_distribution(cert.payload.get("distribution"), nx)
        pair = cert.payload.get("nonadjacent_pair")
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
    dist = _payload_distribution(cert.payload.get("input_distribution"), nx)
    width = _payload_rational(cert.payload.get("log_width"))
    if (dist is None or width is None or width < Fraction(1, 1 << _MAX_ENDPOINT_DEPTH)
            # a reachable output without mass makes the divergence bound vacuous
            or any(s and not any(dist[x] for x in s) for s in supports)):
        return False
    lower, upper = certified_capacity_bounds(ch.rows, dist, width)
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
