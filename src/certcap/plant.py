"""Plant descriptions, the regimes' plant-side hypotheses and the exponent.

Regime.validate checks what a regime's thresholds need of the plant: D > 0
(D = 0 for weak), (A, C) detectable and, for stab-fb, (A, B) stabilizable,
by roots.is_detectable and roots.is_stabilizable.  The instability exponent
sums log2 of the eigenvalue moduli >= 1, which UnstableModuli brackets by
bisecting on the radius of the one exact root count, roots.count_inside;
InstabilityExponent, its one caller, keeps that bisection, so each narrower
enclosure only splits the brackets that block it.  A bracket above one stops
as soon as its ends agree in the binary digits of log2 the enclosure reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain

from .enclosure import Enclosure, load_json, log2_fixed, parse_rational, width_bits
from .linalg import Matrix, as_matrix, char_poly, is_square
from .roots import (Poly, _count_in_unit_disc, _first_decided, _integer_form, _scaled,
                    _split_radii, _square_free_part, cauchy_root_bound, count_inside,
                    is_detectable, is_stabilizable, poly_degree, poly_deriv, poly_gcd,
                    poly_trim, simplest_between)

DEFAULT_ETA_WIDTH = Fraction(1, 1 << 30)
REGIME_KINDS = ("se-nofb", "se-fb", "stab-fb", "weak")


class PlantFormatError(ValueError):
    """Plant document fails the schema or shape checks."""


class RegimePreconditionError(ValueError):
    """A regime prerequisite (detectability, stabilizability, ...) fails."""


@dataclass(frozen=True)
class Plant:
    a: Matrix
    c: Matrix | None = None
    b: Matrix | None = None
    disturbance_bound: Fraction | None = None

    def __post_init__(self):
        if not is_square(self.a):
            raise PlantFormatError("A must be square")
        n = len(self.a)
        if self.c is not None and any(len(row) != n for row in self.c):
            raise PlantFormatError("C must have n columns")
        if self.b is not None and len(self.b) != n:
            raise PlantFormatError("B must have n rows")
        if self.disturbance_bound is not None and self.disturbance_bound < 0:
            raise PlantFormatError("disturbance bound must be >= 0")


def load_plant(doc) -> Plant:
    """Validate a plant document (dict or JSON text), parsing each distinct string once."""
    if isinstance(doc, str):
        doc = load_json(doc, PlantFormatError)
    if not isinstance(doc, dict) or "A" not in doc:
        raise PlantFormatError("plant document must be an object with an A matrix")
    memo = cache(parse_rational)  # this document's strings

    def parse(v):  # any other value, a list too, goes straight to parse_rational's refusal
        return (memo if isinstance(v, str) else parse_rational)(v)

    def mat(key):
        if key not in doc or doc[key] is None:
            return None
        rows = doc[key]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise PlantFormatError(f"{key} must be a list of rows, got {rows!r}")
        return as_matrix([[parse(v) for v in row] for row in rows])

    bound = parse(doc["D"]) if "D" in doc else None
    return Plant(mat("A"), c=mat("C"), b=mat("B"), disturbance_bound=bound)


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
        elif plant.disturbance_bound not in (None, 0):
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


class RefinableLog2:
    """log2 of positive rationals, each refinable to any depth.  Each x keeps
    the m digits last computed; fewer bits are a shift of them
    (floor(floor(2^m y) / 2^(m - bits)) = floor(2^bits y)), more compute
    max(bits, 2m), so ever narrower requests cost few log2_fixed runs; a
    caller that never asks past ``cap`` bits caps the doubling there."""

    def __init__(self, cap: int | None = None):
        self.digits = {}  # x -> (m, floor(2^m log2 x), whether x is a power of two)
        self.cap = cap

    def __call__(self, x: Fraction, bits: int) -> tuple[int, bool]:
        """(floor(2^bits log2 x), whether x is a power of two)."""
        m, digits, exact = self.digits.get(x, (-1, 0, False))
        if m < bits:
            m = max(bits, min(2 * m, self.cap or 2 * m))
            digits, exact = log2_fixed(x.numerator, x.denominator, m)
            self.digits[x] = m, digits, exact
        return digits >> m - bits, exact

    def enclose(self, x: Fraction, max_width: Fraction) -> Enclosure:
        """log2_enclosure(x, max_width), level included, from the stored digits."""
        m = width_bits(max_width)
        digits, exact = self(x, m)
        lo = Fraction(digits, 1 << m)
        return Enclosure.exact(lo) if exact else Enclosure(lo, lo + Fraction(1, 1 << m), m)


def _exact_bracket(ints: list[int], r: Fraction, lo: Fraction, hi: Fraction,
                   k: int) -> bool:
    """Whether the k roots of p = ints in lo < |z| < hi add exactly k log2 r to eta.

    With q(z) = p(r z) and p(0) != 0, g = gcd(q, q*) holds each root zeta of
    q whose inverse is a root too, at the smaller of the two multiplicities,
    so the roots of g are closed under inversion.  Its roots in the annulus
    rho < |z| < 1/rho, rho = max(lo/r, r/hi), number deg g - 2 count(g, rho)
    and lie among the k roots of q in lo/r < |z| < hi/r.  If that number is
    k, those k roots are the inversion-closed set, so the moduli of p's
    roots multiply to r^k; that settles a bracket with lo >= 1.

    Around r = 1 (lo < 1) the k roots must moreover lie on the unit circle,
    since a pair (t, 1/t) adds log2 |t| > 0.  The square-free part s of g is
    self-inversive, so s' has no root on the circle, and s has as many
    roots inside the circle as s' has outside (A. Cohn, 1922); none of
    them may lie in rho < |z| < 1.  An undecided count gives False.
    """
    q = tuple(Fraction(c) for c in _scaled(ints, r.numerator, r.denominator))
    g = poly_gcd(q, q[::-1])
    rho = max(lo / r, r / hi)
    inside = count_inside(g, rho)
    if inside is None or poly_degree(g) - 2 * inside != k:
        return False
    if lo >= 1:
        return True
    s = _square_free_part(g)
    critical = count_inside(poly_deriv(s), 1)
    inner = count_inside(s, rho)
    return None not in (critical, inner) and poly_degree(s) - 1 - critical == inner


class UnstableModuli:
    """Brackets (lo, hi, k) that hold every root of p with modulus >= 1 once.

    lo == hi: the k roots add exactly k log2 lo to eta; their moduli are
    >= 1 and multiply to lo^k (each modulus is lo, or they pair up as lo*t
    and lo/t).  lo < hi: the k roots have moduli in (lo, hi), and either
    hi <= max(1, lo) * (1 + tolerance) or 1 < lo and log2 lo and log2 hi
    share their first ``bits`` binary digits; when lo < 1, some of the
    roots may have modulus below 1.

    Roots at 0 are dropped.  The moduli are isolated by bisecting on dyadic
    radii, kept as integers, with the count, moving to a nearby radius where
    it is undecided.  A rational modulus u/v has v dividing the leading
    coefficient L of p's primitive integer form (L^2 |lambda|^2 is an
    algebraic integer), so a bracket narrower than 1/(2 L^2) has at most
    one candidate, its simplest rational, which _exact_bracket tests once
    per set of roots.

    A bracket with 1 < lo and floor(2^bits log2 lo) = floor(2^bits log2 hi)
    = D stops before that test: its log2 enclosure at 2^-bits is
    k * [D, D + 1] / 2^bits, and so is the sum over the brackets, exact ones
    included, that splitting it would leave, for they lie in (lo, hi],
    which holds no power of two.  Only a bracket about a power of two (or
    about one) is narrowed to 1/(2 L^2).

    The bisection is kept between calls: brackets(tolerance, bits) splits
    only the leaves too wide for it.  A split depends on nothing but its
    bracket and every leaf is a node of the same tree, so a narrower call
    returns exactly what a fresh UnstableModuli would.
    """

    def __init__(self, p: Poly):
        p = poly_trim(p)
        while p and p[0] == 0:
            p = p[1:]
        n = poly_degree(p)
        modulus = abs(p[0] / p[1]) if n == 1 else 0  # one rational root
        self.exact = [(modulus, modulus, 1)] if modulus >= 1 else []
        self.log2 = RefinableLog2()
        self.leaves = []  # (e, lo, count(lo), hi, count(hi), tested): radii lo/2^e, hi/2^e
        if n <= 1:
            return
        top = 1 << int(cauchy_root_bound(p)).bit_length()
        self.ints = _integer_form(p)
        below_one = (((1 << j) - 1, j) for j in range(4, 64))
        (base, e), below = _first_decided(self._count, chain([(1, 0)], below_one))
        self.lead = abs(self.ints[-1])
        self.leaves.append((e, base, below, top << e, n, False))

    def _count(self, radius: tuple[int, int]) -> int | None:
        return _count_in_unit_disc(_scaled(self.ints, radius[0], 1 << radius[1]))

    def brackets(self, tolerance: Fraction, bits: int) -> list[tuple[Fraction, Fraction, int]]:
        tolerance = Fraction(tolerance)
        log2 = self.log2
        stack, self.leaves = self.leaves, []
        while stack:
            e, lo, n_lo, hi, n_hi, tested = stack.pop()
            k, one = n_hi - n_lo, 1 << e
            if k == 0 or hi <= one:
                continue
            # log2(hi / lo) >= (hi - lo) / hi: only a narrower bracket can have settled digits
            if (one < lo and (hi - lo) << bits < hi
                    and log2(Fraction(lo, one), bits)[0] == log2(Fraction(hi, one), bits)[0]):
                self.leaves.append((e, lo, n_lo, hi, n_hi, tested))
                continue
            if not tested and (hi - lo) * 2 * self.lead ** 2 < one:  # narrower than 1/(2 L^2)
                a, b = Fraction(lo, one), Fraction(hi, one)
                r = simplest_between(a, b)
                if r.denominator <= self.lead and _exact_bracket(self.ints, r, a, b, k):
                    self.exact.append((r, r, k))
                    continue
                tested = True
            floor = max(lo, one)
            if tested and (hi - floor) * tolerance.denominator <= floor * tolerance.numerator:
                self.leaves.append((e, lo, n_lo, hi, n_hi, True))
                continue
            (mid, f), n_mid = _first_decided(
                self._count, ((x, e + j) for x, j in _split_radii(lo, hi)))
            lo, hi = lo << (f - e), hi << (f - e)
            stack.append((f, lo, n_lo, mid, n_mid, tested and n_mid - n_lo == k))
            stack.append((f, mid, n_mid, hi, n_hi, tested and n_hi - n_mid == k))
        return sorted(self.exact + [(Fraction(lo, 1 << e), Fraction(hi, 1 << e), n_hi - n_lo)
                                    for e, lo, n_lo, hi, n_hi, _ in self.leaves])


class InstabilityExponent:
    """eta(A) as a refinable real: the unstable moduli of A, bracketed once.

    eta(A) = sum of log2 |lambda| over the eigenvalues of A with
    |lambda| >= 1, counted with multiplicity.  The characteristic
    polynomial is computed once and its moduli are bracketed by one
    UnstableModuli, which enclose(w) only narrows; each bracket of k
    roots adds k * [log2 lo, log2 hi], with log2 taken as 0 below one.
    Moduli that are powers of two or one are found exactly, so a plant whose
    unstable moduli are powers of two, one, or all below one yields a
    zero-width enclosure.
    """

    def __init__(self, a: Matrix):
        a = as_matrix(a)
        self.dim = len(a)
        self.moduli = UnstableModuli(char_poly(a))

    def enclose(self, max_width: Fraction) -> Enclosure:
        """Enclosure of eta of width <= max_width, the same as a fresh one."""
        max_width = Fraction(max_width)
        n = self.dim
        bits = width_bits(max_width / (16 * n))
        lo_sum = hi_sum = 0  # over 2^bits
        # hi <= lo * (1 + max_width / (3n)) keeps log2(hi / lo) below max_width / (2n)
        brackets = self.moduli.brackets(max_width / (3 * n), bits)
        for lo, hi, k in brackets:
            digits, exact = self.moduli.log2(hi, bits)
            lo_sum += k * (self.moduli.log2(lo, bits)[0] if lo > 1 else 0)
            hi_sum += k * (digits if exact else digits + 1)
        result = Enclosure(Fraction(lo_sum, 1 << bits), Fraction(hi_sum, 1 << bits))
        if result.width > max_width:
            raise RuntimeError("width budget violated in exponent assembly")
        return result


def instability_exponent(a: Matrix, max_width: Fraction = DEFAULT_ETA_WIDTH) -> Enclosure:
    """eta(A), the data rate the plant's unstable part generates, to max_width."""
    return InstabilityExponent(a).enclose(max_width)
