"""Rational interval enclosures and certified base-2 logarithms.

Every real quantity in this package is a closed interval with exact
rational endpoints.  Each anytime quantity is one object that keeps its exact
core and narrows on request (plant.InstabilityExponent, capacity.ShannonBounds,
the ladders' rungs, plant.RefinableLog2: the log2 digits that eta and the C0fb
bound share): a refinable real in the manner of iRRAM (Mueller 2000).
The certified capacity bounds live beside log2_fixed, so check.py imports no solver.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import lcm


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


# the only gate before int(), which would take spaces, "_" and non-ASCII digits
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction; reject anything else."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise DomainError(f"malformed rational: {text!r}")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ValueError:  # past the str-to-int digit limit
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def load_json(text: str, error: type[Exception], where: str = ""):
    """``json.loads``, raising ``error`` on a syntax error, a too long integer
    or nesting too deep to decode."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON{where}: {exc}") from None
    except RecursionError:
        raise error(f"invalid JSON{where}: nested too deeply to read") from None
    except ValueError:
        raise error(f"invalid JSON{where}: an integer too long to read") from None


def rational_str(value) -> str:
    """Serialize an exact rational as "p/q" (or "p" for integers).

    Accepts Fraction, int, or any canonical Rational; all of them print in
    the same normalized form, however many digits they have: integers past
    the interpreter's int-to-str digit limit are formatted through
    ``decimal.Decimal``, which converts them exactly.
    """
    try:
        return str(value)
    except ValueError:  # past the int-to-str digit limit
        text = str(Decimal(int(value.numerator)))
        if value.denominator == 1:
            return text
        return f"{text}/{Decimal(int(value.denominator))}"


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] certified to contain a real value.

    ``level`` records the refinement depth that produced the interval;
    successive refinements of one quantity are nested and carry
    non-decreasing levels.
    """

    lo: Fraction
    hi: Fraction
    level: int = 0

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DomainError(f"empty enclosure: {self.lo} > {self.hi}")

    @staticmethod
    def exact(value: Fraction) -> "Enclosure":
        value = Fraction(value)
        return Enclosure(value, value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def scaled(self, factor: Fraction) -> "Enclosure":
        """Multiply by an exact scalar, factor >= 0."""
        factor = Fraction(factor)
        return Enclosure(self.lo * factor, self.hi * factor, self.level)

    def to_json(self) -> dict:
        return {"lo": rational_str(self.lo), "hi": rational_str(self.hi),
                "level": self.level}

    @staticmethod
    def from_json(doc) -> "Enclosure":
        """The enclosure ``to_json`` wrote; DomainError on any other document."""
        level = doc.get("level") if isinstance(doc, dict) else None
        if type(level) is not int or level < 0:  # a JSON integer: not a bool, float or string
            raise DomainError("an enclosure must be an object with an integer level >= 0")
        return Enclosure(parse_rational(doc.get("lo")), parse_rational(doc.get("hi")), level)


def width_bits(max_width: Fraction) -> int:
    """The smallest m >= 1 with 2**-m <= max_width."""
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise DomainError("target width must be positive")
    return max(1, -log2_fixed(max_width.numerator, max_width.denominator, 0)[0])


def _extract_log_digits(n: int, d: int, m: int, precision: int) -> int | None:
    """The first m binary digits of log2(n/d) for n/d in (1, 2).

    Works on an outward-rounded dyadic bracket of n/d with ``precision``
    fractional bits; squaring doubles the true value's exponent, so the k-th
    comparison against 2 decides the k-th digit.  Returns None when the
    bracket is too wide to certify a digit (caller retries at higher
    precision; log2(n/d) is irrational here, so retrying terminates).
    """
    zlo = (n << precision) // d
    zhi = -((-n << precision) // d)
    two = 2 << precision
    digits = 0
    for _ in range(m):
        zlo = (zlo * zlo) >> precision
        zhi = -((-zhi * zhi) >> precision)
        if zhi < two:
            digits <<= 1
        elif zlo >= two:
            digits = (digits << 1) | 1
            zlo >>= 1
            zhi = (zhi + 1) >> 1
        else:
            return None
    return digits


def log2_fixed(n: int, d: int, m: int) -> tuple[int, bool]:
    """(D, exact): D = floor(2**m * log2(n/d)) for positive integers n and d,
    not necessarily coprime, and whether n/d is a power of two.

    log2(n/d) is D / 2**m when exact, else inside (D, D + 1) / 2**m.  The
    package's one certified log2: its digits come from comparisons of dyadic
    powers against n/d, so no transcendental routine is trusted.
    """
    k = n.bit_length() - d.bit_length()
    n, d = n << max(-k, 0), d << max(k, 0)  # divide n/d by 2**k: [1/2, 2)
    if n < d:
        k, n = k - 1, n << 1
    if n == d:
        return k << m, True
    precision = m + 16  # the bracket's relative width grows to about 2**(m - precision)
    while (digits := _extract_log_digits(n, d, m, precision)) is None:
        precision *= 2
    return (k << m) + digits, False


def certified_capacity_bounds(rows, dist, log_width):
    """Mutual information and worst relative-entropy enclosures at one dist.

    Both are valid capacity bounds for any input distribution: the mutual
    information from below, the largest divergence of a row from the output
    marginal from above.  The sums run in integers over one denominator: the
    distribution is P/dd and the rows W/wd (lcms of their denominators), so
    the marginal is M/(dd wd) with M_y = sum_x P_x W_xy and each term is
    log2_fixed(W_xy dd, M_y).  Each endpoint is one Fraction, built at the end.
    """
    m = width_bits(log_width)
    dd = lcm(*(p.denominator for p in dist))
    wd = lcm(*(w.denominator for row in rows for w in row))
    weights = [p.numerator * (dd // p.denominator) for p in dist]
    counts = [[w.numerator * (wd // w.denominator) for w in row] for row in rows]
    marginal = [sum(p * row[y] for p, row in zip(weights, counts))
                for y in range(len(rows[0]))]
    if any(mass == 0 and any(row[y] for row in counts) for y, mass in enumerate(marginal)):
        raise DomainError(
            "distribution assigns zero mass to a reachable output; "
            "the divergence upper bound would be vacuous")
    info_lo = info_hi = level = 0
    divs = []  # each row's divergence bounds, over wd * 2**m
    for p, row in zip(weights, counts):
        lo = hi = 0
        for w, mass in zip(row, marginal):
            if w:
                digits, exact = log2_fixed(w * dd, mass, m)
                lo, hi = lo + w * digits, hi + w * (digits if exact else digits + 1)
        divs.append((lo, hi))
        if p:
            info_lo, info_hi = info_lo + p * lo, info_hi + p * hi
            level = m if hi > lo else level  # an inexact term weighs in
    den = (dd * wd) << m
    info = Enclosure(Fraction(info_lo, den), Fraction(info_hi, den), level)
    los, his = zip(*divs)
    return info, Enclosure(Fraction(max(los), wd << m), Fraction(max(his), wd << m))


def log2_enclosure(x: Fraction, max_width: Fraction) -> Enclosure:
    """Enclosure of log2(x) with width <= max_width and dyadic endpoints.

    Exact powers of two yield a zero-width enclosure at level 0; anything
    else is [D, D + 1] / 2**m from log2_fixed, at level m.
    """
    x = Fraction(x)
    if x <= 0:
        raise DomainError("log2 requires a positive argument")
    m = width_bits(max_width)
    digits, exact = log2_fixed(x.numerator, x.denominator, m)
    if exact:
        return Enclosure.exact(Fraction(digits >> m))
    return Enclosure(Fraction(digits, 1 << m), Fraction(digits + 1, 1 << m), level=m)
