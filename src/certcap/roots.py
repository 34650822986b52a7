"""Exact polynomial root machinery over the rationals.

The one root count everything else in the package uses is count_inside: the
number of roots in an open disc |z| < r, by the Schur-Cohn-Jury reduction in
exact integers.  On it rest the unit-circle (Schur) stability test and the
bracketing of the root moduli >= 1 that the instability exponent sums.

The Sturm-sequence isolation of real roots and the certified eigenvalue
enclosures of symmetric rational matrices remain as an independent
reference for tests.

Polynomials are tuples of Fractions, low degree first, trailing zeros
stripped.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .enclosure import DomainError, Enclosure, simplest_between
from .linalg import Matrix, char_poly, is_symmetric

Poly = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# basic polynomial arithmetic

def poly_trim(coeffs) -> Poly:
    c = [Fraction(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p: Poly) -> int:
    return len(p) - 1


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p: Poly) -> Poly:
    return poly_trim(c * k for k, c in enumerate(p) if k > 0)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly_trim(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] * inv
        if factor == 0:
            continue
        quo[shift] = factor
        for j, bj in enumerate(b):
            rem[shift + j] -= factor * bj
    return poly_trim(quo), poly_trim(rem)


def poly_monic(p: Poly) -> Poly:
    if not p:
        return p
    inv = 1 / p[-1]
    return tuple(c * inv for c in p)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = prod f_i^i with the f_i square-free and coprime."""
    p = poly_monic(p)
    if poly_degree(p) < 1:
        return []
    dp = poly_deriv(p)
    g = poly_gcd(p, dp)
    b, _ = poly_divmod(p, g)
    c, _ = poly_divmod(dp, g)
    d = _poly_sub(c, poly_deriv(b))
    out: list[tuple[Poly, int]] = []
    i = 1
    while poly_degree(b) > 0:
        a = poly_gcd(b, d)
        if poly_degree(a) > 0:
            out.append((poly_monic(a), i))
        b, _ = poly_divmod(b, a)
        c, _ = poly_divmod(d, a)
        d = _poly_sub(c, poly_deriv(b))
        i += 1
    return out


def _poly_sub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_trim((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                     for i in range(n))


# ---------------------------------------------------------------------------
# Sturm sequences and real root isolation

def sturm_sequence(p: Poly) -> list[Poly]:
    seq = [p, poly_deriv(p)]
    while seq[-1] and poly_degree(seq[-1]) > 0:
        _, r = poly_divmod(seq[-2], seq[-1])
        if not r:
            break
        seq.append(tuple(-c for c in r))
    if not seq[-1]:
        seq.pop()
    return seq


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(values) -> int:
    signs = [s for s in (_sign(v) for v in values) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_variations_at(seq: list[Poly], x: Fraction) -> int:
    return _variations(poly_eval(p, x) for p in seq)


def cauchy_root_bound(p: Poly) -> Fraction:
    """Strict bound: every root r satisfies |r| < bound."""
    if poly_degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_real_roots(p: Poly):
    """Isolate the distinct real roots of a square-free polynomial.

    Returns (exact_roots, intervals): rational roots hit head-on during
    bisection come back exact, the rest as (lo, hi, poly) with a sign change
    across the interval and exactly one root inside.  ``poly`` is the
    (possibly deflated) polynomial to use for further refinement.
    """
    exact: list[Fraction] = []
    p = poly_monic(p)
    while True:
        if poly_degree(p) < 1:
            return sorted(exact), []
        hit, intervals = _isolate_once(p)
        if hit is None:
            return sorted(exact), [(lo, hi, p) for lo, hi in sorted(intervals)]
        exact.append(hit)
        p, _ = poly_divmod(p, (-hit, Fraction(1)))


def _isolate_once(p: Poly):
    seq = sturm_sequence(p)
    bound = cauchy_root_bound(p)
    intervals: list[tuple[Fraction, Fraction]] = []
    va = sturm_variations_at(seq, -bound)
    vb = sturm_variations_at(seq, bound)
    stack = [(-bound, bound, va, vb)]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb
        if count == 0:
            continue
        if count == 1:
            intervals.append((a, b))
            continue
        mid = (a + b) / 2
        if poly_eval(p, mid) == 0:
            return mid, []
        vm = sturm_variations_at(seq, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    return None, intervals


def refine_root_interval(p: Poly, lo: Fraction, hi: Fraction,
                         max_width: Fraction) -> tuple[Fraction, Fraction]:
    """Sign bisection of an isolating interval down to the requested width.

    Collapses to an exact point when a bisection midpoint lands on the root.
    """
    sign_lo = _sign(poly_eval(p, lo))
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        v = poly_eval(p, mid)
        if v == 0:
            return mid, mid
        if sign_lo * _sign(v) < 0:
            hi = mid
        else:
            lo, sign_lo = mid, _sign(v)
    return lo, hi


def _integer_form(p: Poly) -> list[int]:
    """Coprime integer coefficients of a nonzero p: the same roots as p."""
    denom = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (denom // c.denominator) for c in p]
    g = gcd(*ints)
    return [c // g for c in ints]


def _scaled(ints: list[int], r: Fraction) -> list[int]:
    """Integer coefficients of v^n * q(r z) for q = ints and r = u/v."""
    u, v = r.numerator, r.denominator
    n = len(ints) - 1
    return [c * u ** k * v ** (n - k) for k, c in enumerate(ints)]


def rational_root_in_interval(p: Poly, lo: Fraction, hi: Fraction):
    """Exact rational root in an isolating interval, or None.

    Refines the interval below the separation radius of rationals whose
    denominator can divide the leading integer coefficient, then checks the
    unique candidate.  Certified either way.
    """
    bmax = abs(_integer_form(p)[-1])
    sep = Fraction(1, 2 * bmax * bmax)
    lo, hi = refine_root_interval(p, lo, hi, sep)
    if lo == hi:
        return lo, (lo, hi)
    cand = simplest_between(lo, hi)
    if cand.denominator <= bmax and poly_eval(p, cand) == 0:
        return cand, (lo, hi)
    return None, (lo, hi)


# ---------------------------------------------------------------------------
# certified eigenvalue enclosures for symmetric rational matrices

class _RootItem:
    __slots__ = ("lo", "hi", "poly", "multiplicity")

    def __init__(self, lo, hi, poly, multiplicity):
        self.lo = lo
        self.hi = hi
        self.poly = poly
        self.multiplicity = multiplicity

    @property
    def exact(self):
        return self.lo == self.hi

    def refine(self, width):
        if not self.exact:
            self.lo, self.hi = refine_root_interval(self.poly, self.lo, self.hi, width)


def real_roots_with_multiplicity(p: Poly) -> list[_RootItem]:
    """All real roots of p as refinable items, rational ones pinned exactly."""
    items: list[_RootItem] = []
    for factor, mult in square_free_decomposition(p):
        exact, intervals = isolate_real_roots(factor)
        for r in exact:
            items.append(_RootItem(r, r, factor, mult))
        for lo, hi, poly in intervals:
            root, (lo, hi) = rational_root_in_interval(poly, lo, hi)
            if root is not None:
                items.append(_RootItem(root, root, poly, mult))
            else:
                items.append(_RootItem(lo, hi, poly, mult))
    return items


def _separate_items(items: list[_RootItem]) -> None:
    changed = True
    while changed:
        changed = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                a, b = items[i], items[j]
                if a.lo <= b.hi and b.lo <= a.hi:
                    width = max(a.hi - a.lo, b.hi - b.lo) / 4
                    a.refine(width)
                    b.refine(width)
                    changed = True


def symmetric_eigenvalue_enclosures(m: Matrix, max_width: Fraction) -> list[Enclosure]:
    """Disjoint enclosures covering the spectrum of a symmetric matrix.

    One enclosure per eigenvalue counting multiplicity, sorted by lower
    endpoint, each of width <= max_width; rational eigenvalues come back as
    zero-width intervals.  Characteristic-polynomial coefficients, Sturm
    isolation and bisection are all exact.
    """
    if not is_symmetric(m):
        raise DomainError("eigenvalue enclosures require an exactly symmetric matrix")
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise DomainError("target width must be positive")
    p = char_poly(m)
    items = real_roots_with_multiplicity(p)
    if sum(it.multiplicity for it in items) != len(m):
        raise RuntimeError("symmetric matrix with non-real spectrum detected")
    for it in items:
        it.refine(max_width)
    _separate_items(items)
    out: list[Enclosure] = []
    for it in sorted(items, key=lambda it: (it.lo, it.hi)):
        enc = Enclosure(it.lo, it.hi)
        out.extend([enc] * it.multiplicity)
    return out


# ---------------------------------------------------------------------------
# roots in a disc (Schur-Cohn-Jury count), stability and unstable moduli

def count_inside(p: Poly, r) -> int | None:
    """Number of roots of p, with multiplicity, strictly inside |z| < r.

    Exact Schur-Cohn-Jury reduction (after Marden, Geometry of Polynomials,
    Thm 42.1) of q(z) = p(r z), kept in coprime integers a_0..a_n.  With
    q* the reversed polynomial: while |a_0| < |a_n|, a_n q - a_0 q* has the
    same roots in the unit disc as q (Rouche) and is z times a polynomial
    of degree n - 1; while |a_0| > |a_n|, a_0 q - a_n q* has the same roots
    in the disc and a lower degree.  A root of q on the unit circle is a
    root of every later polynomial, so a reduction that ends in a constant
    proves there is none, which the Rouche steps need.

    A step with delta = a_n^2 - a_0^2 = 0 happens whenever p has a root on
    |z| = r, and can happen at other radii too.  The count is then not
    decided and None is returned; it is never guessed.
    """
    r = Fraction(r)
    if r <= 0:
        raise DomainError("radius must be positive")
    p = poly_trim(p)
    if not p:
        raise DomainError("the zero polynomial has no root count")
    return _count_in_unit_disc(_scaled(_integer_form(p), r))


def _count_in_unit_disc(c: list[int]) -> int | None:
    """count_inside(c, 1) for integer coefficients c, low degree first."""
    inside = 0
    while len(c) > 1:
        a0, an = c[0], c[-1]
        if abs(a0) == abs(an):
            return None
        rev = c[::-1]
        if abs(a0) < abs(an):
            c = [an * x - a0 * y for x, y in zip(c[1:], rev[1:])]
            inside += 1
        else:
            c = [a0 * x - an * y for x, y in zip(c, rev)]
            while c[-1] == 0:
                c.pop()
        g = gcd(*c)
        c = [x // g for x in c]
    return inside


def schur_stable(p: Poly) -> bool:
    """True iff every root of p (real or complex) satisfies |root| < 1.

    Exact: count_inside(p, 1) == deg p.  For a stable p no reduction step
    is singular (|a_0| < |a_n| holds all the way down), so an undecided
    count means "not stable".
    """
    p = poly_trim(p)
    if poly_degree(p) < 1:
        return True
    return count_inside(p, 1) == poly_degree(p)


def _regular_radius(ints: list[int], radii) -> tuple[Fraction, int]:
    """The first of the radii where the count of ints is decided, and the count."""
    for r in radii:
        inside = _count_in_unit_disc(_scaled(ints, r))
        if inside is not None:
            return r, inside
    raise RuntimeError("no radius with a decided root count among the candidates")


def _split_radii(lo: Fraction, hi: Fraction):
    """The midpoint of (lo, hi), then points approaching it from above."""
    yield (lo + hi) / 2
    for j in range(2, 64):
        yield lo + (hi - lo) * Fraction((1 << (j - 1)) + 1, 1 << j)


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
    q = tuple(Fraction(c) for c in _scaled(ints, r))
    g = poly_gcd(q, q[::-1])
    rho = max(lo / r, r / hi)
    inside = count_inside(g, rho)
    if inside is None or poly_degree(g) - 2 * inside != k:
        return False
    if lo >= 1:
        return True
    s, _ = poly_divmod(g, poly_gcd(g, poly_deriv(g)))
    critical = count_inside(poly_deriv(s), 1)
    inner = count_inside(s, rho)
    return None not in (critical, inner) and poly_degree(s) - 1 - critical == inner


def unstable_moduli(p: Poly, tolerance: Fraction) -> list[tuple[Fraction, Fraction, int]]:
    """Brackets (lo, hi, k) that hold every root of p with modulus >= 1 once.

    lo == hi: the k roots add exactly k log2 lo to eta; their moduli are
    >= 1 and multiply to lo^k (each modulus is lo, or they pair up as lo*t
    and lo/t).  lo < hi: the k roots have moduli in (lo, hi), with
    hi <= max(1, lo) * (1 + tolerance); when lo < 1, some of them may have
    modulus below 1.

    Roots at 0 are dropped.  The moduli are isolated by bisecting on the
    radius with count_inside, moving to a nearby radius where the count is
    undecided.  A rational modulus u/v has v dividing the leading
    coefficient L of p's primitive integer form (L^2 |lambda|^2 is an
    algebraic integer), so a bracket narrower than 1/(2 L^2) has at most
    one candidate, its simplest rational, which _exact_bracket tests once
    per set of roots.
    """
    tolerance = Fraction(tolerance)
    p = poly_trim(p)
    while p and p[0] == 0:
        p = p[1:]
    n = poly_degree(p)
    if n < 1:
        return []
    if n == 1:  # one rational root
        modulus = abs(p[0] / p[1])
        return [(modulus, modulus, 1)] if modulus >= 1 else []
    top = Fraction(1 << int(cauchy_root_bound(p)).bit_length())
    ints = _integer_form(p)
    base, below = _regular_radius(
        ints, chain([Fraction(1)], (1 - Fraction(1, 1 << j) for j in range(4, 64))))
    lead = abs(ints[-1])
    sep = Fraction(1, 2 * lead * lead)
    out = []
    # (lo, count(lo), hi, count(hi), whether this set of roots was tested)
    stack = [(base, below, top, n, False)]
    while stack:
        lo, n_lo, hi, n_hi, tested = stack.pop()
        k = n_hi - n_lo
        if k == 0 or hi <= 1:
            continue
        if not tested and hi - lo < sep:
            r = simplest_between(lo, hi)
            if r.denominator <= lead and _exact_bracket(ints, r, lo, hi, k):
                out.append((r, r, k))
                continue
            tested = True
        floor = max(lo, Fraction(1))
        if tested and hi - floor <= floor * tolerance:
            out.append((lo, hi, k))
            continue
        mid, n_mid = _regular_radius(ints, _split_radii(lo, hi))
        stack.append((lo, n_lo, mid, n_mid, tested and n_mid - n_lo == k))
        stack.append((mid, n_mid, hi, n_hi, tested and n_hi - n_mid == k))
    return sorted(out)
