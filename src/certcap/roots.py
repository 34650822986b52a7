"""Exact polynomial root machinery over the rationals.

The one root count in the package is count_inside: the number of roots in
an open disc |z| < r, by the Schur-Cohn-Jury reduction in integers (short
precision first, exact where that cannot decide).  On it rest the
unit-circle (Schur) stability test and, by it, exact detectability and
stabilizability; the certified eigenvalue enclosures of symmetric rational
matrices, whose real spectrum it counts on intervals; and the producer's
bisection of the unstable moduli, which lives in plant.py.

Polynomials are tuples of Fractions, low degree first, trailing zeros
stripped.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .enclosure import DomainError, Enclosure
from .linalg import (Matrix, as_matrix, char_poly, integer_rows, is_symmetric, kernel_basis,
                     mat_mul, transpose)

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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b (empty if both are zero)."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def cauchy_root_bound(p: Poly) -> Fraction:
    """Strict bound: every root r satisfies |r| < bound."""
    if poly_degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def _integer_form(p: Poly) -> list[int]:
    """Coprime integer coefficients of a nonzero p: the same roots as p."""
    ints = integer_rows([p])[0][0]
    g = gcd(*ints)
    return [c // g for c in ints]


def _scaled(ints: list[int], u: int, v: int) -> list[int]:
    """Integer coefficients of v^n * q(u z / v) for q = ints."""
    n = len(ints) - 1
    return [c * u ** k * v ** (n - k) for k, c in enumerate(ints)]


# ---------------------------------------------------------------------------
# roots in a disc (Schur-Cohn-Jury count) and stability

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

    Each count runs first on P-bit integers (Fortune and Van Wyk 1996;
    Shewchuk 1997).  _filtered_count's t stand for T = lambda a, |t - T| <=
    err, lambda > 0 (2^-shift times the exact gcds' product); it steps only
    where |a_n| - |a_0| exceeds 2 err and, after an a_0 step, the new
    leading |t| exceeds err, so its branches and pops, and thus its count,
    are the exact ones.  Else _exact_count runs, the only source of None.
    """
    r = Fraction(r)
    if r <= 0:
        raise DomainError("radius must be positive")
    p = poly_trim(p)
    if not p:
        raise DomainError("the zero polynomial has no root count")
    return _count_in_unit_disc(_scaled(_integer_form(p), r.numerator, r.denominator))


def _count_in_unit_disc(c: list[int]) -> int | None:
    """count_inside(c, 1) for integer coefficients c, low degree first."""
    inside = _filtered_count(c)
    return _exact_count(c) if inside is None else inside


def _filtered_count(c: list[int]) -> int | None:
    """_exact_count(c), or None where P-bit integers cannot certify a step.

    A step errs by <= err (|a_n| + |x| + |a_0| + |y|) + 2 err^2, a shift by
    < 1 more; P allows for a complex pair 2^-(bits per coefficient) off |z| = 1.
    """
    prec = 96 + 2 * max(map(abs, c)).bit_length() // len(c)
    err = inside = 0
    while len(c) > 1:
        s = max(max(map(abs, c)).bit_length() - prec, 0)
        if s:
            c, err = [x >> s for x in c], (err >> s) + 2
        a0, an = c[0], c[-1]
        gap = abs(an) - abs(a0)
        if abs(gap) <= 2 * err:
            return None
        err = err * ((4 << prec) + 2 * err)
        if gap > 0:
            c = [an * x - a0 * y for x, y in zip(c[1:], c[-2::-1])]
            inside += 1
        else:
            c = [a0 * x - an * y for x, y in zip(c[:-1], c[:0:-1])]
            if abs(c[-1]) <= err:
                return None
    return inside


def _exact_count(c: list[int]) -> int | None:
    """The reduction in exact integers, normalised by their gcd at each step."""
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


def is_detectable(a: Matrix, c: Matrix) -> bool:
    """Every mode outside the open unit circle is visible to the sensor map.

    Equivalent to the per-eigenvalue rank condition [A - zI; C] full rank at
    all |z| >= 1 (Hautus 1969): the rank drops exactly at eigenvalues of A
    restricted to the unobservable subspace, the kernel V of [C; CA; ...;
    CA^(n-1)].  The stack stops at the first block C A^k that annihilates the
    kernel K of the blocks above it: C A^j (A K) = 0 for j < k, so A K lies in
    K, every later block annihilates K, and K is V.  Stack and test use the
    integer rows of (d C)(e A)^k and d' K, d, e, d' > 0: the same kernels.
    V is A-invariant, so A V = V Y, and V's rows at its free columns are the
    identity, so Y is A V's rows there (A itself when C has no rows).
    """
    a, c = as_matrix(a), as_matrix(c)
    step, power = integer_rows(a)[0], integer_rows(c)[0]
    rows = list(power)
    basis, free = kernel_basis(rows, len(a))
    for _ in range(len(a) - 1):
        if not basis:
            return True
        power = mat_mul(power, step)
        if not any(map(any, mat_mul(power, transpose(integer_rows(basis)[0])))):
            break
        rows.extend(power)
        basis, free = kernel_basis(rows, len(a))
    if not basis:
        return True
    v = transpose(basis)
    image = mat_mul(a, v)
    restriction = tuple(image[f] for f in free)
    if mat_mul(v, restriction) != image:
        raise RuntimeError("unobservable subspace is not A-invariant")
    return schur_stable(char_poly(restriction))


def is_stabilizable(a: Matrix, b: Matrix) -> bool:
    """Every mode outside the open unit circle is reachable from the inputs."""
    return is_detectable(transpose(as_matrix(a)), transpose(as_matrix(b)))


def _first_decided(count, points) -> tuple:
    """The first of the points where count(point) is decided, and the count."""
    for x in points:
        inside = count(x)
        if inside is not None:
            return x, inside
    raise RuntimeError("no point with a decided root count among the candidates")


def _split_radii(lo, hi):
    """The midpoint of (lo, hi), then points approaching it from above, as x / 2^j: (x, j)."""
    yield lo + hi, 1
    for j in range(2, 64):
        yield lo * (1 << j) + (hi - lo) * ((1 << (j - 1)) + 1), j


def _square_free_part(p: Poly) -> Poly:
    """p / gcd(p, p'): each distinct root of p once."""
    return poly_divmod(p, poly_gcd(p, poly_deriv(p)))[0]


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in the closed interval [lo, hi].

    Ties on denominator are broken by the continued-fraction walk, which is
    deterministic.  Used to pin down exact rational roots once an isolating
    interval is narrow enough.
    """
    if lo > hi:
        raise ValueError("empty interval")
    if hi < 0:
        return -simplest_between(-hi, -lo)
    if lo <= 0:
        return Fraction(0)
    # the continued-fraction walk on lo = a/b <= hi = c/d, with the last two
    # convergents p1/q1 and p0/q0 of the partial quotients taken so far
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        ceil_lo = -(-a // b)
        if ceil_lo * d <= c:
            return Fraction(ceil_lo * p1 + p0, ceil_lo * q1 + q0)
        whole = a // b
        p0, q0, p1, q1 = p1, q1, whole * p1 + p0, whole * q1 + q0
        a, b, c, d = d, c - whole * d, b, a - whole * b


# ---------------------------------------------------------------------------
# certified eigenvalue enclosures for symmetric rational matrices

def _count_between(p: Poly, lo: Fraction, hi: Fraction) -> int | None:
    """count_inside on the open interval (lo, hi), for p with only real roots.

    The disc is centred at c = (lo + hi) / 2: repeated synthetic division
    gives the coefficients of p(z + c).
    """
    c, q = (lo + hi) / 2, list(p)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += c * q[j + 1]
    return count_inside(q, (hi - lo) / 2)


def symmetric_eigenvalue_enclosures(m: Matrix, max_width: Fraction) -> list[Enclosure]:
    """Disjoint enclosures covering the spectrum of a symmetric matrix.

    One enclosure per eigenvalue counting multiplicity, sorted by lower
    endpoint, each of width <= max_width; rational eigenvalues come back as
    zero-width intervals.  Characteristic-polynomial coefficients, root
    counts and bisection are all exact.

    The spectrum is real, so _count_between counts eigenvalues on
    intervals.  Bisection with these counts isolates each root of the
    square-free part s of the characteristic polynomial p.  Sign halving
    narrows its bracket (lo, hi) strictly inside, keeping neighbours
    disjoint, and below 1/(2 L^2), L the leading coefficient of s's
    primitive integer form, so the simplest rational in it is the only
    possible rational root (its denominator divides L).  The multiplicity
    is the count of p between the narrow bracket and (lo, hi).
    """
    if not is_symmetric(m):
        raise DomainError("eigenvalue enclosures require an exactly symmetric matrix")
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise DomainError("target width must be positive")
    p = char_poly(m)
    s = _square_free_part(p)
    lead = abs(_integer_form(s)[-1])
    width = min(Fraction(1, 2 * lead * lead), max_width)
    top = Fraction(1 << int(cauchy_root_bound(s)).bit_length())
    roots = []
    # (lo, hi, number of roots of s in the open interval (lo, hi))
    stack = [(-top, top, poly_degree(s))]
    while stack:
        lo, hi, k = stack.pop()
        if k > 1:
            mid, left = _first_decided(lambda x: _count_between(s, lo, x),
                                       (x / (1 << j) for x, j in _split_radii(lo, hi)))
            stack += [(lo, mid, left), (mid, hi, k - left)]
        elif k == 1:
            a, b = lo, hi
            rising = poly_eval(s, hi) > 0
            while a == lo or b == hi or b - a >= width:
                mid = (a + b) / 2
                value = poly_eval(s, mid)
                if value == 0:
                    a = b = mid
                elif (value > 0) == rising:
                    b = mid
                else:
                    a = mid
            r = simplest_between(a, b)
            if r.denominator <= lead and poly_eval(s, r) == 0:
                a = b = r
            _, mult = _first_decided(
                lambda t: _count_between(p, a - (a - lo) * t, b + (hi - b) * t),
                (x / (1 << j) for x, j in _split_radii(Fraction(0), Fraction(1))))
            roots.append((a, b, mult))
    if sum(mult for _, _, mult in roots) != len(m):
        raise RuntimeError("symmetric matrix with non-real spectrum detected")
    return [Enclosure(a, b) for a, b, mult in sorted(roots) for _ in range(mult)]
