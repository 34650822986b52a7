"""Plant descriptions and certified structural analysis.

Everything here rests on one exact root count, roots.count_inside, applied
to characteristic polynomials.  The instability exponent sums log2 of the
eigenvalue moduli >= 1, bracketed by bisecting on the radius of the count;
InstabilityExponent keeps that bisection, so each narrower enclosure only
splits the brackets that block it.
Detectability and stabilizability are decided exactly, by schur_stable on
A restricted to the unobservable (resp. uncontrollable) subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enclosure import (DomainError, Enclosure, load_json, log2_enclosure, parse_rational,
                        rational_str)
from .linalg import Matrix, as_matrix, char_poly, is_square, kernel_basis, mat_mul, transpose
from .roots import UnstableModuli, schur_stable

DEFAULT_ETA_WIDTH = Fraction(1, 1 << 30)


class PlantFormatError(ValueError):
    """Plant document fails the schema or shape checks."""


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

    def to_json(self) -> dict:
        doc = {"A": [[rational_str(v) for v in row] for row in self.a]}
        if self.c is not None:
            doc["C"] = [[rational_str(v) for v in row] for row in self.c]
        if self.b is not None:
            doc["B"] = [[rational_str(v) for v in row] for row in self.b]
        if self.disturbance_bound is not None:
            doc["D"] = rational_str(self.disturbance_bound)
        return doc


def load_plant(doc) -> Plant:
    if isinstance(doc, str):
        doc = load_json(doc, PlantFormatError)
    if not isinstance(doc, dict) or "A" not in doc:
        raise PlantFormatError("plant document must be an object with an A matrix")

    def mat(key):
        if key not in doc or doc[key] is None:
            return None
        rows = doc[key]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise PlantFormatError(f"{key} must be a list of rows, got {rows!r}")
        return as_matrix([[parse_rational(v) for v in row] for row in rows])

    bound = parse_rational(doc["D"]) if "D" in doc else None
    return Plant(mat("A"), c=mat("C"), b=mat("B"), disturbance_bound=bound)


class InstabilityExponent:
    """eta(A) as a refinable real: the unstable moduli of A, bracketed once.

    eta(A) = sum of log2 |lambda| over the eigenvalues of A with
    |lambda| >= 1, counted with multiplicity.  The characteristic
    polynomial is computed once and its moduli are bracketed by one
    roots.UnstableModuli, which enclose(w) only narrows; each bracket of k
    roots adds k * [log2 lo, log2 hi], with log2 taken as 0 below one.
    Rational moduli are found exactly, so a plant whose unstable moduli are
    powers of two, one, or all below one yields a zero-width enclosure.
    """

    def __init__(self, a: Matrix):
        a = as_matrix(a)
        self.dim = len(a)
        self.moduli = UnstableModuli(char_poly(a))

    def enclose(self, max_width: Fraction) -> Enclosure:
        """Enclosure of eta of width <= max_width, the same as a fresh one."""
        max_width = Fraction(max_width)
        if max_width <= 0:
            raise DomainError("target width must be positive")
        n = self.dim
        log_width = max_width / (16 * n)
        lo_sum = hi_sum = Fraction(0)
        # hi <= lo * (1 + max_width / (3n)) keeps log2(hi / lo) below max_width / (2n)
        for lo, hi, k in self.moduli.brackets(max_width / (3 * n)):
            upper = log2_enclosure(hi, log_width)
            if lo == hi:
                lower = upper
            else:
                lower = log2_enclosure(lo, log_width) if lo > 1 else Enclosure.exact(Fraction(0))
            lo_sum += k * lower.lo
            hi_sum += k * upper.hi
        result = Enclosure(lo_sum, hi_sum)
        if result.width > max_width:
            raise RuntimeError("width budget violated in exponent assembly")
        return result


def instability_exponent(a: Matrix, max_width: Fraction = DEFAULT_ETA_WIDTH) -> Enclosure:
    """eta(A), the data rate the plant's unstable part generates, to max_width."""
    return InstabilityExponent(a).enclose(max_width)


def is_detectable(a: Matrix, c: Matrix) -> bool:
    """Every mode outside the open unit circle is visible to the sensor map.

    Equivalent to the per-eigenvalue rank condition [A - zI; C] full rank at
    all |z| >= 1 (Hautus 1969): the rank drops exactly at eigenvalues of A
    restricted to the unobservable subspace, the kernel V of [C; CA; ...;
    CA^(n-1)].  The stack stops at the first block C A^k that annihilates the
    kernel K of the blocks above it: C A^j (A K) = 0 for j < k, so A K lies in
    K, every later block annihilates K, and K is V.  V is A-invariant, so
    A V = V Y, and V's rows at its free columns are the identity, so Y is A V's
    rows there.  A C with no rows leaves the whole state unobservable: Y is A.
    """
    a, c = as_matrix(a), as_matrix(c)
    rows, power = list(c), c
    basis, free = kernel_basis(rows, len(a))
    for _ in range(len(a) - 1):
        if not basis:
            return True
        power = mat_mul(power, a)
        if not any(map(any, mat_mul(power, transpose(basis)))):
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
