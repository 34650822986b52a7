"""Plant descriptions and certified structural analysis.

Everything here rests on one exact root count, roots.count_inside, applied
to characteristic polynomials.  The instability exponent sums log2 of the
eigenvalue moduli >= 1, bracketed by bisecting on the radius of the count.
Stability, detectability and stabilizability are decided exactly: the
unobservable (resp. uncontrollable) subspace is computed over the rationals
and its induced dynamics are put through the all-roots-inside-the-unit-
circle test schur_stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .enclosure import DomainError, Enclosure, log2_enclosure, parse_rational, rational_str
from .linalg import (Matrix, as_matrix, char_poly, is_square, kernel_basis, mat_mul,
                     restrict_to_invariant, transpose)
from .roots import schur_stable, unstable_moduli

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

    @property
    def dim(self) -> int:
        return len(self.a)

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
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise PlantFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "A" not in doc:
        raise PlantFormatError("plant document must be an object with an A matrix")

    def mat(key):
        if key not in doc or doc[key] is None:
            return None
        return as_matrix([[parse_rational(v) for v in row] for row in doc[key]])

    bound = parse_rational(doc["D"]) if "D" in doc else None
    return Plant(mat("A"), c=mat("C"), b=mat("B"), disturbance_bound=bound)


def instability_exponent(a: Matrix, max_width: Fraction = DEFAULT_ETA_WIDTH) -> Enclosure:
    """Enclosure of the data rate generated by the plant's unstable part.

    eta(A) = sum of log2 |lambda| over the eigenvalues of A with
    |lambda| >= 1, counted with multiplicity.  The moduli come bracketed
    from roots.unstable_moduli on the characteristic polynomial; each
    bracket of k roots adds k * [log2 lo, log2 hi], with log2 taken as 0
    below one.  Rational moduli are found exactly, so a plant whose unstable
    moduli are powers of two, one, or all below one yields a zero-width
    enclosure.
    """
    a = as_matrix(a)
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise DomainError("target width must be positive")
    n = len(a)
    log_width = max_width / (16 * n)
    lo_sum = hi_sum = Fraction(0)
    # hi <= lo * (1 + max_width / (3n)) keeps log2(hi / lo) below max_width / (2n)
    for lo, hi, k in unstable_moduli(char_poly(a), max_width / (3 * n)):
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


def is_unstable(a: Matrix) -> str:
    """"yes" when some eigenvalue of A has modulus >= 1, else "no".

    Exact: the negation of schur_stable on the characteristic polynomial,
    so an eigenvalue on the unit circle (the identity, say) gives "yes".
    """
    return "no" if schur_stable(char_poly(as_matrix(a))) else "yes"


def _unobservable_basis(a: Matrix, c: Matrix):
    n = len(a)
    rows = [list(row) for row in c]
    power = c
    for _ in range(n - 1):
        power = mat_mul(power, a)
        rows.extend(list(row) for row in power)
    return kernel_basis(as_matrix(rows))


def is_detectable(a: Matrix, c: Matrix) -> bool:
    """Every mode outside the open unit circle is visible to the sensor map.

    Equivalent to the per-eigenvalue rank condition [A - zI; C] full rank at
    all |z| >= 1: the rank drops exactly at eigenvalues of A restricted to
    the unobservable subspace, so it suffices to decide Schur stability of
    that restriction, which is exact rational work.
    """
    a = as_matrix(a)
    c = as_matrix(c)
    basis = _unobservable_basis(a, c)
    if not basis:
        return True
    restriction = restrict_to_invariant(a, basis)
    return schur_stable(char_poly(restriction))


def is_stabilizable(a: Matrix, b: Matrix) -> bool:
    """Every mode outside the open unit circle is reachable from the inputs."""
    return is_detectable(transpose(as_matrix(a)), transpose(as_matrix(b)))
