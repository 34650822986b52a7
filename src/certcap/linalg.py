"""Exact rational matrix arithmetic shared by the plant and root machinery.

Matrices are tuples of tuples of Fractions; everything here is pure and
allocation-light, sized for the small systems this package analyzes.
Elimination runs on integer rows, each over its own positive denominator
(``integer_pivot``), so no Fraction is built inside a pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = tuple[tuple[Fraction, ...], ...]


def as_matrix(rows) -> Matrix:
    """rows as a Matrix; the Fractions in it are kept, not rebuilt."""
    mat = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return mat


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def is_square(m: Matrix) -> bool:
    return bool(m) and all(len(row) == len(m) for row in m)


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return is_square(m) and all(m[i][j] == m[j][i]
                                for i in range(n) for j in range(i + 1, n))


def integer_rows(rows) -> tuple[list[list[int]], int]:
    """Integer rows N and the lcm d of the entries' denominators: rows == N / d."""
    d = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in rows], d


def integer_pivot(rows: list[list[int]], dens: list[int], row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col), in place, of the matrix whose row r
    is rows[r] / dens[r], each den positive.  Integer-preserving (Edmonds
    1967): the pivot row is divided by the gcd of its entries, signed like
    its pivot p, and goes over den p; each row with f != 0 in the pivot
    column becomes p * row - f * pivot_row over dens[r] * p, reduced by the
    gcd of its entries and den.  Rows with a 0 there are not touched.
    """
    line = rows[row]
    g = gcd(*line) if line[col] > 0 else -gcd(*line)
    if g != 1:
        line = rows[row] = [w // g for w in line]
    p = dens[row] = line[col]
    nonzero = [(j, w) for j, w in enumerate(line) if w]
    for r, other in enumerate(rows):
        f = other[col]
        if f and r != row:
            other = [p * v for v in other] if p != 1 else other[:]
            for j, w in nonzero:
                other[j] -= f * w
            den = dens[r] * p
            g = gcd(den, *other)
            rows[r], dens[r] = [v // g for v in other] if g > 1 else other, den // g


def char_poly(m: Matrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial det(tI - M), low-degree-first.

    Faddeev-LeVerrier recursion, O(n^4), on the integer matrix A = d M (d
    the lcm of M's denominators): A's coefficients a_j are integers, so
    every trace divides by k exactly, and c_j = a_j / d^(n - j).
    """
    if not is_square(m):
        raise ValueError("characteristic polynomial needs a square matrix")
    n = len(m)
    a, d = integer_rows(m)
    coeffs = [0] * n + [1]
    work = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for k in range(1, n + 1):
        work = mat_mul(a, work)
        c = -sum(work[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        if k < n:
            work = tuple(tuple(work[i][j] + (c if i == j else 0)
                               for j in range(n)) for i in range(n))
    return tuple(Fraction(c, d ** (n - j)) for j, c in enumerate(coeffs))


def kernel_basis(rows, ncols: int) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Basis of the right null space of a matrix with ncols columns, and its
    free columns: basis vector j is 1 at column free[j] and 0 at the other
    free columns.  A matrix with no rows leaves every column free.  One
    Gauss-Jordan pass, on integer rows each over its own den (``integer_pivot``).
    """
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"rows must have {ncols} columns")
    rows, dens = integer_rows(rows)[0], [1] * len(rows)  # d M, with M's kernel
    row_of: dict[int, int] = {}  # pivot column -> its row
    for c in range(ncols):
        pivot = next((i for i in range(len(row_of), len(rows)) if rows[i][c]), None)
        if pivot is not None:
            r = row_of[c] = len(row_of)
            rows[r], rows[pivot], dens[r], dens[pivot] = rows[pivot], rows[r], dens[pivot], dens[r]
            integer_pivot(rows, dens, r, c)
    free = [c for c in range(ncols) if c not in row_of]
    basis = [tuple(Fraction(-rows[row_of[c]][f], dens[row_of[c]]) if c in row_of
                   else Fraction(int(c == f)) for c in range(ncols)) for f in free]
    return basis, free
