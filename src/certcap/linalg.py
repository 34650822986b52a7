"""Exact rational matrix arithmetic shared by the plant and root machinery.

Matrices are tuples of tuples of Fractions; everything here is pure and
allocation-light, sized for the small systems this package analyzes.
Elimination runs on integer numerators over one shared denominator
(``integer_pivot``), so no Fraction is built inside a pivot.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
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


def integer_pivot(rows: list[list[int]], den: int, row: int, col: int) -> int:
    """Gauss-Jordan pivot on (row, col) of rows / den, in place; returns the
    new den.  Integer-preserving (Edmonds 1967; Bareiss 1968): with p the
    pivot, each other row becomes p * row - f * pivot_row, the pivot row
    den * pivot_row and den den * p, a negative pivot row being negated
    first so that den stays positive and numerators carry their values'
    signs; then all is divided by gcd(den, *entries).
    """
    line = rows[row]
    if line[col] < 0:
        line = [-w for w in line]
    p = line[col]
    for r, other in enumerate(rows):
        f = other[col]
        if r == row:
            rows[r] = [den * w for w in line]
        elif f:
            rows[r] = [p * v - f * w for v, w in zip(other, line)]
        elif p != 1:
            rows[r] = [p * v for v in other]
    den *= p
    g = gcd(den, *chain.from_iterable(rows))
    if g > 1:
        rows[:] = [[v // g for v in other] for other in rows]
        den //= g
    return den


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
    Gauss-Jordan pass, on integer rows (``integer_pivot``).
    """
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"rows must have {ncols} columns")
    rows, den = integer_rows(rows)
    pivots: list[int] = []
    for c in range(ncols):
        pivot = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if pivot is not None:
            r = len(pivots)
            rows[r], rows[pivot] = rows[pivot], rows[r]
            den = integer_pivot(rows, den, r, c)
            pivots.append(c)
    pivot_row = dict(zip(pivots, rows))
    free = [c for c in range(ncols) if c not in pivot_row]
    basis = [tuple(Fraction(-pivot_row[c][f], den) if c in pivot_row else Fraction(int(c == f))
                   for c in range(ncols)) for f in free]
    return basis, free
