"""Exact rational matrix arithmetic shared by the plant and root machinery.

Matrices are tuples of tuples of Fractions; everything here is pure and
allocation-light, sized for the small systems this package analyzes.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def as_matrix(rows) -> Matrix:
    mat = tuple(tuple(Fraction(v) for v in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return mat


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def mat_vec(a: Matrix, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def is_square(m: Matrix) -> bool:
    return bool(m) and all(len(row) == len(m) for row in m)


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return is_square(m) and all(m[i][j] == m[j][i]
                                for i in range(n) for j in range(i + 1, n))


def char_poly(m: Matrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial det(tI - M), low-degree-first.

    Faddeev-LeVerrier recursion: exact over the rationals, O(n^4).
    """
    if not is_square(m):
        raise ValueError("characteristic polynomial needs a square matrix")
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    work = identity(n)
    for k in range(1, n + 1):
        work = mat_mul(m, work)
        trace = sum(work[i][i] for i in range(n))
        c = -trace / k
        coeffs[n - k] = c
        if k < n:
            work = tuple(tuple(work[i][j] + (c if i == j else 0)
                               for j in range(n)) for i in range(n))
    return tuple(coeffs)


def _row_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, as column vectors."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _row_echelon([list(r) for r in m])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def restrict_to_invariant(a: Matrix, basis: list[tuple[Fraction, ...]]) -> Matrix:
    """Matrix of A on span(basis), assuming the span is A-invariant.

    Solves V y = A v exactly for each basis vector v (least structure
    needed: V has full column rank by construction).
    """
    if not basis:
        return ()
    n = len(a)
    k = len(basis)
    cols = [mat_vec(a, v) for v in basis]
    # Solve V Y = AV column by column via least-squares-free elimination on
    # the stacked system; V is n x k with rank k.
    v_rows = [[basis[j][i] for j in range(k)] for i in range(n)]
    out_cols = []
    for target in cols:
        aug = [v_rows[i] + [target[i]] for i in range(n)]
        rows, pivots = _row_echelon(aug)
        if len(pivots) != k or any(p >= k for p in pivots):
            raise ValueError("basis does not span an invariant subspace")
        # consistency of the remaining rows is implied by invariance
        y = [Fraction(0)] * k
        for r, p in enumerate(pivots):
            y[p] = rows[r][k]
        out_cols.append(y)
    return tuple(tuple(out_cols[j][i] for j in range(k)) for i in range(k))
