from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from certcap.linalg import as_matrix, char_poly, kernel_basis, mat_mul, transpose

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def matrices(draw, square=True):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = rows if square else draw(st.integers(min_value=1, max_value=6))
    return as_matrix([[draw(rationals) for _ in range(cols)] for _ in range(rows)])


def fraction_elimination(m) -> tuple[int, Fraction]:
    """(rank, determinant) by row reduction over Fractions, one per entry."""
    rows = [list(r) for r in m]
    det, rank = Fraction(1), 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        det *= rows[rank][c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank, det


def evaluate_at(coeffs, m):
    """p(M) by Horner's rule, coefficients low-degree-first."""
    n = len(m)
    value = as_matrix([[0] * n for _ in range(n)])
    for c in reversed(coeffs):
        value = mat_mul(value, m)
        value = tuple(tuple(v + (c if i == j else 0) for j, v in enumerate(row))
                      for i, row in enumerate(value))
    return value


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_char_poly_on_mixed_denominators(m):
    """Monic, c0 = (-1)^n det, c_{n-1} = -trace, and Cayley-Hamilton exactly."""
    n = len(m)
    p = char_poly(m)
    assert len(p) == n + 1 and p[n] == 1
    assert all(type(c) is Fraction for c in p)
    assert p[n - 1] == -sum(m[i][i] for i in range(n))
    assert p[0] == (-1) ** n * fraction_elimination(m)[1]
    assert all(v == 0 for row in evaluate_at(p, m) for v in row)


@given(matrices(square=False))
@settings(max_examples=150, deadline=None)
def test_kernel_basis_spans_the_null_space(m):
    basis, free = kernel_basis(m, len(m[0]))
    assert len(basis) == len(free) == len(m[0]) - fraction_elimination(m)[0]
    assert all(v == 0 for row in mat_mul(m, transpose(basis)) for v in row)
    assert [[vec[f] for f in free] for vec in basis] == [
        [int(i == j) for i in range(len(free))] for j in range(len(free))]


def reference_kernel_basis(m, ncols):
    """``kernel_basis`` over Fractions, one per entry: the same pivot search
    and row swaps, each pivot row divided by its pivot and eliminated from
    every other row."""
    rows = [list(r) for r in m]
    pivots = []
    for c in range(ncols):
        pivot = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        r = len(pivots)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f:
                rows[i] = [v - f * w for v, w in zip(other, rows[r])]
        pivots.append(c)
    row_of = {c: r for r, c in enumerate(pivots)}
    free = [c for c in range(ncols) if c not in row_of]
    return [tuple(-rows[row_of[c]][f] if c in row_of else Fraction(int(c == f))
                  for c in range(ncols)) for f in free], free


# mostly zeros, so that many rows have a 0 in the pivot column
sparse = st.sampled_from([Fraction(0)] * 5 + [Fraction(1), Fraction(-2), Fraction(3, 4),
                                              Fraction(-5, 6), Fraction(7, 3)])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_basis_matches_fraction_gauss_jordan(data):
    """Sparse rows of mixed denominators, with exact and scaled duplicates
    appended: the basis and free columns are the Fraction reference's."""
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    rows = data.draw(st.lists(st.lists(sparse, min_size=ncols, max_size=ncols), max_size=6))
    for i in data.draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1),
                                max_size=3) if rows else st.just([])):
        scale = data.draw(st.sampled_from([Fraction(1), Fraction(-3), Fraction(2, 5)]))
        rows.insert(data.draw(st.integers(min_value=0, max_value=len(rows))),
                    [scale * v for v in rows[i]])
    m = as_matrix(rows)
    assert kernel_basis(m, ncols) == reference_kernel_basis(m, ncols)


def test_kernel_basis_with_a_zero_in_the_pivot_column_and_a_duplicate_row():
    m = as_matrix([[0, 2, 1], [3, 0, 0], [0, 2, 1], [0, 0, 0]])
    basis, free = kernel_basis(m, 3)
    assert (basis, free) == reference_kernel_basis(m, 3)
    assert free == [2] and basis == [(0, Fraction(-1, 2), 1)]


def test_as_matrix_keeps_fractions_and_converts_the_rest():
    third = Fraction(1, 3)
    m = as_matrix([[third, 2], ["3/4", 0]])
    assert m[0][0] is third
    assert m == ((Fraction(1, 3), Fraction(2)), (Fraction(3, 4), Fraction(0)))
    assert all(type(v) is Fraction for row in m for v in row)
