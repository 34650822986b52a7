import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certcap import plant as plant_module
from certcap import roots as roots_module
from certcap.classify import EtaTask, Regime, classify, revalidate
from certcap.enclosure import (DomainError, Enclosure, log2_enclosure, log2_fixed,
                               parse_rational, width_bits)
from certcap.linalg import as_matrix, char_poly, kernel_basis, mat_mul, transpose
from certcap.plant import (InstabilityExponent, Plant, PlantFormatError, RefinableLog2,
                           UnstableModuli, instability_exponent, load_plant)
from certcap.roots import is_detectable, is_stabilizable, schur_stable
from conftest import (MALFORMED_RATIONALS, intersects, load_outcome, rational_spelling,
                      reference_detectability)

F = Fraction
mpmath.mp.dps = 40


class TestExponent:
    def test_diag_two_half_is_exactly_one(self):
        enc = instability_exponent(as_matrix([[2, 0], [0, F(1, 2)]]))
        assert enc.lo == enc.hi == 1

    def test_rotation_scaled_by_two(self):
        enc = instability_exponent(as_matrix([[0, 2], [-2, 0]]))
        assert enc.lo == enc.hi == 2

    def test_diag_three_matches_log_oracle(self):
        enc = instability_exponent(as_matrix([[3]]), F(1, 2 ** 20))
        assert enc.width <= F(1, 2 ** 20)
        value = mpmath.log(3, 2)
        assert float(enc.lo) <= value <= float(enc.hi)

    def test_all_stable_modes_give_exact_zero(self):
        enc = instability_exponent(as_matrix([[F(1, 2), F(1, 3)], [0, F(1, 4)]]))
        assert enc.lo == enc.hi == 0

    def test_gram_route_identity_regression(self):
        # public value == half the clamped log-spectrum of A A^T, here from
        # mpmath's singular values of A; both exceed 1, so it is log2 |det A|
        a = as_matrix([[2, 1], [0, F(3, 2)]])
        width = F(1, 2 ** 16)
        enc = instability_exponent(a, width)
        sigma = mpmath.svd_r(mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator
                                             for x in row] for row in a]), compute_uv=False)
        value = sum(mpmath.log(max(1, s * s), 2) for s in sigma)
        lo, hi = (F(mpmath.nstr(value + d, 35)) for d in (-1e-30, 1e-30))
        assert intersects(Enclosure(lo / 2, hi / 2), enc)

    def test_block_diagonal_additivity(self):
        a1 = as_matrix([[2]])
        a2 = as_matrix([[3]])
        block = as_matrix([[2, 0], [0, 3]])
        width = F(1, 2 ** 16)
        e1 = instability_exponent(a1, width)
        e2 = instability_exponent(a2, width)
        eb = instability_exponent(block, width)
        assert intersects(eb, Enclosure(e1.lo + e2.lo, e1.hi + e2.hi))


def random_rational_rotation(rng) -> tuple:
    """Rational orthogonal 2x2 from the tangent half-angle parametrization."""
    t = F(rng.randint(-9, 9), rng.randint(1, 9))
    d = 1 + t * t
    c, s = (1 - t * t) / d, 2 * t / d
    rot = [[c, -s], [s, c]]
    if rng.random() < 0.5:
        rot = [[c, s], [s, -c]]  # include reflections
    return as_matrix(rot)


@pytest.mark.parametrize("shared", [True, False], ids=["one-denominator", "own-denominators"])
def test_exponent_of_a_plant_with_60_digit_denominators_matches_mpmath(shared):
    """3x3 plants over 60-digit denominators, one shared (moduli about 2.96
    twice and 0.876) or one per entry (about 2.32 twice and 0.282): the
    characteristic polynomial has coefficients of hundreds or thousands of
    bits.  Each bracket stops once log2 of its ends agree to the digits the
    enclosure reports, after 41 root counts and no exact-modulus test;
    test_a_power_of_two_beside_a_60_digit_block keeps the deep path."""
    rng = random.Random(60)
    q = rng.randrange(10 ** 59, 10 ** 60)
    a = as_matrix([[F(rng.randrange(-3 * q, 3 * q),
                      q if shared else rng.randrange(10 ** 59, 10 ** 60))
                    for _ in range(3)] for _ in range(3)])
    enc = instability_exponent(a, F(1, 1 << 30))
    assert enc.width <= F(1, 1 << 30)
    with mpmath.workdps(60):
        eigenvalues = mpmath.eig(mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator
                                                 for x in row] for row in a]))[0]
        eta = sum(mpmath.log(abs(v), 2) for v in eigenvalues if abs(v) >= 1)
        assert sum(abs(v) > 1 for v in eigenvalues) == 2
        assert mpmath.mpf(enc.lo.numerator) / enc.lo.denominator <= eta
        assert eta <= mpmath.mpf(enc.hi.numerator) / enc.hi.denominator


def _huge_rational_matrix(digits: int, n: int, shared: bool) -> list:
    rng = random.Random(digits)
    q = rng.randrange(10 ** (digits - 1), 10 ** digits)
    return [[F(rng.randrange(-3 * q, 3 * q),
               q if shared else rng.randrange(10 ** (digits - 1), 10 ** digits))
             for _ in range(n)] for _ in range(n)]


def _mpmath_eta(a, dps: int):
    with mpmath.workdps(dps):
        eigenvalues = mpmath.eig(mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator
                                                 for x in row] for row in a]))[0]
        return sum(mpmath.log(abs(v), 2) for v in eigenvalues if abs(v) >= 1)


def _encloses(enc: Enclosure, value) -> bool:
    return (mpmath.mpf(enc.lo.numerator) / enc.lo.denominator <= value
            <= mpmath.mpf(enc.hi.numerator) / enc.hi.denominator)


def _spy_root_counts(monkeypatch) -> list:
    calls = []
    real = plant_module._count_in_unit_disc
    monkeypatch.setattr(plant_module, "_count_in_unit_disc",
                        lambda p: calls.append(1) or real(p))
    return calls


def test_a_power_of_two_beside_a_60_digit_block(monkeypatch):
    """block-diag(2, B), B 2x2 over its own 60-digit denominators: every
    bracket about the modulus 2 holds a power of two, so its digits never
    settle and the bisection takes it below 1/(2 L^2), past 2^-1500, with
    root counts on the long-precision path, to the exact leaf (2, 2, 1)."""
    widths = []
    real = plant_module.simplest_between
    monkeypatch.setattr(plant_module, "simplest_between",
                        lambda lo, hi: widths.append(hi - lo) or real(lo, hi))
    b = _huge_rational_matrix(60, 2, shared=False)
    a = as_matrix([[2, 0, 0], [0] + b[0], [0] + b[1]])
    width = F(1, 1 << 30)
    exponent = InstabilityExponent(a)
    enc = exponent.enclose(width)
    assert enc.width <= width
    assert min(widths) < F(1, 1 << 1500)
    brackets = exponent.moduli.brackets(width / 9, width_bits(width / 48))
    assert (F(2), F(2), 1) in brackets
    assert _encloses(enc, _mpmath_eta(a, 60))


@pytest.mark.parametrize("shared, ceiling", [(True, 140), (False, 60)],
                         ids=["one-denominator", "own-denominators"])
def test_exponent_of_a_plant_with_400_digit_denominators(monkeypatch, shared, ceiling):
    # the one-denominator plant took 23 921 root counts (24 s on a 2-vCPU Xeon)
    # when every bracket went down to 1/(2 L^2); now 112, and 42 with own ones
    calls = _spy_root_counts(monkeypatch)
    a = as_matrix(_huge_rational_matrix(400, 3, shared))
    enc = instability_exponent(a, F(1, 1 << 30))
    assert len(calls) <= ceiling
    assert enc.width <= F(1, 1 << 30)
    assert _encloses(enc, _mpmath_eta(a, 450))


def test_similarity_invariance_under_orthogonal_conjugation():
    rng = random.Random(20240817)
    a = as_matrix([[2, 1], [0, F(1, 2)]])
    width = F(1, 2 ** 12)
    base = instability_exponent(a, width)
    for _ in range(25):
        s = random_rational_rotation(rng)
        st = tuple(zip(*s))
        conj = mat_mul(mat_mul(s, a), as_matrix(st))
        assert intersects(instability_exponent(conj, width), base)


class TestStability:
    def test_expanding(self):
        assert schur_stable(char_poly(as_matrix([[2]]))) is False

    def test_contracting(self):
        assert schur_stable(char_poly(as_matrix([[F(1, 2)]]))) is True

    def test_identity_pinned_exactly(self):
        assert schur_stable(char_poly(as_matrix([[1, 0], [0, 1]]))) is False

    def test_barely_stable_rational(self):
        assert schur_stable(char_poly(as_matrix([[F(1048575, 1048576)]]))) is True


class TestStructure:
    def test_detectable_when_unstable_mode_observed(self):
        a = as_matrix([[2, 0], [0, F(1, 2)]])
        assert is_detectable(a, as_matrix([[1, 0]])) is True

    def test_not_detectable_when_unstable_mode_hidden(self):
        a = as_matrix([[2, 0], [0, 3]])
        assert is_detectable(a, as_matrix([[1, 0]])) is False

    def test_stable_hidden_modes_are_fine(self):
        a = as_matrix([[2, 0], [0, F(1, 3)]])
        assert is_detectable(a, as_matrix([[1, 0]])) is True

    def test_scalar_stabilizable(self):
        assert is_stabilizable(as_matrix([[2]]), as_matrix([[1]])) is True

    def test_wide_input_map(self):
        a = as_matrix([[2, 0], [0, 3]])
        b = as_matrix([[1, 0], [0, 1]])
        assert is_stabilizable(a, b) is True
        b_single = as_matrix([[1], [1]])
        assert is_stabilizable(a, b_single) is True  # distinct modes, one input

    def test_unreachable_unstable_mode(self):
        a = as_matrix([[2, 0], [0, 3]])
        b = as_matrix([[1], [0]])
        assert is_stabilizable(a, b) is False

    def test_complex_unstable_pair_visible(self):
        a = as_matrix([[0, 2], [-2, 0]])  # eigenvalues +-2i
        assert is_detectable(a, as_matrix([[1, 0]])) is True
        assert is_detectable(a, as_matrix([[0, 0]])) is False

    def test_complex_stable_pair_hidden_is_fine(self):
        a = as_matrix([[0, F(1, 2)], [F(-1, 2), 0]])  # eigenvalues +-i/2
        assert is_detectable(a, as_matrix([[0, 0]])) is True

    def test_empty_maps_hide_every_mode(self):
        # a C with no rows is no sensor and a B with no columns no input
        for a, stable in (([[F(3, 2)]], False), ([[F(1, 2)]], True)):
            assert is_detectable(as_matrix(a), ()) is stable
            assert is_stabilizable(as_matrix(a), ((),)) is stable

    def test_jordan_block_at_one(self):
        a = as_matrix([[1, 1], [0, 1]])
        assert is_detectable(a, as_matrix([[1, 0]])) is True
        assert is_detectable(a, as_matrix([[0, 1]])) is False


_block_entries = st.sampled_from(sorted({F(p, q) for p in range(-8, 9) for q in (1, 2, 4)}))


def _mul(x, y):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*y)] for row in x]


def _identity(rows, cols):
    return [[F(int(i == j)) for j in range(cols)] for i in range(rows)]


@st.composite
def _similarity(draw, n):
    """A random rational T and its inverse, built from elementary row operations."""
    t, inv = _identity(n, n), _identity(n, n)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i, j = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(2))
        q = draw(_block_entries.filter(bool))
        if i == j:  # row i of T times q; column i of T^-1 over q
            t[i] = [q * v for v in t[i]]
            for row in inv:
                row[i] /= q
        else:  # row j of T plus q row i; column i of T^-1 minus q column j
            t[j] = [v + q * w for v, w in zip(t[j], t[i])]
            for row in inv:
                row[i] -= q * row[j]
    return t, inv


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hidden_unobservable_block_decides_detectability(data):
    """A = [[A11, 0], [X, A22]] with C = [I_k | 0] hides exactly the A22 block
    from the sensor, and its dual [[A11, X^T], [0, A22]] with B = [I_k; 0]
    from the input; k = 0 is a C with no rows and a B with no columns.  A
    random similarity T hides the blocks, and mpmath's eigenvalues of A22
    give the expected answer."""
    k = data.draw(st.integers(min_value=0, max_value=2))
    m = data.draw(st.integers(min_value=1, max_value=2))
    n = k + m
    a11, x, a22 = (data.draw(st.lists(st.lists(_block_entries, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows))
                   for rows, cols in ((k, k), (m, k), (m, m)))
    moduli = [abs(lam) for lam in mpmath.eig(
        mpmath.matrix([[mpmath.mpf(v.numerator) / v.denominator for v in row] for row in a22]))[0]]
    assume(all(abs(r - 1) > 1e-9 for r in moduli))
    expected = all(r < 1 for r in moduli)
    lower = [row + [F(0)] * m for row in a11] + [xr + ar for xr, ar in zip(x, a22)]
    upper = ([row + list(col) for row, col in zip(a11, zip(*x))]
             + [[F(0)] * k + row for row in a22])
    t, inv = data.draw(_similarity(n))
    assert _mul(t, inv) == _identity(n, n)
    assert is_detectable(_mul(_mul(t, lower), inv), _mul(_identity(k, n), inv)) is expected
    assert is_stabilizable(_mul(_mul(t, upper), inv), _mul(t, _identity(n, k))) is expected


# many zeros, so that unobservable subspaces and rank-deficient C come often
_sparse_entries = st.sampled_from([F(0)] * 6 + [F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(4, 3)])


def _last_kernel(a, c):
    """is_detectable(a, c) and the (basis, free) of its last kernel_basis call."""
    seen = []

    def spy(rows, ncols):
        seen.append(kernel_basis(rows, ncols))
        return seen[-1]

    with mock.patch.object(roots_module, "kernel_basis", spy):
        verdict = is_detectable(a, c)
    return seen[-1], verdict


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_stopped_stack_matches_the_full_stack(data):
    """The stack stopped at the first block that annihilates the current
    kernel ends at the full stack's kernel: the same basis, free columns and
    verdict, on random (mostly non-normal) A up to 4x4 and C of 0 to 4 rows,
    rank-deficient ones included (repeated, zero and dependent rows)."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    a = as_matrix(data.draw(st.lists(st.lists(_sparse_entries, min_size=n, max_size=n),
                                     min_size=n, max_size=n)))
    c = data.draw(st.lists(st.lists(_sparse_entries, min_size=n, max_size=n), max_size=4))
    if c and data.draw(st.booleans()):  # a dependent row: a multiple of the first
        c.append([F(-2) * v for v in c[0]])
    c = as_matrix(c)
    basis, free, expected = reference_detectability(a, c)
    (stopped_basis, stopped_free), verdict = _last_kernel(a, c)
    assert (stopped_basis, stopped_free) == (basis, free)
    assert verdict is expected
    assert is_stabilizable(transpose(a), transpose(c)) is expected


def fraction_is_detectable(a, c):
    """``roots.is_detectable`` with its stack and its stopping test in
    Fractions, one per entry."""
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
    return schur_stable(char_poly(tuple(image[f] for f in free)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_integer_stack_matches_the_fraction_stack(data):
    """Random A up to 5x5 and C (or B) of 0 to 5 rows, mixed denominators:
    the integer stack returns the Fraction stack's verdict, for
    detectability and for stabilizability."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    entries = st.one_of(_sparse_entries, st.fractions(min_value=-4, max_value=4,
                                                      max_denominator=9))
    a = as_matrix(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                     min_size=n, max_size=n)))
    c = as_matrix(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5)))
    assert is_detectable(a, c) is fraction_is_detectable(a, c)
    assert is_stabilizable(a, transpose(c)) is fraction_is_detectable(transpose(a), c)


@pytest.mark.parametrize("a", [[[3]], [[2, 1], [0, F(1, 2)]],
                               [[0, 1, 0], [0, 0, 1], [F(1, 2), 2, 1]],
                               [[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4], [5, 0, 0, 1]]])
def test_identity_sensor_needs_no_matrix_product(a):
    """C = I leaves no unobservable state: one kernel, no product."""
    a = as_matrix(a)
    eye = as_matrix([[int(i == j) for j in range(len(a))] for i in range(len(a))])
    with mock.patch.object(roots_module, "mat_mul", wraps=mat_mul) as spy:
        assert is_detectable(a, eye) is True
        assert is_stabilizable(a, eye) is True
    assert spy.call_count == 0


def test_hidden_invariant_kernel_stops_after_one_block():
    """ker C is A-invariant here, so C A annihilates it and the stack stops
    after one block: one product for the block, one for the test, two for
    the invariance guard."""
    a = as_matrix([[3, 0, 0, 0], [1, F(1, 2), 1, 0], [0, 0, F(-1, 3), 1], [2, 0, 0, F(1, 4)]])
    with mock.patch.object(roots_module, "mat_mul", wraps=mat_mul) as spy:
        assert is_detectable(a, as_matrix([[1, 0, 0, 0]])) is True
    assert spy.call_count == 4


class TestLoading:
    def test_round_trip(self, data_dir):
        plant = load_plant((data_dir / "plant_diag2.json").read_text())
        assert plant.a == as_matrix([[2]])
        assert plant.b == as_matrix([[1]])
        assert plant.disturbance_bound == F(1, 10)

    def test_shape_errors(self):
        with pytest.raises(PlantFormatError):
            Plant(as_matrix([[1, 2]]))
        with pytest.raises(PlantFormatError):
            Plant(as_matrix([[1]]), c=as_matrix([[1, 2]]))
        with pytest.raises(PlantFormatError, match="B must have n rows"):
            Plant(as_matrix([[1, 0], [0, 1]]), b=as_matrix([[1]]))
        with pytest.raises(PlantFormatError):
            load_plant({"A": [["1"]], "D": "-1"})


def reference_load_plant(doc):
    """load_plant on a well-shaped document without its memo: every value
    parsed afresh, D first, then A, C and B."""
    bound = parse_rational(doc["D"]) if "D" in doc else None
    a, c, b = (None if doc.get(key) is None else
               as_matrix([[parse_rational(v) for v in row] for row in doc[key]])
               for key in "ACB")
    return Plant(a, c=c, b=b, disturbance_bound=bound)


PLANT_VALUES = [F(0), F(1), F(-1), F(1, 2), F(5, 2), F(-3, 2), F(2), F(1, 10), F(10 ** 60 + 1, 3)]
NOT_STRINGS = [1, 0.5, None, [1], {"p": 1}, True]  # parse_rational refuses each


@st.composite
def plant_documents(draw):
    """A, optional C, B and D over a few values, so strings repeat, each
    spelled by rational_spelling; in some documents some values are
    malformed strings or no strings at all."""
    n = draw(st.integers(1, 3))
    spoil = draw(st.sampled_from([0, 0, 1, 10]))

    def value():
        if draw(st.integers(0, 99)) < spoil:
            return draw(st.sampled_from(NOT_STRINGS))
        return draw(rational_spelling(draw(st.sampled_from(PLANT_VALUES)), spoil))

    doc = {"A": [[value() for _ in range(n)] for _ in range(n)]}
    for key, rows, cols in (("C", draw(st.integers(1, 2)), n), ("B", n, 1)):
        if draw(st.booleans()):
            doc[key] = [[value() for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        doc["D"] = value()
    return doc


@given(doc=plant_documents())
@settings(max_examples=300, deadline=None)
def test_loading_parses_each_string_once_and_agrees_with_a_fresh_parse(doc):
    expected = load_outcome(reference_load_plant, doc)
    with mock.patch.object(plant_module, "parse_rational", wraps=parse_rational) as spy:
        assert load_outcome(load_plant, doc) == expected
    parsed = Counter(call.args[0] for call in spy.call_args_list
                     if isinstance(call.args[0], str))
    assert set(parsed.values()) <= {1}
    values = ([doc["D"]] if "D" in doc else []) + [
        v for key in "ACB" for row in doc.get(key, ()) for v in row]
    bad = [v for v in values if not isinstance(v, str) or v in MALFORMED_RATIONALS]
    if not bad:
        assert parsed.keys() == set(values)
    else:  # the first bad value stops the load, with the same error
        assert expected == (DomainError, f"malformed rational: {bad[0]!r}")


def test_char_poly_poles():
    p = char_poly(as_matrix([[2, 0], [0, 3]]))
    # (t-2)(t-3) = 6 - 5t + t^2
    assert p == (F(6), F(-5), F(1))


class TestNonNormalExponent:
    """eta comes from eigenvalue moduli; singular values overstate it."""

    def test_stable_jordan_like_block_is_exactly_zero(self, bsc14):
        a = as_matrix([[F(1, 2), 4], [0, F(1, 2)]])  # singular values ~ 4.06, 0.06
        enc = instability_exponent(a)
        assert enc.lo == enc.hi == 0
        plant = Plant(a, c=as_matrix([[1, 0], [0, 1]]), disturbance_bound=F(1, 10))
        # eta = 0 = C0fb(BSC(1/4)) is a boundary
        assert classify(plant, bsc14, Regime("se-fb"), 1_000).outcome == "Undetermined"

    def test_unstable_shear_is_exactly_one(self, pentagon):
        a = as_matrix([[2, 3], [0, F(1, 2)]])
        enc = instability_exponent(a)
        assert enc.lo == enc.hi == 1
        plant = Plant(a, c=as_matrix([[1, 0], [0, 1]]), disturbance_bound=F(1, 10))
        verdict = classify(plant, pentagon, Regime("se-fb"), 1_000)
        assert verdict.outcome == "Solvable"  # 1 < log2(5/2) = C0fb(pentagon)
        assert revalidate(verdict, pentagon)

    def test_three_halves_shear_encloses_log3_minus_one(self):
        width = F(1, 2 ** 24)
        enc = instability_exponent(as_matrix([[F(3, 2), 2], [0, F(1, 3)]]), width)
        assert enc.width <= width
        value = mpmath.log(3, 2) - 1
        assert float(enc.lo) <= value <= float(enc.hi)
        assert mpmath.mpf(enc.lo.numerator) / enc.lo.denominator <= value
        assert value <= mpmath.mpf(enc.hi.numerator) / enc.hi.denominator

    def test_companion_of_z2_plus_4_is_exactly_two(self):
        # non-normal companion matrix, eigenvalues +-2i
        a = as_matrix([[0, -4], [1, 0]])
        assert char_poly(a) == (F(4), F(0), F(1))
        enc = instability_exponent(a)
        assert enc.lo == enc.hi == 2

    def test_width_budget_and_exact_claims_on_random_plants(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 4)
            a = as_matrix([[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                           for _ in range(n)])
            width = F(1, 2 ** rng.choice((4, 12, 30)))
            enc = instability_exponent(a, width)
            assert enc.width <= width
            ev = mpmath.eig(mpmath.matrix([[mpmath.mpf(v.numerator) / v.denominator
                                            for v in row] for row in a]),
                            left=False, right=False)
            ev = ev[0] if isinstance(ev, tuple) else ev
            eta = sum(mpmath.log(abs(e), 2) for e in ev if abs(e) >= 1)
            tiny = mpmath.mpf(10) ** -30
            assert mpmath.mpf(enc.lo.numerator) / enc.lo.denominator - tiny <= eta
            assert eta <= mpmath.mpf(enc.hi.numerator) / enc.hi.denominator + tiny


def test_is_unstable_on_non_normal_and_circle_plants():
    assert schur_stable(char_poly(as_matrix([[F(1, 2), 4], [0, F(1, 2)]]))) is True
    assert schur_stable(char_poly(as_matrix([[0, -1], [1, 0]]))) is False   # +-i on the circle
    assert schur_stable(char_poly(as_matrix([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]))) is False


def test_unit_circle_eigenvalues_give_exactly_zero():
    for a in ([[0, -1], [1, 0]], [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]],
              [[1, 1], [0, 1]], [[-1, 0], [0, 1]]):
        enc = instability_exponent(as_matrix(a))
        assert enc.lo == enc.hi == 0
    # a rotation block next to an expanding mode: exactly log2 of the mode
    enc = instability_exponent(as_matrix([[0, -1, 0], [1, 0, 0], [0, 0, 4]]))
    assert enc.lo == enc.hi == 2


# the dense non-normal 5x5 `expanding` plant of perfbench's decide corpus
# (seed 1): eta = log2 |det A|, with a 37-bit leading coefficient
EXPANDING5 = [[F(237, 160), F(3, 160), F(9, 320), F(9, 320), F(9, 320)],
              [F(-9, 320), F(123, 80), F(9, 320), 0, F(3, 160)],
              [0, 0, F(489, 320), F(3, 160), F(-3, 160)],
              [F(-9, 320), F(3, 320), F(3, 160), F(471, 320), F(-3, 320)],
              [F(9, 320), F(3, 160), F(-3, 160), F(9, 320), F(489, 320)]]
HOSTILE_PLANTS = [
    [[2, 1], [0, 2]],                                  # Jordan block, |lambda| = 2
    [[1, 1, 0], [0, 1, 1], [0, 0, 1]],                 # Jordan block on the circle
    [[F(1, 2), 4], [0, F(1, 2)]],                      # stable Jordan block
    [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]],         # rotation, |lambda| = 1
    [[0, -1, 0], [1, 0, 0], [0, 0, 3]],                # rotation beside a mode
    [[0, -3], [3, 0]],                                 # pair with equal moduli 3
    [[3, 0, 0], [0, -3, 0], [0, 0, F(3, 2)]],          # repeated moduli
    [[F(5, 4), 1, 0], [0, F(-5, 4), 1], [0, 0, F(5, 4)]],
    EXPANDING5,
]
_entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_random_plants = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(a=st.one_of(st.sampled_from(HOSTILE_PLANTS), _random_plants))
def test_eta_task_narrows_one_refiner_exactly_like_fresh_enclosures(a):
    a = as_matrix(a)
    task = EtaTask(a)
    moduli = UnstableModuli(char_poly(a))
    for _ in range(10):  # widths 1/16, 1/256, ..., 2**-40
        width = task.width
        task.step()
        assert task.enclosure == instability_exponent(a, width)
        tolerance = width / (3 * len(a))
        bits = width_bits(width / (16 * len(a)))
        assert (moduli.brackets(tolerance, bits)
                == UnstableModuli(char_poly(a)).brackets(tolerance, bits))


def test_eta_task_computes_the_characteristic_polynomial_once(monkeypatch):
    calls = []
    real = plant_module.char_poly
    monkeypatch.setattr(plant_module, "char_poly", lambda a: calls.append(1) or real(a))
    task = EtaTask(as_matrix(EXPANDING5))
    for _ in range(8):
        task.step()
    assert len(calls) == 1
    assert task.enclosure == instability_exponent(as_matrix(EXPANDING5), task.width * 16)


class FullDepthModuli(UnstableModuli):
    """UnstableModuli.brackets as it was before brackets stopped at settled
    log2 digits: every bracket goes down to 1/(2 L^2) for the exact-modulus
    test, whatever the caller reads, and then to the tolerance."""

    def brackets(self, tolerance):
        tolerance = F(tolerance)
        stack, self.leaves = self.leaves, []
        while stack:
            e, lo, n_lo, hi, n_hi, tested = stack.pop()
            k, one = n_hi - n_lo, 1 << e
            if k == 0 or hi <= one:
                continue
            if not tested and (hi - lo) * 2 * self.lead ** 2 < one:
                a, b = F(lo, one), F(hi, one)
                r = plant_module.simplest_between(a, b)
                if (r.denominator <= self.lead
                        and plant_module._exact_bracket(self.ints, r, a, b, k)):
                    self.exact.append((r, r, k))
                    continue
                tested = True
            floor = max(lo, one)
            if tested and (hi - floor) * tolerance.denominator <= floor * tolerance.numerator:
                self.leaves.append((e, lo, n_lo, hi, n_hi, True))
                continue
            (mid, f), n_mid = plant_module._first_decided(
                self._count, ((x, e + j) for x, j in plant_module._split_radii(lo, hi)))
            lo, hi = lo << (f - e), hi << (f - e)
            stack.append((f, lo, n_lo, mid, n_mid, tested and n_mid - n_lo == k))
            stack.append((f, mid, n_mid, hi, n_hi, tested and n_hi - n_mid == k))
        return sorted(self.exact + [(F(lo, 1 << e), F(hi, 1 << e), n_hi - n_lo)
                                    for e, lo, n_lo, hi, n_hi, _ in self.leaves])


def _full_depth_enclosures(a, widths):
    """eta at each of the decreasing widths from one FullDepthModuli, each
    bracket adding k * [log2 lo, log2 hi] at log width max_width / (16 n)."""
    n = len(a)
    moduli = FullDepthModuli(char_poly(a))
    for width in widths:
        log_width = width / (16 * n)
        lo_sum = hi_sum = F(0)
        for lo, hi, k in moduli.brackets(width / (3 * n)):
            upper = log2_enclosure(hi, log_width)
            lower = (upper if lo == hi else log2_enclosure(lo, log_width) if lo > 1
                     else Enclosure.exact(F(0)))
            lo_sum += k * lower.lo
            hi_sum += k * upper.hi
        yield Enclosure(lo_sum, hi_sum)


DIGIT_WIDTHS = [F(1, 1 << bits) for bits in (4, 30, 64, 100)]
EDGE_PLANTS = [
    [[2, 0], [0, F(1, 2)]],                            # modulus 2 beside 1/2
    [[0, F(5, 2)], [1, 0]],                            # eta = log2(5/2), the pentagon's C0fb
    [[0, F(5, 2) - F(1, 1 << 130)], [1, 0]],           # just below that tie
]


def _assert_matches_full_depth(a):
    a = as_matrix(a)
    task = EtaTask(a)
    for width, expected in zip(DIGIT_WIDTHS, _full_depth_enclosures(a, DIGIT_WIDTHS)):
        assert instability_exponent(a, width) == expected
        task.width = width
        task.step()
        assert task.enclosure == expected


@pytest.mark.parametrize("a", HOSTILE_PLANTS + EDGE_PLANTS)
def test_settled_digits_give_the_full_depth_enclosure(a):
    _assert_matches_full_depth(a)


@settings(max_examples=60, deadline=None)
@given(a=_random_plants)
def test_settled_digits_give_the_full_depth_enclosure_on_random_plants(a):
    _assert_matches_full_depth(a)


def test_expanding_plant_root_counts_stay_under_their_ceilings(monkeypatch):
    # 307 counts each while every bracket went down to 1/(2 L^2); 47 and 150 now
    calls = _spy_root_counts(monkeypatch)
    EtaTask(as_matrix(EXPANDING5)).step()
    assert len(calls) <= 60
    calls.clear()
    instability_exponent(as_matrix(EXPANDING5), F(1, 1 << 30))
    assert len(calls) <= 180


def _spy_log2_digits(monkeypatch) -> list:
    """The m of every log2_fixed call plant.py makes."""
    calls = []
    monkeypatch.setattr(plant_module, "log2_fixed",
                        lambda n, d, m: calls.append(m) or log2_fixed(n, d, m))
    return calls


@settings(max_examples=200, deadline=None)
@given(x=st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=10 ** 6),
       requests=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=10))
def test_stored_digits_answer_every_request_like_a_fresh_log2(x, requests):
    moduli = UnstableModuli((F(-2), F(1)))
    for bits in requests:
        assert moduli.log2(x, bits) == log2_fixed(x.numerator, x.denominator, bits)


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=10 ** 6),
                   st.integers(-40, 40).map(lambda k: F(2) ** k)),
       widths=st.lists(st.fractions(min_value=F(1, 1 << 300), max_value=4), min_size=1,
                       max_size=10))
def test_stored_digits_enclose_like_a_fresh_log2_enclosure(x, widths):
    store = RefinableLog2()
    for width in widths:
        assert store.enclose(x, width) == log2_enclosure(x, width)  # the level too


def test_a_first_request_computes_exactly_its_digits(monkeypatch):
    calls = _spy_log2_digits(monkeypatch)
    moduli = UnstableModuli((F(-2), F(1)))
    moduli.log2(F(3), 37)
    moduli.log2(F(3), 20)  # served by a shift
    moduli.log2(F(5, 2), 20)
    assert calls == [37, 20]
    moduli.log2(F(3), 41)  # past 37: twice as deep
    assert calls == [37, 20, 74]


def test_eta_of_three_to_the_width_floor_reads_log2_five_times(monkeypatch):
    # 30 calls, one per step, while each call computed its own digits
    calls = _spy_log2_digits(monkeypatch)
    task = EtaTask(as_matrix([[3]]))
    while not task.exhausted():
        task.step()
    assert task.enclosure.width <= F(1, 1 << 120)
    assert calls == [8, 16, 32, 64, 128]
