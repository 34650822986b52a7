from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certcap.enclosure import DomainError
from certcap.linalg import as_matrix, char_poly
from certcap.plant import UnstableModuli, _exact_bracket
from certcap.roots import (_count_in_unit_disc, _exact_count, _filtered_count,
                           _integer_form, _scaled, count_inside, poly_degree, poly_trim,
                           schur_stable, symmetric_eigenvalue_enclosures)

F = Fraction


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_from_roots(*roots):
    p = (F(1),)
    for r in roots:
        p = poly_mul(p, (-F(r), F(1)))
    return p


class TestEigenEnclosures:
    def test_rational_spectrum_is_exact(self):
        m = as_matrix([[4, 0], [0, F(1, 4)]])
        encs = symmetric_eigenvalue_enclosures(m, F(1, 2 ** 30))
        assert [(e.lo, e.hi) for e in encs] == [(F(1, 4), F(1, 4)), (F(4), F(4))]

    def test_two_by_two_integer_roots(self):
        encs = symmetric_eigenvalue_enclosures(as_matrix([[2, 1], [1, 2]]), F(1, 1000))
        assert encs[0].lo <= 1 <= encs[0].hi and encs[1].lo <= 3 <= encs[1].hi
        assert all(e.width <= F(1, 1000) for e in encs)

    def test_gram_of_rotation_gives_double_root(self):
        m = as_matrix([[4, 0], [0, 4]])  # the Gram matrix of [[0, 2], [-2, 0]]
        encs = symmetric_eigenvalue_enclosures(m, F(1, 1000))
        assert len(encs) == 2
        assert encs[0] == encs[1]
        assert encs[0].lo == encs[0].hi == 4

    def test_rejects_nonsymmetric(self):
        with pytest.raises(DomainError):
            symmetric_eigenvalue_enclosures(as_matrix([[0, 1], [0, 0]]), F(1, 2))

    def test_irrational_spectrum_is_enclosed(self):
        # [[0,1],[1,1]] has eigenvalues (1 +- sqrt(5)) / 2
        encs = symmetric_eigenvalue_enclosures(as_matrix([[0, 1], [1, 1]]),
                                               F(1, 2 ** 24))
        import mpmath
        mpmath.mp.dps = 40
        golden = (1 + mpmath.sqrt(5)) / 2
        assert float(encs[1].lo) <= golden <= float(encs[1].hi)
        assert float(encs[0].lo) <= 1 - golden <= float(encs[0].hi)


symmetric_entries = st.fractions(min_value=-4, max_value=4)


@st.composite
def symmetric_3x3(draw):
    vals = [draw(symmetric_entries) for _ in range(6)]
    a, b, c, d, e, f = vals
    return as_matrix([[a, b, c], [b, d, e], [c, e, f]])


@given(m=symmetric_3x3())
@settings(max_examples=40, deadline=None)
def test_eigen_soundness_on_random_symmetric(m):
    width = F(1, 2 ** 12)
    encs = symmetric_eigenvalue_enclosures(m, width)
    assert len(encs) == 3
    trace = sum(m[i][i] for i in range(3))
    mids = [(e.lo + e.hi) / 2 for e in encs]
    assert abs(sum(mids) - trace) <= sum(e.width for e in encs)
    det = char_poly(m)[0] * (-1) ** 3
    lo = hi = F(1)
    for e in encs:
        candidates = [lo * e.lo, lo * e.hi, hi * e.lo, hi * e.hi]
        lo, hi = min(candidates), max(candidates)
    assert lo <= det <= hi


class TestRationalRoots:
    def test_isolation_with_mixed_roots(self):
        m = as_matrix([[F(1, 3), 0, 0], [0, 4, 0], [0, 0, F(-7, 2)]])
        encs = symmetric_eigenvalue_enclosures(m, F(1, 1000))
        assert [(e.lo, e.hi) for e in encs] == [(F(-7, 2), F(-7, 2)), (F(1, 3), F(1, 3)),
                                                (F(4), F(4))]

    def test_multiplicities(self):
        encs = symmetric_eigenvalue_enclosures(as_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 5]]),
                                               F(1, 1000))
        assert [(e.lo, e.hi) for e in encs] == [(F(2), F(2)), (F(2), F(2)), (F(5), F(5))]

    def test_irrational_root_is_reported_irrational(self):
        # eigenvalues +-sqrt(2)
        encs = symmetric_eigenvalue_enclosures(as_matrix([[1, 1], [1, -1]]), F(1, 1000))
        assert len(encs) == 2 and not any(e.is_exact for e in encs)
        assert encs[0].hi < 0 < encs[1].lo
        assert encs[1].lo ** 2 < 2 < encs[1].hi ** 2 and encs[0].hi ** 2 < 2 < encs[0].lo ** 2


class TestSchurStability:
    @pytest.mark.parametrize("roots,stable", [
        ((F(1, 2),), True),
        ((F(-99, 100), F(1, 3)), True),
        ((F(1),), False),
        ((F(-1),), False),
        ((F(3, 2), F(1, 5)), False),
    ])
    def test_real_root_cases(self, roots, stable):
        assert schur_stable(poly_from_roots(*roots)) is stable

    @pytest.mark.parametrize("poly,stable", [
        ((F(1), F(0), F(1)), False),          # roots +-i, on the circle
        ((F(1, 2), F(1, 2), F(1)), True),     # complex pair, modulus^2 = 1/2
        ((F(2), F(0), F(1)), False),          # complex pair, modulus^2 = 2
        ((F(1), F(1), F(1)), False),          # roots on the unit circle
    ])
    def test_complex_pair_cases(self, poly, stable):
        assert schur_stable(poly_trim(poly)) is stable

    def test_root_at_origin_is_stable(self):
        assert schur_stable(poly_trim([F(0), F(0), F(1)]))  # x^2

    def test_mixed_quartic(self):
        # (x^2 + 1/9)(x^2 - x/2 + 5/4): second pair has modulus^2 = 5/4
        p = poly_mul(poly_trim([F(1, 9), F(0), F(1)]),
                     poly_trim([F(5, 4), F(-1, 2), F(1)]))
        assert schur_stable(p) is False
        q = poly_mul(poly_trim([F(1, 9), F(0), F(1)]),
                     poly_trim([F(1, 4), F(-1, 2), F(1)]))
        assert schur_stable(q) is True


@given(m=symmetric_3x3())
@settings(max_examples=25, deadline=None)
def test_eigen_enclosures_against_float_oracle(m):
    """numpy's eigensolver as an independent smoke oracle (float tolerance)."""
    import numpy as np
    encs = symmetric_eigenvalue_enclosures(m, F(1, 2 ** 20))
    oracle = sorted(np.linalg.eigvalsh(np.array(m, dtype=float)))
    for enc, ref in zip(encs, oracle):
        assert float(enc.lo) - 1e-6 <= ref <= float(enc.hi) + 1e-6


@given(block=st.tuples(symmetric_entries, symmetric_entries, symmetric_entries),
       copies=st.integers(min_value=2, max_value=3))
@settings(max_examples=20, deadline=None)
def test_repeated_eigenvalues_against_mpmath(block, copies):
    """Block-diagonal copies of one symmetric 2x2 block: each of its
    eigenvalues, mostly irrational, repeated once per copy."""
    import mpmath
    a, b, d = block
    n = 2 * copies
    rows = [[F(0)] * n for _ in range(n)]
    for k in range(0, n, 2):
        rows[k][k], rows[k][k + 1], rows[k + 1][k], rows[k + 1][k + 1] = a, b, b, d
    encs = symmetric_eigenvalue_enclosures(as_matrix(rows), F(1, 2 ** 40))
    assert all(encs.count(e) % copies == 0 for e in encs)

    def mpf(x):
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(60):
        oracle = sorted(mpmath.eigsy(mpmath.matrix([[mpf(x) for x in row] for row in rows]),
                                     eigvals_only=True))
        tiny = mpmath.mpf(10) ** -45
        assert all(mpf(e.lo) - tiny <= ref <= mpf(e.hi) + tiny for e, ref in zip(encs, oracle))


quad_q = st.fractions(min_value=F(1, 16), max_value=4)
quad_s = st.fractions(min_value=-3, max_value=3)
real_root = st.fractions(min_value=-2, max_value=2)


@given(real_roots=st.lists(real_root, min_size=0, max_size=2),
       pairs=st.lists(st.tuples(quad_s, quad_q), min_size=0, max_size=2))
@settings(max_examples=80, deadline=None)
def test_schur_against_constructed_ground_truth(real_roots, pairs):
    p = (F(1),)
    truth = True
    for r in real_roots:
        p = poly_mul(p, (-r, F(1)))
        truth = truth and abs(r) < 1
    used_pairs = []
    for s, q in pairs:
        if s * s >= 4 * q:
            continue  # keep only genuinely complex pairs
        p = poly_mul(p, (q, -s, F(1)))
        used_pairs.append(q)
        truth = truth and q < 1
    if len(p) == 1:
        assert schur_stable(p)
        return
    # square-free requirement of the ground truth: skip duplicated factors
    if len(set(real_roots)) != len(real_roots) or len(set(used_pairs)) != len(used_pairs):
        return
    assert schur_stable(p) is truth


@given(coeffs=st.lists(st.fractions(min_value=-3, max_value=3),
                       min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_schur_against_float_root_oracle(coeffs):
    """Cross-check with numpy roots, skipping near-boundary cases where the
    float oracle itself cannot be trusted."""
    import numpy as np
    p = poly_trim(coeffs)
    if poly_degree(p) < 1:
        return
    roots = np.roots(np.array([float(c) for c in reversed(p)]))
    moduli = sorted(abs(r) for r in roots)
    if any(abs(m - 1.0) < 1e-6 for m in moduli):
        return
    assert schur_stable(p) is bool(moduli[-1] < 1.0)


def _mpmath_moduli(p):
    """Root moduli of p from mpmath, roots at the origin split off exactly."""
    import mpmath
    zeros = 0
    while p[zeros] == 0:
        zeros += 1
    rest = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p[zeros:])]
    roots = mpmath.polyroots(rest, maxsteps=400, extraprec=400) if len(rest) > 1 else []
    return [mpmath.mpf(0)] * zeros + [abs(z) for z in roots]


@given(coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
       lead=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       radius=st.fractions(min_value=F(1, 16), max_value=6, max_denominator=16),
       on_circle=st.booleans())
@settings(max_examples=150, deadline=None)
def test_count_inside_against_mpmath_moduli(coeffs, lead, radius, on_circle):
    import mpmath
    assume(radius > 0)
    p = poly_trim([F(c) for c in coeffs] + [F(lead)])
    if on_circle:  # roots +-i*radius lie on the circle: the count must be undecided
        p = poly_mul(p, (radius * radius, F(0), F(1)))
    count = count_inside(p, radius)
    if on_circle:
        assert count is None
        return
    mpmath.mp.dps = 50
    try:
        moduli = _mpmath_moduli(p)
    except mpmath.libmp.libhyper.NoConvergence:
        assume(False)
    r = mpmath.mpf(radius.numerator) / radius.denominator
    if any(abs(m - r) < mpmath.mpf(10) ** -30 for m in moduli):
        assert count is None
    elif count is not None:  # a singular step off the circle is reported, not guessed
        assert count == sum(1 for m in moduli if m < r)


def _assert_filter_agrees(c):
    exact = _exact_count(list(c))
    filtered = _filtered_count(list(c))
    assert filtered is None or filtered == exact
    if exact is None:  # an undecided count never comes out of the filter
        assert filtered is None
    assert _count_in_unit_disc(list(c)) == exact
    return filtered, exact


NEAR = F(1, 1 << 200)
small_root = st.builds(lambda n, d, sign: F(sign * n, d), st.integers(1, 300),
                       st.integers(1, 50), st.sampled_from([1, -1]))


@st.composite
def disc_inputs(draw):
    """Integer coefficients for the unit-disc count, degree <= 8: random ones
    of up to about 5000 bits, or p(r z) for p built from reciprocal pairs
    (t, 1/t), roots on a circle and repeated roots, at a radius r equal to
    a root modulus, within 2^-200 of one, or anywhere."""
    if draw(st.booleans()):
        bits = st.integers(0, 5000).flatmap(lambda b: st.integers(-(1 << b), 1 << b))
        c = draw(st.lists(bits, min_size=1, max_size=9))
        return c[:-1] + [c[-1] or 1]
    p, moduli = (F(1),), [F(1)]
    while poly_degree(p) < 7:
        kind = draw(st.sampled_from(["root", "pair", "circle", "repeat", "stop"]))
        t = draw(small_root)
        if kind == "stop":
            break
        if kind == "circle":  # z^2 - 2 c rho z + rho^2 has both roots on |z| = rho
            c = draw(st.fractions(min_value=-1, max_value=1, max_denominator=20))
            p, moduli = poly_mul(p, (t * t, -2 * c * abs(t), F(1))), moduli + [abs(t)]
        else:
            roots = {"root": [t], "pair": [t, 1 / t], "repeat": [t, t]}[kind]
            p, moduli = poly_mul(p, poly_from_roots(*roots)), moduli + [abs(x) for x in roots]
    r = draw(st.sampled_from(moduli)) + draw(st.sampled_from([0, NEAR, -NEAR]))
    if draw(st.booleans()):
        r = draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=1 << 12))
    return _scaled(_integer_form(p), r.numerator, r.denominator)


@given(c=disc_inputs())
@settings(max_examples=250, deadline=None)
def test_filtered_count_agrees_with_exact_reduction(c):
    """The fixed-precision filter either returns the exact reduction's count
    or hands over; None, an undecided count, comes only from the exact one."""
    _assert_filter_agrees(c)


class TestCountInside:
    def test_filter_hands_undecided_and_close_counts_to_exact(self):
        # radius 2 hits the roots +-2i: undecided, and only the exact code says so
        p = poly_mul(poly_from_roots(F(3, 2)), poly_trim([F(4), F(0), F(1)]))
        assert _assert_filter_agrees(_scaled(_integer_form(p), 2, 1)) == (None, None)
        # |a_0| and |a_n| differ only below bit 400 of 2000: the filter cannot
        # tell them apart, and the exact count 2 comes from the fallback
        big = 3 << 2000
        assert _assert_filter_agrees([big, 0, big + (1 << 399)]) == (None, 2)
        assert _assert_filter_agrees([big + (1 << 399), 0, big]) == (None, 0)
        # an a_0 step whose next coefficient cancels too (4 * 1 - 2 * 2 = 0):
        # the exact code pops it and the filter hands over, also where the
        # cancellation holds only to within the filter's error
        assert _assert_filter_agrees([4, 2, 1, 2]) == (None, 0)
        near = [4 << 3000, 2 << 3000, 1 << 3000, (2 << 3000) + 1]
        assert _assert_filter_agrees(near) == (None, 0)

    def test_singular_radii_are_reported(self):
        # roots 3/2 and +-2i: radii 3/2 and 2 hit the roots, radius 1 hits
        # no root but meets |a_0| = |a_n| for (z - 2)(z - 1/2)
        p = poly_mul(poly_from_roots(F(3, 2)), poly_trim([F(4), F(0), F(1)]))
        assert count_inside(p, F(3, 2)) is None
        assert count_inside(p, F(2)) is None
        assert [count_inside(p, r) for r in (F(1), F(7, 4), F(3))] == [0, 1, 3]
        assert count_inside(poly_from_roots(F(2), F(1, 2)), F(1)) is None
        assert count_inside(poly_from_roots(F(2), F(1, 2)), F(3, 4)) == 1

    def test_roots_at_origin_and_constants(self):
        assert count_inside(poly_trim([F(0), F(0), F(1)]), F(1, 100)) == 2
        assert count_inside((F(5),), F(2)) == 0
        with pytest.raises(DomainError):
            count_inside((F(1), F(1)), F(0))
        with pytest.raises(DomainError):
            count_inside((), F(1))

    def test_reciprocal_pair_about_two_in_one_bracket(self):
        # 3 = 2 * 3/2 and 4/3 = 2 / (3/2): inversion-closed about 2, so the
        # product of the two moduli is exactly 2^2
        pair = _integer_form(poly_from_roots(F(3), F(4, 3)))
        assert _exact_bracket(pair, F(2), F(1), F(4), 2) is True
        assert F(3) * F(4, 3) == 2 ** 2
        # 3 and 5/4 multiply to 15/4, not 4: no exact claim
        lone = _integer_form(poly_from_roots(F(3), F(5, 4)))
        assert _exact_bracket(lone, F(2), F(1), F(4), 2) is False
        # the pair plus a lone root at exactly 2: three moduli multiplying to 2^3
        triple = _integer_form(poly_mul(poly_from_roots(F(3), F(4, 3)), poly_from_roots(F(2))))
        assert _exact_bracket(triple, F(2), F(1), F(4), 3) is True
        # a bracket that splits the pair cannot hold an inversion-closed set
        assert _exact_bracket(triple, F(2), F(3, 2), F(4), 2) is False

    def test_bracket_around_one_needs_roots_on_the_circle(self):
        on_circle = poly_trim([F(1), F(-6, 5), F(1)])   # 3/5 +- 4i/5
        assert _exact_bracket(_integer_form(on_circle), F(1), F(1, 4), F(4), 2) is True
        # 2 and 1/2 are inversion-closed about 1 but add log2 2 to eta
        pair = poly_from_roots(F(2), F(1, 2))
        assert _exact_bracket(_integer_form(pair), F(1), F(1, 4), F(4), 2) is False
        both = _integer_form(poly_mul(on_circle, pair))
        assert _exact_bracket(both, F(1), F(1, 4), F(4), 4) is False
        assert _exact_bracket(both, F(1), F(3, 4), F(3, 2), 2) is True
        # a double root on the circle
        double = _integer_form(poly_mul(on_circle, on_circle))
        assert _exact_bracket(double, F(1), F(1, 2), F(2), 4) is True
        assert UnstableModuli(poly_mul(on_circle, pair)).brackets(F(1, 100), 10) == [
            (F(1), F(1), 2), (F(2), F(2), 1)]


pair_scale = st.sampled_from([F(1), F(2), F(3, 2), F(5, 3)])
pair_offset = st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16)


@given(scale=pair_scale, offsets=st.lists(pair_offset, min_size=1, max_size=2),
       extra=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8),
                      max_size=2))
@settings(max_examples=60, deadline=None)
def test_unstable_moduli_exact_claims_hold(scale, offsets, extra):
    """Reciprocal pairs (s t, s / t) next to other roots: every exact bracket
    is true, and every bracket holds the moduli mpmath finds."""
    import mpmath
    mpmath.mp.dps = 50
    roots = []
    for t in offsets:
        roots += [scale * (1 + t), scale / (1 + t)]
    roots += [x for x in extra if x != 0]
    p = poly_from_roots(*roots)
    moduli = sorted(abs(r) for r in roots if abs(r) >= 1)
    brackets = UnstableModuli(p).brackets(F(1, 1000), 10)
    assert sum(k for _, _, k in brackets) >= len(moduli)
    eta = sum(mpmath.log(mpmath.mpf(m.numerator) / m.denominator, 2) for m in moduli)
    lo = sum(k * mpmath.log(max(1, mpmath.mpf(a.numerator) / a.denominator), 2)
             for a, _, k in brackets)
    hi = sum(k * mpmath.log(mpmath.mpf(b.numerator) / b.denominator, 2)
             for _, b, k in brackets)
    tiny = mpmath.mpf(10) ** -40
    assert lo - tiny <= eta <= hi + tiny
    for a, b, k in brackets:
        if a < b:
            assert b <= max(1, a) * (1 + F(1, 1000))
