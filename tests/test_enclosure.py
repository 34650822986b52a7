from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcap.enclosure import (DomainError, Enclosure, log2_enclosure, log2_fixed,
                               parse_rational, rational_str)
from certcap.roots import simplest_between

mpmath.mp.dps = 60


def oracle_log2(x: Fraction) -> mpmath.mpf:
    return mpmath.log(mpmath.mpf(x.numerator) / x.denominator, 2)


def test_exact_power_of_two():
    enc = log2_enclosure(Fraction(4), Fraction(1, 1024))
    assert enc.lo == enc.hi == 2


def test_log2_one_is_zero():
    enc = log2_enclosure(Fraction(1), Fraction(1))
    assert enc.lo == enc.hi == 0


def test_log2_of_5_halves_matches_oracle():
    width = Fraction(1, 2 ** 20)
    enc = log2_enclosure(Fraction(5, 2), width)
    assert enc.width <= width
    value = oracle_log2(Fraction(5, 2))
    assert mpmath.mpf(enc.lo.numerator) / enc.lo.denominator <= value
    assert value <= mpmath.mpf(enc.hi.numerator) / enc.hi.denominator


def test_nonpositive_rejected():
    with pytest.raises(DomainError):
        log2_enclosure(Fraction(0), Fraction(1, 2))
    with pytest.raises(DomainError):
        log2_enclosure(Fraction(-3), Fraction(1, 2))
    with pytest.raises(DomainError):
        log2_enclosure(Fraction(3), Fraction(0))


positive_rationals = st.fractions(min_value=Fraction(1, 500), max_value=500) \
    .filter(lambda f: f > 0)


@given(x=positive_rationals, bits=st.integers(min_value=1, max_value=10))
def test_certificate_checks_by_exact_powers(x, bits):
    # dyadic endpoints let the containment be verified with exact integer
    # powers: 2**lo <= x <= 2**hi  <=>  2**(lo*2^m) <= x**(2^m)
    enc = log2_enclosure(x, Fraction(1, 2 ** bits))
    for endpoint, should_be_below in ((enc.lo, True), (enc.hi, False)):
        m = endpoint.denominator.bit_length() - 1
        lhs = Fraction(2) ** endpoint.numerator
        rhs = x ** (1 << m)
        if should_be_below:
            assert lhs <= rhs
        else:
            assert lhs >= rhs


@given(x=positive_rationals)
@settings(max_examples=50)
def test_refinements_are_nested(x):
    widths = [Fraction(1, 2 ** k) for k in (2, 5, 9, 14)]
    encs = [log2_enclosure(x, w) for w in widths]
    for outer, inner in zip(encs, encs[1:]):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi
        assert inner.width <= outer.width


@given(x=positive_rationals)
@settings(max_examples=50)
def test_reciprocal_negates(x):
    enc = log2_enclosure(x, Fraction(1, 256))
    rec = log2_enclosure(1 / x, Fraction(1, 256))
    assert rec.lo == -enc.hi and rec.hi == -enc.lo


def test_near_power_of_two_triggers_precision_retry():
    # a continued-fraction convergent of sqrt(2) puts log2(x) within ~2^-150
    # of the dyadic value 1/2, forcing the digit extraction to retry at
    # higher internal precision; the result must still be a correct bracket
    p, q = 1, 1
    while q.bit_length() < 80:
        p, q = p + 2 * q, p + q  # convergents of sqrt(2)
    x = Fraction(p, q)
    assert abs(p * p - 2 * q * q) == 1
    enc = log2_enclosure(x, Fraction(1, 2 ** 8))
    assert enc.width <= Fraction(1, 2 ** 8)
    assert enc.lo <= Fraction(1, 2) <= enc.hi
    # and the exact-power certificate still holds at these endpoints
    for endpoint, below in ((enc.lo, True), (enc.hi, False)):
        m = endpoint.denominator.bit_length() - 1
        lhs = Fraction(2) ** endpoint.numerator
        rhs = x ** (1 << m)
        assert (lhs <= rhs) if below else (lhs >= rhs)


def _floor_log2_by_powers(x: Fraction) -> int:
    k = 0
    while Fraction(2) ** k > x:
        k -= 1
    while Fraction(2) ** (k + 1) <= x:
        k += 1
    return k


def _bits_for_width_by_powers(width: Fraction) -> int:
    m = 0
    while Fraction(1, 1 << m) > width:
        m += 1
    return m


@given(x=st.one_of(
    st.fractions(min_value=Fraction(1, 10 ** 40), max_value=10 ** 30).filter(lambda f: f > 0),
    # exact powers of two and their nearest neighbours
    st.builds(lambda k, off: Fraction(2) ** k + Fraction(off, 1 << 300),
              st.integers(-200, 200), st.integers(-1, 1))))
def test_bit_length_forms_match_the_power_loops(x):
    assert log2_fixed(x.numerator, x.denominator, 0)[0] == _floor_log2_by_powers(x)
    # log2_enclosure's digit count is the smallest m >= 1 with 2**-m <= width
    assert log2_enclosure(Fraction(3), x).level == max(1, _bits_for_width_by_powers(x))


def test_enclosure_invariants():
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert e.lo <= Fraction(2, 5) <= e.hi
    assert not e.lo <= Fraction(3, 5) <= e.hi
    assert Enclosure.from_json(e.to_json()) == e


@pytest.mark.parametrize("doc", [
    {"lo": "1/3", "hi": "1/2", "level": 2.9},
    {"lo": "1/3", "hi": "1/2", "level": True},
    {"lo": "1/3", "hi": "1/2", "level": "3"},
    {"lo": "1/3", "hi": "1/2", "level": -4},
    {"lo": "1/3", "hi": "1/2", "level": None},
    {"lo": "1/3", "hi": "1/2"},
    {"hi": "1/2", "level": 0},
    {"lo": "1/3", "level": 0},
    {"lo": 0, "hi": "1/2", "level": 0},
    {"lo": "1/3", "hi": "1/2.5", "level": 0},
    {"lo": "1/2", "hi": "1/3", "level": 0},
    ["1/3", "1/2", 0],
    "1/3",
    None,
], ids=["float-level", "bool-level", "string-level", "negative-level", "null-level",
        "no-level", "no-lo", "no-hi", "int-lo", "malformed-hi", "empty", "list",
        "string", "null"])
def test_enclosure_from_json_rejects_what_to_json_never_writes(doc):
    with pytest.raises(DomainError):
        Enclosure.from_json(doc)


def test_enclosure_from_json_reads_what_to_json_writes():
    for e in (Enclosure(Fraction(-7, 3), Fraction(1, 2), 0), Enclosure(Fraction(5), Fraction(5), 40),
              Enclosure(Fraction(1, 1 << 130), Fraction(1, 1 << 129), 1 << 70)):
        assert Enclosure.from_json(e.to_json()) == e
        assert type(Enclosure.from_json(e.to_json()).level) is int


def test_rational_parsing():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert rational_str(Fraction(10, 4)) == "5/2"
    for bad in ("0.5", "5/0", "a/b", "1/-2", "", "1\n", "3/4\n", "\u0663", "-\u0663/4"):
        with pytest.raises(DomainError):
            parse_rational(bad)


def test_rational_str_past_the_digit_limit():
    numerator = 7 ** 6000 + 2  # 5071 digits
    value = Fraction(numerator, 2 ** 101)
    text = rational_str(value)
    num, den = text.split("/")
    assert len(num) > 5000
    assert int(Decimal(num)) == numerator and int(Decimal(den)) == 2 ** 101
    assert parse_rational(text) == value
    assert rational_str(-numerator) == "-" + num
    assert parse_rational(rational_str(-numerator)) == -numerator


def test_simplest_between():
    assert simplest_between(Fraction(21, 64), Fraction(11, 32)) == Fraction(1, 3)
    assert simplest_between(Fraction(-1, 3), Fraction(1, 7)) == 0
    assert simplest_between(Fraction(5, 2), Fraction(7, 2)) == 3
    assert simplest_between(Fraction(-11, 32), Fraction(-21, 64)) == Fraction(-1, 3)


def test_simplest_between_walks_thousands_of_partial_quotients():
    # F(n+1)/F(n) = [1; 1, ..., 1] has n partial quotients; brackets of
    # thousand-bit radii reach such depths
    fib = [0, 1]
    while len(fib) < 3002:
        fib.append(fib[-1] + fib[-2])
    ratio = Fraction(fib[3001], fib[3000])
    assert simplest_between(ratio, ratio) == ratio
    tiny = Fraction(1, fib[3000] ** 2 * 4)
    assert simplest_between(ratio - tiny, ratio + tiny) == ratio


@given(lo=st.fractions(min_value=-50, max_value=50),
       width=st.fractions(min_value=Fraction(1, 10 ** 6), max_value=2))
@settings(max_examples=100, deadline=None)
def test_simplest_between_is_in_interval_and_minimal(lo, width):
    import math
    hi = lo + width
    best = simplest_between(lo, hi)
    assert lo <= best <= hi
    # nothing with a strictly smaller denominator fits in the interval
    # (spot-check small denominators; full sweep would be quadratic)
    for q in range(1, min(best.denominator, 300)):
        candidate = Fraction(math.ceil(lo * q), q)
        assert candidate > hi or candidate < lo
