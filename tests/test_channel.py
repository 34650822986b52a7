import time
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcap import channel as channel_module
from certcap.channel import (Channel, ChannelFormatError, ResourceCapError,
                             binary_symmetric, certify_support, exact_channel, load_channel,
                             noiseless, resolving_stream, stream_channel, typewriter)
from certcap.enclosure import DomainError, parse_rational, rational_str
from conftest import MALFORMED_RATIONALS, load_outcome, product_channel, rational_spelling

F = Fraction


class TestLoading:
    def test_identity_rows(self):
        ch = load_channel({"inputs": [0, 1], "outputs": [0, 1], "mode": "exact",
                           "rows": [["1", "0"], ["0", "1"]]})
        assert ch.is_exact
        assert ch.rows[0][0] == 1 and ch.rows[0][1] == 0

    def test_pentagon_is_valid(self, pentagon):
        doc = pentagon.to_json()
        again = load_channel(doc)
        assert again.rows == pentagon.rows

    def test_non_stochastic_row_rejected(self):
        with pytest.raises(ChannelFormatError):
            load_channel({"inputs": [0, 1], "outputs": [0, 1], "mode": "exact",
                          "rows": [["1/2", "1/3"], ["0", "1"]]})

    def test_malformed_rational_rejected(self):
        with pytest.raises(Exception):
            load_channel({"inputs": [0], "outputs": [0], "mode": "exact",
                          "rows": [["0.9999"]]})

    def test_entry_outside_unit_interval_rejected(self):
        with pytest.raises(ChannelFormatError):
            exact_channel((0,), (0, 1), [[F(3, 2), F(-1, 2)]])

    def test_stream_round_trip(self, hover_channel):
        doc = hover_channel.to_json()
        again = load_channel(doc)
        assert again.schedules == hover_channel.schedules

    def test_stream_row_sum_must_contain_one(self):
        sched = [[((0, F(0), F(1, 4)),), ((0, F(0), F(1, 4)),)]]
        with pytest.raises(ChannelFormatError):
            load_channel({"inputs": [0], "outputs": [0, 1], "mode": "stream",
                          "schedules": [[[{"level": 0, "lo": "0", "hi": "1/4"}],
                                         [{"level": 0, "lo": "0", "hi": "1/4"}]]]})


    def test_late_pin_loads_without_walking_every_level(self):
        # one pin at level 10**9: the row sums change only at levels 0 and 10**9
        late = 10 ** 9
        half = [{"level": 0, "lo": "1/4", "hi": "3/4"}, {"level": late, "lo": "1/2", "hi": "1/2"}]
        start = time.perf_counter()
        ch = load_channel({"inputs": [0], "outputs": [0, 1], "mode": "stream",
                           "schedules": [[half, half]]})
        assert time.perf_counter() - start < 1
        assert ch.max_declared_level() == late
        assert ch.entry_interval(0, 0, late - 1) == (F(1, 4), F(3, 4))
        assert ch.entry_interval(0, 0, late) == (F(1, 2), F(1, 2))

    def test_stream_row_sum_checked_at_each_declared_level(self):
        # the sum of row 0 holds 1 up to level 2 and first misses it at
        # level 3, which only entry (0, 0) declares
        dips = [{"level": 0, "lo": "0", "hi": "1"}, {"level": 3, "lo": "0", "hi": "1/4"}]
        wide = [{"level": 0, "lo": "0", "hi": "1"}, {"level": 2, "lo": "1/4", "hi": "1/2"},
                {"level": 5, "lo": "1/2", "hi": "1/2"}]
        with pytest.raises(ChannelFormatError, match="row 0 interval sum excludes 1 at level 3"):
            load_channel({"inputs": [0], "outputs": [0, 1], "mode": "stream",
                          "schedules": [[dips, wide]]})

    def test_row_sum_failing_first_at_a_middle_level_names_it(self):
        # levels 0, 2, 4, 6, 8 are declared; row 1 first misses 1 at level 4
        # (its upper sum 1/8 + 3/4), row 0 only at level 6 (1/4 + 1/2): the
        # error names the lowest level, not the lowest row or the last level
        def cell(*steps):
            return [{"level": lv, "lo": lo, "hi": hi} for lv, lo, hi in steps]
        row0 = [cell((0, "0", "1"), (6, "0", "1/4")),
                cell((0, "0", "1"), (2, "1/4", "1/2"), (8, "1/2", "1/2"))]
        row1 = [cell((0, "0", "1"), (4, "0", "1/8")), cell((0, "0", "1"), (2, "1/4", "3/4"))]
        with pytest.raises(ChannelFormatError,
                           match=r"^row 1 interval sum excludes 1 at level 4$"):
            load_channel({"inputs": [0, 1], "outputs": [0, 1], "mode": "stream",
                          "schedules": [row0, row1]})


@pytest.mark.parametrize("inputs, outputs, message", [
    (("a", "a"), (0, 1), "duplicate input labels"),
    ((0, 1), (1, 1), "duplicate output labels"),
    # 1 and True are equal, so they name one symbol
    ((1, True), (0, 1), "duplicate input labels"),
    (([0, 0], [0, 1]), (0, 1), "input labels must be hashable"),
    ((0, 1), ((0, [1]), (1, [0])), "output labels must be hashable"),
], ids=["duplicate-inputs", "duplicate-outputs", "equal-inputs",
        "list-inputs", "unhashable-outputs"])
def test_channel_labels_must_be_distinct_and_hashable(inputs, outputs, message):
    rows = ((F(1), F(0)), (F(0), F(1)))
    with pytest.raises(ChannelFormatError, match=message):
        Channel(inputs, outputs, rows=rows)
    with pytest.raises(ChannelFormatError, match=message):
        exact_channel(inputs, outputs, rows)
    schedules = tuple(tuple(((0, w, w),) for w in row) for row in rows)
    with pytest.raises(ChannelFormatError, match=message):
        Channel(inputs, outputs, schedules=schedules)



WHOLE = (0, F(1), F(1))  # one schedule step pinning an entry to 1


@pytest.mark.parametrize("build, message", [
    (lambda: exact_channel((0, 1), (0, 1), [[1, 0]]), "row/alphabet shape mismatch"),
    (lambda: stream_channel((0,), (0, 1), [[(WHOLE,)]]), "schedule/alphabet shape mismatch"),
    (lambda: stream_channel((0,), (0,), [[(WHOLE, WHOLE)]]),
     r"schedule levels not increasing at entry \(0,0\)"),
    (lambda: stream_channel((0,), (0,), [[((-1, F(1), F(1)),)]]),
     r"negative schedule level at entry \(0,0\)"),
    (lambda: stream_channel((0,), (0,), [[((0, F(1), F(1, 2)),)]]),
     r"schedule interval invalid at entry \(0,0\)"),
    (lambda: stream_channel((0,), (0,), [[((0, F(1, 2), F(1)), (1, F(1, 4), F(1)))]]),
     r"schedule not nested at entry \(0,0\)"),
], ids=["exact-shape", "stream-shape", "levels-not-increasing", "negative-level",
        "interval-invalid", "not-nested"])
def test_malformed_rows_and_schedules_are_refused(build, message):
    with pytest.raises(ChannelFormatError, match=message):
        build()


BIG = 10 ** 99 + 289  # a 100-digit denominator
ENTRIES = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(5, 4), F(-1, 3),
           F(1, BIG), F(BIG - 1, BIG), F(BIG // 2, BIG), F(BIG // 2 + 1, BIG)]
entries = st.sampled_from(ENTRIES)


def reference_exact_error(rows):
    """The error exact_channel must raise on well-shaped rows, by Fraction
    comparisons and sums, or None."""
    for xi, row in enumerate(rows):
        if any(w < 0 or w > 1 for w in row):
            return f"entry outside [0, 1] in row {xi}"
        if sum(row) != 1:
            return f"row {xi} sums to {rational_str(sum(row))}, not 1"
    return None


def reference_stream_error(sched):
    """The error stream_channel must raise on well-shaped schedules, or None:
    each step in order, then each declared level from the lowest and each row
    from the first, with every interval sum taken afresh in Fractions."""
    for xi, row in enumerate(sched):
        for yi, cell in enumerate(row):
            prev_level, prev = -1, (F(0), F(1))
            for lv, lo, hi in cell:
                if lv < 0:
                    return f"negative schedule level at entry ({xi},{yi})"
                if lv <= prev_level:
                    return f"schedule levels not increasing at entry ({xi},{yi})"
                if not 0 <= lo <= hi <= 1:
                    return f"schedule interval invalid at entry ({xi},{yi})"
                if lo < prev[0] or hi > prev[1]:
                    return f"schedule not nested at entry ({xi},{yi})"
                prev_level, prev = lv, (lo, hi)
    for level in sorted({0} | {lv for row in sched for cell in row for lv, _, _ in cell}):
        for xi, row in enumerate(sched):
            at = [next(((lo, hi) for lv, lo, hi in reversed(cell) if lv <= level), (F(0), F(1)))
                  for cell in row]
            if not sum(lo for lo, _ in at) <= 1 <= sum(hi for _, hi in at):
                return f"row {xi} interval sum excludes 1 at level {level}"
    return None


@st.composite
def exact_rows(draw):
    """Rows of drawn entries, each closed to sum 1 by its last entry or not."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = []
    for _ in range(nx):
        row = draw(st.lists(entries, min_size=ny - 1, max_size=ny - 1))
        rows.append(row + [1 - sum(row) if draw(st.booleans()) else draw(entries)])
    return rows


@st.composite
def schedule_cell(draw):
    """Steps at drawn levels (repeated, unsorted or negative ones unless the
    cell is tidy) with drawn intervals, clipped to nest in the previous one
    unless the cell is loose; lo > hi, exact-zero pins and 100-digit
    denominators all come up."""
    levels = draw(st.lists(st.integers(-1, 5), max_size=4))
    if draw(st.booleans()):
        levels = sorted(set(levels) - {-1})
    nested = draw(st.booleans())
    steps, prev = [], (F(0), F(1))
    for level in levels:
        lo, hi = draw(entries), draw(entries)
        if draw(st.integers(0, 4)) == 0:
            lo = hi = F(0)  # the exact-zero pin
        elif nested:
            lo, hi = max(lo, prev[0]), min(hi, prev[1])
            if lo > hi:
                lo, hi = (hi, hi) if hi >= prev[0] else (lo, lo) if lo <= prev[1] else prev
        steps.append((level, lo, hi))
        prev = (lo, hi)
    return tuple(steps)


@given(rows=exact_rows())
@settings(max_examples=300, deadline=None)
def test_exact_validation_agrees_with_fraction_reference(rows):
    expected = reference_exact_error(rows)
    try:
        ch = exact_channel(range(len(rows)), range(len(rows[0])), rows)
    except ChannelFormatError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert ch.rows == tuple(map(tuple, rows))


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_stream_validation_agrees_with_fraction_reference(data):
    nx, ny = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    sched = [[data.draw(schedule_cell()) for _ in range(ny)] for _ in range(nx)]
    expected = reference_stream_error(sched)
    try:
        ch = stream_channel(range(nx), range(ny), sched)
    except ChannelFormatError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert ch.schedules == tuple(map(tuple, sched))


def reference_load_channel(doc):
    """load_channel on a well-shaped document without its memo: every string
    parsed afresh, in document order."""
    if doc["mode"] == "exact":
        rows = [[parse_rational(w) for w in row] for row in doc["rows"]]
        return exact_channel(doc["inputs"], doc["outputs"], rows)
    sched = [[[(step["level"], parse_rational(step["lo"]), parse_rational(step["hi"]))
               for step in cell] for cell in row] for row in doc["schedules"]]
    return stream_channel(doc["inputs"], doc["outputs"], sched)


def document_strings(doc) -> list[str]:
    """Every rational string of a well-shaped channel document, in document order."""
    if doc["mode"] == "exact":
        return [w for row in doc["rows"] for w in row]
    return [step[k] for row in doc["schedules"] for cell in row for step in cell
            for k in ("lo", "hi")]


@st.composite
def channel_documents(draw):
    """Exact rows or schedules, drawn as above or a resolving stream of a
    valid channel, with each rational spelled by rational_spelling and, in
    some documents, some of them malformed."""
    kind = draw(st.sampled_from(["exact", "stream", "resolving"]))
    spoil = draw(st.sampled_from([0, 0, 1, 10]))

    def spell(value):
        return draw(rational_spelling(value, spoil))

    if kind == "exact":
        rows = draw(exact_rows())
        return {"inputs": list(range(len(rows))), "outputs": list(range(len(rows[0]))),
                "mode": "exact", "rows": [[spell(w) for w in row] for row in rows]}
    if kind == "stream":
        nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        sched = [[draw(schedule_cell()) for _ in range(ny)] for _ in range(nx)]
    else:
        base = draw(st.sampled_from([typewriter(3), noiseless(2), binary_symmetric(F(1, 3))]))
        sched = resolving_stream(base, draw(st.integers(0, 3))).schedules
    return {"inputs": list(range(len(sched))), "outputs": list(range(len(sched[0]))),
            "mode": "stream",
            "schedules": [[[{"level": lv, "lo": spell(lo), "hi": spell(hi)}
                            for lv, lo, hi in cell] for cell in row] for row in sched]}


@given(doc=channel_documents())
@settings(max_examples=300, deadline=None)
def test_loading_parses_each_string_once_and_agrees_with_a_fresh_parse(doc):
    expected = load_outcome(reference_load_channel, doc)
    with mock.patch.object(channel_module, "parse_rational", wraps=parse_rational) as spy:
        assert load_outcome(load_channel, doc) == expected
    parsed = Counter(call.args[0] for call in spy.call_args_list)
    assert set(parsed.values()) <= {1}
    strings = document_strings(doc)
    if not any(w in MALFORMED_RATIONALS for w in strings):
        assert parsed.keys() == set(strings)
    else:  # the first malformed string stops the load, with the same error
        first = next(w for w in strings if w in MALFORMED_RATIONALS)
        assert expected == (DomainError, f"malformed rational: {first!r}")


def test_validation_keeps_the_fractions_it_is_given():
    lo, hi, pin = F(1, 3), F(2, 3), F(1, 2)
    ch = stream_channel((0,), (0, 1), [[((0, lo, hi), (2, pin, pin)), ((0, F(1, 3), F(2, 3)),)]])
    (first, second), _ = ch.schedules[0]
    assert first[1] is lo and first[2] is hi and second[1] is pin and second[2] is pin
    row = [F(1, 3), F(2, 3)]
    assert all(a is b for a, b in zip(exact_channel((0,), (0, 1), [row]).rows[0], row))


@pytest.mark.parametrize("inputs, outputs, side", [
    ((), (0, 1), "input"), ((0, 1), (), "output"), ((), (), "input"),
], ids=["no-inputs", "no-outputs", "neither"])
def test_channel_alphabets_must_be_nonempty(inputs, outputs, side):
    with pytest.raises(ChannelFormatError, match=f"empty {side} alphabet"):
        Channel(inputs, outputs, rows=tuple(() for _ in inputs))
    with pytest.raises(ChannelFormatError, match=f"empty {side} alphabet"):
        Channel(inputs, outputs, schedules=tuple(() for _ in inputs))


def test_loading_empty_alphabets_names_them():
    with pytest.raises(ChannelFormatError, match="empty input alphabet"):
        load_channel({"inputs": [], "outputs": [], "rows": []})

class TestSupport:
    def test_bsc_all_positive(self, bsc14):
        cert = certify_support(bsc14)
        assert len(cert.positive) == 4 and not cert.zero and not cert.unresolved

    def test_pentagon_counts(self, pentagon):
        cert = certify_support(pentagon)
        assert len(cert.positive) == 10
        assert len(cert.zero) == 15
        assert not cert.unresolved

    def test_hovering_entry_never_resolves(self, hover_channel):
        for level in (0, 3, 17, 60):
            cert = certify_support(hover_channel, level)
            assert (0, 1) in cert.unresolved

    def test_monotone_in_level(self, pentagon_stream, hover_channel):
        for ch in (pentagon_stream, hover_channel):
            prev = certify_support(ch, 0)
            for level in range(1, ch.max_declared_level() + 1):
                cur = certify_support(ch, level)
                assert prev.positive <= cur.positive
                assert prev.zero <= cur.zero
                assert cur.unresolved <= prev.unresolved
                prev = cur


def reference_support(ch, level) -> tuple[set, set, set]:
    """certify_support's (positive, zero, unresolved), by Fraction comparisons."""
    sets = {"positive": set(), "zero": set(), "unresolved": set()}
    for xi, yi in product(range(len(ch.inputs)), range(len(ch.outputs))):
        lo, hi = (F(w) for w in ch.entry_interval(xi, yi, level))
        sets["positive" if lo > 0 else "zero" if lo == hi == 0 else "unresolved"].add((xi, yi))
    return sets["positive"], sets["zero"], sets["unresolved"]


def _certified(ch, level) -> tuple[set, set, set]:
    cert = certify_support(ch, level)
    return cert.positive, cert.zero, cert.unresolved


HOSTILE = (0, F(-1, 3), 0)  # a negative lo under hi = 0: no pin, so never zero


def test_support_reads_ints_pins_and_hostile_entries_like_fractions():
    exact = Channel((0, 1), (0, 1, 2), rows=((1, 0, 0), (F(1, 2), 0, F(1, 2))))
    assert _certified(exact, 0) == ({(0, 0), (1, 0), (1, 2)}, {(0, 1), (0, 2), (1, 1)}, set())
    stream = Channel((0, 1), (0, 1), schedules=(
        (((0, 0, F(1, 2)), (2, 0, 0)), ((0, F(1, 2), 1), (1, 1, 1))),
        ((HOSTILE,), ((0, -1, 0), (3, F(-1, 2), F(0))))))
    for level in range(5):
        assert _certified(stream, level) == reference_support(stream, level)
        positive, zero, unresolved = _certified(stream, level)
        assert {(1, 0), (1, 1)} <= unresolved and (0, 1) in positive
        assert ((0, 0) in zero) == (level >= 2)


ENDPOINTS = [0, 1, -1, 2, F(0), F(1, 2), F(-1, 3), F(3, 2), F(1, 10 ** 40)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_support_agrees_with_a_fraction_reference(data):
    nx, ny = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    steps = st.tuples(st.integers(0, 4), st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS))
    cell = st.lists(steps, max_size=3, unique_by=lambda step: step[0]).map(sorted).map(tuple)
    if data.draw(st.booleans()):
        ch = Channel(tuple(range(nx)), tuple(range(ny)), rows=tuple(
            tuple(data.draw(st.sampled_from(ENDPOINTS)) for _ in range(ny)) for _ in range(nx)))
    else:
        ch = Channel(tuple(range(nx)), tuple(range(ny)), schedules=tuple(
            tuple(data.draw(cell) for _ in range(ny)) for _ in range(nx)))
    for level in range(5):
        assert _certified(ch, level) == reference_support(ch, level)


class TestProducts:
    """The brute-force product channel that strong-power tests compare with."""

    def test_block_one_is_identity_on_entries(self, bsc14):
        prod = product_channel(bsc14, 1)
        assert prod.rows == bsc14.rows

    def test_noiseless_cube(self, nl2):
        prod = product_channel(nl2, 3)
        assert len(prod.inputs) == 8
        for i in range(8):
            for j in range(8):
                assert prod.rows[i][j] == (1 if i == j else 0)

    def test_bsc_square_entry(self, bsc14):
        prod = product_channel(bsc14, 2)
        xi = prod.inputs.index((0, 0))
        yi = prod.outputs.index((1, 1))
        assert prod.rows[xi][yi] == F(1, 4) * F(1, 4)
        yi = prod.outputs.index((0, 1))
        assert prod.rows[xi][yi] == F(3, 4) * F(1, 4)

    def test_cap_enforced(self, pentagon):
        with pytest.raises(ResourceCapError):
            product_channel(pentagon, 7)

    def test_stream_rejected(self, hover_channel):
        with pytest.raises(Exception):
            product_channel(hover_channel, 2)


weights = st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=3)


@st.composite
def small_exact_channel(draw):
    nx = draw(st.integers(min_value=1, max_value=3))
    ny = draw(st.integers(min_value=2, max_value=3))
    rows = []
    for _ in range(nx):
        raw = draw(st.lists(st.integers(min_value=0, max_value=5),
                            min_size=ny, max_size=ny).filter(lambda r: sum(r) > 0))
        total = sum(raw)
        rows.append([F(v, total) for v in raw])
    return exact_channel(tuple(range(nx)), tuple(range(ny)), rows)


@given(ch=small_exact_channel(), n=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_product_rows_sum_to_one(ch, n):
    prod = product_channel(ch, n)
    for row in prod.rows:
        assert sum(row) == 1


def test_typewriter_shape():
    ch = typewriter(5)
    for x in range(5):
        hits = [y for y in range(5) if ch.rows[x][y] > 0]
        assert hits == sorted({x, (x + 1) % 5})
        assert all(ch.rows[x][y] == F(1, 2) for y in hits)


def test_noiseless_support_is_diagonal():
    cert = certify_support(noiseless(3))
    assert cert.positive == frozenset((i, i) for i in range(3))
