"""Discrete memoryless channels with exact or stream-refined entries.

Exact channels carry rational transition probabilities.  Stream channels
carry per-entry refinement schedules: finite lists of nested intervals
indexed by level, standing in for entries that are only ever known to
finite precision.  Positivity of such an entry can be certified once its
interval clears zero; vanishing is certified only by an explicit exact-zero
pin in the schedule, never by silence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .enclosure import DomainError, load_json, parse_rational, rational_str


class ChannelFormatError(ValueError):
    """Input document fails the channel schema or stochasticity checks."""


class ResourceCapError(RuntimeError):
    """A requested construction exceeds the configured size cap."""


ScheduleStep = tuple[int, Fraction, Fraction]  # (level, lo, hi)
_UNIT = (Fraction(0), Fraction(1))  # an entry's interval before its first step


@dataclass(frozen=True)
class Channel:
    """Finite-alphabet channel; ``rows`` for exact mode, ``schedules`` for stream."""

    inputs: tuple
    outputs: tuple
    rows: tuple | None = None
    schedules: tuple | None = None

    def __post_init__(self):
        for side, labels in (("input", self.inputs), ("output", self.outputs)):
            if not labels:
                raise ChannelFormatError(f"empty {side} alphabet")
            try:
                if len(set(labels)) != len(labels):
                    raise ChannelFormatError(f"duplicate {side} labels")
            except TypeError:
                raise ChannelFormatError(f"{side} labels must be hashable") from None

    @property
    def is_exact(self) -> bool:
        return self.rows is not None

    def entry_interval(self, xi: int, yi: int, level: int) -> tuple[Fraction, Fraction]:
        """Certified interval for entry (x, y) at a refinement level."""
        if self.is_exact:
            w = self.rows[xi][yi]
            return w, w
        lo, hi = _UNIT
        for step_level, step_lo, step_hi in self.schedules[xi][yi]:
            if step_level > level:
                break
            lo, hi = step_lo, step_hi
        return lo, hi

    def declared_levels(self) -> list[int]:
        """Level 0 and every level at which some schedule declares a step;
        an entry's interval changes only at these."""
        cells = (cell for row in self.schedules or () for cell in row)
        return sorted({0} | {lv for cell in cells for lv, _, _ in cell})

    def max_declared_level(self) -> int:
        return self.declared_levels()[-1]

    def to_json(self) -> dict:
        doc = {"inputs": list(self.inputs), "outputs": list(self.outputs),
               "mode": "exact" if self.is_exact else "stream"}
        if self.is_exact:
            doc["rows"] = [[rational_str(w) for w in row] for row in self.rows]
        else:
            doc["schedules"] = [[[{"level": lv, "lo": rational_str(lo),
                                   "hi": rational_str(hi)} for lv, lo, hi in cell]
                                 for cell in row] for row in self.schedules]
        return doc


def exact_channel(inputs, outputs, rows) -> Channel:
    """Exact channel; Fractions are kept, each row is checked over its lcm d."""
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    mat = tuple(tuple(w if type(w) is Fraction else Fraction(w) for w in row) for row in rows)
    if len(mat) != len(inputs) or any(len(r) != len(outputs) for r in mat):
        raise ChannelFormatError("row/alphabet shape mismatch")
    for xi, row in enumerate(mat):
        d = lcm(*(w.denominator for w in row))
        nums = [w.numerator * (d // w.denominator) for w in row]
        if any(w < 0 or w > d for w in nums):
            raise ChannelFormatError(f"entry outside [0, 1] in row {xi}")
        if sum(nums) != d:
            raise ChannelFormatError(
                f"row {xi} sums to {rational_str(Fraction(sum(nums), d))}, not 1")
    return Channel(inputs, outputs, rows=mat)


def stream_channel(inputs, outputs, schedules) -> Channel:
    """Stream channel from per-entry interval schedules; Fractions are kept.

    Each cell is a list of (level, lo, hi), strictly increasing in level and
    nested in interval; a step with lo == hi == 0 is the explicit exact-zero
    pin.  Row sums must contain 1 at every declared level: a row's sums change
    only at its own cells' levels, so one walk over those finds the lowest
    level where a row fails, and the error names the lowest such (level, row).
    The walk compares and adds integers: numerators over the lcm of the row's
    denominators.
    """
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    sched = tuple(tuple(tuple((int(lv), lo if type(lo) is Fraction else Fraction(lo),
                               hi if type(hi) is Fraction else Fraction(hi))
                              for lv, lo, hi in cell)
                        for cell in row) for row in schedules)
    if len(sched) != len(inputs) or any(len(r) != len(outputs) for r in sched):
        raise ChannelFormatError("schedule/alphabet shape mismatch")
    failure = None  # (level, row) of the first row sum that excludes 1
    for xi, row in enumerate(sched):
        d = lcm(*(w.denominator for cell in row for _, lo, hi in cell for w in (lo, hi)))
        changes = {0: [0, 0]}  # level -> change of the row's (lo, hi) sums, times d
        for yi, cell in enumerate(row):
            prev_level, prev_lo, prev_hi = -1, 0, d
            for lv, lo, hi in cell:
                lo, hi = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
                if lv < 0:
                    raise ChannelFormatError(f"negative schedule level at entry ({xi},{yi})")
                if lv <= prev_level:
                    raise ChannelFormatError(
                        f"schedule levels not increasing at entry ({xi},{yi})")
                if not (0 <= lo <= hi <= d):
                    raise ChannelFormatError(
                        f"schedule interval invalid at entry ({xi},{yi})")
                if lo < prev_lo or hi > prev_hi:
                    raise ChannelFormatError(
                        f"schedule not nested at entry ({xi},{yi})")
                change = changes.setdefault(lv, [0, 0])
                change[0] += lo - prev_lo
                change[1] += hi - prev_hi
                prev_level, prev_lo, prev_hi = lv, lo, hi
        lo_sum, hi_sum = 0, len(row) * d
        for level in sorted(changes):
            lo_sum += changes[level][0]
            hi_sum += changes[level][1]
            if not lo_sum <= d <= hi_sum:
                failure = min(failure or (level, xi), (level, xi))
                break
    ch = Channel(inputs, outputs, schedules=sched)
    if failure is not None:
        raise ChannelFormatError(
            f"row {failure[1]} interval sum excludes 1 at level {failure[0]}")
    return ch


def load_channel(doc) -> Channel:
    """Validate a channel document (dict or JSON text), parsing each distinct string once."""
    if isinstance(doc, str):
        doc = load_json(doc, ChannelFormatError)
    if not isinstance(doc, dict):
        raise ChannelFormatError("channel document must be a JSON object")
    try:
        inputs = _list(doc["inputs"], "inputs")
        outputs = _list(doc["outputs"], "outputs")
        mode = doc.get("mode", "exact")
    except KeyError as exc:
        raise ChannelFormatError(f"missing channel field: {exc}") from exc
    parse = cache(parse_rational)  # this document's strings only
    if mode == "exact":
        if "rows" not in doc:
            raise ChannelFormatError("exact channel requires rows")
        rows = [[parse(w) if isinstance(w, str) else _bad(w)
                 for w in _list(row, "a row")] for row in _list(doc["rows"], "rows")]
        return exact_channel(inputs, outputs, rows)
    if mode == "stream":
        if "schedules" not in doc:
            raise ChannelFormatError("stream channel requires schedules")
        sched = [[[_step(step, parse) for step in _list(cell, "a schedule cell")]
                  for cell in _list(row, "a schedule row")]
                 for row in _list(doc["schedules"], "schedules")]
        return stream_channel(inputs, outputs, sched)
    raise ChannelFormatError(f"unknown channel mode {mode!r}")


def _list(value, what: str):
    if not isinstance(value, list):
        raise ChannelFormatError(f"{what} must be a list, got {value!r}")
    return value


def _step(step, parse) -> ScheduleStep:
    level = step.get("level") if isinstance(step, dict) else None
    if type(level) is not int:  # a JSON integer: not a bool, a float or a string
        raise ChannelFormatError(
            f"schedule steps must be objects with an integer level, got {step!r}")
    for name in ("lo", "hi"):
        if not isinstance(step.get(name), str):
            raise ChannelFormatError(
                f"schedule step field {name!r} must be a rational string, got {step!r}")
    return level, parse(step["lo"]), parse(step["hi"])


def _bad(value):
    raise ChannelFormatError(f"entries must be rational strings, got {value!r}")


@dataclass(frozen=True)
class SupportCertificate:
    """Partition of X x Y into proven-positive / proven-zero / unresolved.

    For exact channels everything resolves at level 0.  For stream channels
    the proven sets grow monotonically with the level, and an entry is
    proven zero only when its schedule pins it to [0, 0].
    """

    positive: frozenset
    zero: frozenset
    unresolved: frozenset

    def __post_init__(self):
        if self.positive & self.zero or self.positive & self.unresolved \
                or self.zero & self.unresolved:
            raise ValueError("support certificate sets must be disjoint")


def certify_support(ch: Channel, level: int = 0) -> SupportCertificate:
    if level < 0:
        raise DomainError("level must be non-negative")
    positive, zero, unresolved = set(), set(), set()
    for xi in range(len(ch.inputs)):
        for yi in range(len(ch.outputs)):
            lo, hi = ch.entry_interval(xi, yi, level)
            if lo.numerator > 0:  # a Fraction or an int has its numerator's sign
                positive.add((xi, yi))
            elif lo.numerator == 0 == hi.numerator:
                zero.add((xi, yi))
            else:
                unresolved.add((xi, yi))
    return SupportCertificate(frozenset(positive), frozenset(zero),
                              frozenset(unresolved))


# ---------------------------------------------------------------------------
# built-in parametric families

def binary_symmetric(p) -> Channel:
    p = Fraction(p)
    return exact_channel((0, 1), (0, 1), [[1 - p, p], [p, 1 - p]])


def noiseless(q: int) -> Channel:
    rows = [[Fraction(int(i == j)) for j in range(q)] for i in range(q)]
    return exact_channel(tuple(range(q)), tuple(range(q)), rows)


def typewriter(q: int) -> Channel:
    """Each input lands on itself or its cyclic successor with probability 1/2."""
    half = Fraction(1, 2)
    rows = [[half if j in (i, (i + 1) % q) else Fraction(0) for j in range(q)]
            for i in range(q)]
    return exact_channel(tuple(range(q)), tuple(range(q)), rows)


def resolving_stream(ch: Channel, resolve_level: int) -> Channel:
    """Stream wrapper whose entries pin to the exact values at a given level.

    Below the pin level every entry is only known inside a shrinking
    interval; zero entries hover at [0, 2^-level] until pinned, which
    exercises the one-sided nature of support detection.
    """
    if not ch.is_exact:
        raise DomainError("needs an exact channel to wrap")
    sched = []
    for xi in range(len(ch.inputs)):
        row = []
        for yi in range(len(ch.outputs)):
            w = ch.rows[xi][yi]
            steps = []
            for lv in range(resolve_level):
                slack = Fraction(1, 2 ** (lv + 1))
                steps.append((lv, max(Fraction(0), w - slack), min(Fraction(1), w + slack)))
            steps.append((resolve_level, w, w))
            row.append(tuple(steps))
        sched.append(tuple(row))
    return stream_channel(ch.inputs, ch.outputs, sched)


def hovering_stream(ch: Channel, entries, depth: int = 64) -> Channel:
    """Stream wrapper where the chosen zero entries never resolve.

    Each listed (x, y) must be an exact zero; its schedule hovers at
    [0, 2^-level] down to ``depth`` without an exact-zero pin, so support
    certification leaves it unresolved at every level.  Its row partner at
    (x, x-column...) is widened correspondingly so row sums stay valid.
    """
    if not ch.is_exact:
        raise DomainError("needs an exact channel to wrap")
    entries = {tuple(e) for e in entries}
    for xi, yi in entries:
        if ch.rows[xi][yi] != 0:
            raise DomainError("hovering entries must be exact zeros")
    sched = []
    for xi in range(len(ch.inputs)):
        hovering_here = [e for e in entries if e[0] == xi]
        row = []
        for yi in range(len(ch.outputs)):
            w = ch.rows[xi][yi]
            if (xi, yi) in entries:
                steps = tuple((lv, Fraction(0), Fraction(1, 2 ** lv))
                              for lv in range(depth))
            elif hovering_here and w > 0:
                # absorb the hover slack so the row-sum interval contains 1
                steps = tuple((lv, max(Fraction(0), w - Fraction(len(hovering_here), 2 ** lv)), w)
                              for lv in range(depth))
            else:
                steps = ((0, w, w),)
            row.append(steps)
        sched.append(tuple(row))
    return stream_channel(ch.inputs, ch.outputs, sched)
