import sys
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from certcap.channel import (Channel, ResourceCapError, binary_symmetric, hovering_stream,
                             noiseless, resolving_stream, typewriter)
from certcap.confgraph import IndependenceResult, _power_symmetry
from certcap.enclosure import DomainError
from certcap.linalg import as_matrix, char_poly, kernel_basis, mat_mul, transpose
from certcap.plant import Plant
from certcap.roots import schur_stable

DATA_DIR = Path(__file__).resolve().parent / "data"

DEFAULT_PRODUCT_CAP = 4096


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def pentagon():
    return typewriter(5)


@pytest.fixture(scope="session")
def bsc14():
    return binary_symmetric(Fraction(1, 4))


@pytest.fixture(scope="session")
def bsc110():
    return binary_symmetric(Fraction(1, 10))


@pytest.fixture(scope="session")
def nl2():
    return noiseless(2)


@pytest.fixture(scope="session")
def hover_channel(nl2):
    return hovering_stream(nl2, [(0, 1)])


@pytest.fixture(scope="session")
def pentagon_stream(pentagon):
    return resolving_stream(pentagon, 3)


def scalar_plant(a, b=None, disturbance=None):
    return Plant(as_matrix([[Fraction(a)]]), c=as_matrix([[Fraction(1)]]),
                 b=as_matrix([[Fraction(b)]]) if b is not None else None,
                 disturbance_bound=Fraction(disturbance) if disturbance is not None else None)


def diagonal_plant(values, disturbance=None):
    n = len(values)
    a = [[Fraction(values[i]) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    c = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    b = [[Fraction(1)] if i == 0 else [Fraction(0)] for i in range(n)]
    return Plant(as_matrix(a), c=as_matrix(c), b=as_matrix(b),
                 disturbance_bound=Fraction(disturbance) if disturbance is not None else None)


def verify_recursion(traj, cfg) -> bool:
    """Re-check x(t+1) = A x(t) + B u(t) + zeta(t) exactly on a finished
    trajectory, mode by mode, from the recorded states and inputs: each
    residual zeta(t) must be a draw the sampler can make, D (g / 2**31 - 1)
    for an integer g in [0, 2**32), or exactly 0 when D = 0."""
    modes = [row[i] for i, row in enumerate(cfg.plant.a)]
    b, bound = cfg.plant.b, cfg.plant.disturbance_bound or 0
    for t in range(len(traj.times) - 1):
        for i, a_i in enumerate(modes):
            drive = sum(b[i][j] * u for j, u in enumerate(traj.u[t])) if b else 0
            zeta = traj.x[t + 1][i] - a_i * traj.x[t][i] - drive
            g = (zeta / bound + 1) * 2 ** 31 if bound else zeta
            if g.denominator != 1 or not 0 <= g < (2 ** 32 if bound else 1):
                return False
    return True


def reference_radius(traj, cfg) -> list:
    """The decoder's radius at each step, from the recursion rather than the
    loop: every mode starts at the initial radius, an epoch's first step
    divides it by the mode's cell count, and a step maps r to a r + D; each
    row is the largest mode's radius."""
    n, cells = cfg.code.block_length, traj.summary["cells"]
    modes = [row[i] for i, row in enumerate(cfg.plant.a)]
    bound = cfg.plant.disturbance_bound or 0
    radii, rows = [Fraction(cfg.initial_radius)] * len(modes), []
    for t in range(len(traj.times)):
        if t % n == 0:
            radii = [r / m for r, m in zip(radii, cells)]
        rows.append(max(radii))
        radii = [a * r + bound for a, r in zip(modes, radii)]
    return rows


def intersects(a, b) -> bool:
    """Whether two enclosures share a point."""
    return a.lo <= b.hi and b.lo <= a.hi


def product_channel(ch: Channel, n: int, cap: int = DEFAULT_PRODUCT_CAP) -> Channel:
    """n-fold memoryless extension on tuple alphabets, exact entries only: a
    brute-force reference for strong powers and tuple-labelled channels."""
    if not ch.is_exact:
        raise DomainError("product channels need exact entries")
    if n < 1:
        raise DomainError("block length must be >= 1")
    size = len(ch.inputs) ** n
    if size > cap:
        raise ResourceCapError(f"{size} input tuples exceed the cap of {cap}")
    in_tuples = list(product(range(len(ch.inputs)), repeat=n))
    out_tuples = list(product(range(len(ch.outputs)), repeat=n))
    rows = []
    for xs in in_tuples:
        row = []
        for ys in out_tuples:
            w = Fraction(1)
            for x, y in zip(xs, ys):
                w *= ch.rows[x][y]
                if w == 0:
                    break
            row.append(w)
        rows.append(tuple(row))
    new_inputs = tuple(tuple(ch.inputs[i] for i in xs) for xs in in_tuples)
    new_outputs = tuple(tuple(ch.outputs[i] for i in ys) for ys in out_tuples)
    return Channel(new_inputs, new_outputs, rows=tuple(rows))


def reference_detectability(a, c):
    """``roots.is_detectable`` on the full stack [C; CA; ...; CA^(n-1)],
    without stopping early: the kernel basis and free columns of the whole
    stack, and the verdict from A restricted to that kernel."""
    a, c = as_matrix(a), as_matrix(c)
    rows, power = list(c), c
    for _ in range(len(a) - 1):
        power = mat_mul(power, a)
        rows.extend(power)
    basis, free = kernel_basis(rows, len(a))
    if not basis:
        return basis, free, True
    v = transpose(basis)
    image = mat_mul(a, v)
    restriction = tuple(image[f] for f in free)
    assert mat_mul(v, restriction) == image
    return basis, free, schur_stable(char_poly(restriction))


def reference_product_witness(ladder, n):
    """``confgraph._best_product_witness`` by enumeration: every split of n
    into recorded block lengths, parts in non-increasing order, largest part
    first; a later split replaces the incumbent only when its product of
    alphas is strictly larger."""
    sizes = sorted({r.n: r for r in ladder.rungs}.items(), reverse=True)
    best_parts: list = []
    best_size = 0

    def search(remaining: int, largest: int, parts: list, count: int) -> None:
        nonlocal best_parts, best_size
        if remaining == 0:
            if count > best_size:
                best_parts, best_size = parts, count
            return
        for k, rung in sizes:
            if k <= min(remaining, largest):
                search(remaining - k, k, parts + [rung], count * len(rung.witness))

    search(n, n, [], 1)
    combined = [()] if best_parts else []
    for rung in best_parts:
        combined = [prefix + w for prefix in combined for w in rung.witness]
    return tuple(combined)


def reference_independent_set(g, *, node_budget=None, seed_witness=(), upper_bound=None):
    """``confgraph.max_independent_set`` without either memo: every node
    paints its whole candidate set afresh and explores every subtree it
    meets again.  The same branch and bound, orbit pruning and rung bound,
    so it must agree node for node."""
    n = len(g)
    if n == 0:
        return IndependenceResult(0, (), True)
    full = (1 << n) - 1
    comp = [(~g.adjacency[i]) & full & ~(1 << i) for i in range(n)]
    drop = [full & ~(comp[v] | 1 << v) for v in range(n)]
    label_index = {v: i for i, v in enumerate(g.vertices)}
    best_mask = 0
    for label in seed_witness:
        best_mask |= 1 << label_index[label]
    if not g.is_independent(i for i in range(n) if best_mask >> i & 1):
        raise ValueError("seed witness is not independent")
    best = [best_mask.bit_count(), best_mask]
    nodes = 0
    limit = upper_bound
    stopped = False
    exact = True
    group = cache(lambda: _power_symmetry(g))

    def orbit_of(v=None):
        masks = cache(lambda: None if group() is None else group().orbit_masks(v))
        return lambda w: 1 << w if masks() is None else masks()[w]

    def expand(candidates, size, mask, orbit):
        nonlocal nodes, limit, stopped, exact
        if nodes == node_budget:
            stopped, exact = True, False
            return
        nodes += 1
        colour_of = []  # (vertex, colour) in paint order, every class
        rest = candidates
        colour = 0
        while rest:
            colour += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                colour_of.append((v, colour))
                avail &= drop[v]
                rest ^= low
        explored = 0
        unfolded = None
        for v, colour in reversed(colour_of):
            if size + colour <= best[0]:
                return
            if callable(limit):
                limit = limit()
                if best[0] >= limit:
                    stopped = True
                    return
            if unfolded is not None:
                explored |= orbit(unfolded)
                unfolded = None
            if not explored >> v & 1:
                new_mask = mask | (1 << v)
                new_candidates = candidates & comp[v]
                if new_candidates:
                    expand(new_candidates, size + 1, new_mask,
                           orbit_of(v) if size == 0 else None)
                    if stopped:
                        return
                elif size + 1 > best[0]:
                    best[0] = size + 1
                    best[1] = new_mask
                    if limit is not None and best[0] >= limit:
                        stopped = True
                        return
                if orbit is not None:
                    unfolded = v
            candidates ^= 1 << v

    expand(full, 0, 0, orbit_of())
    witness_idx = sorted(i for i in range(n) if best[1] >> i & 1)
    assert g.is_independent(witness_idx)
    return IndependenceResult(best[0], tuple(g.vertices[i] for i in witness_idx), exact, nodes)


# strings that parse_rational must refuse: a decimal point, spaces, a zero
# or signed denominator, "_" and "+" (which int() takes), non-ASCII digits
MALFORMED_RATIONALS = ["0.5", " 1", "1/0", "1_0", "", "+1", "1/-2", "\u0663", "1//2"]


@st.composite
def rational_spelling(draw, value: Fraction, spoil: int = 0) -> str:
    """A document's string for ``value``: mostly its canonical "p/q", which
    repeats wherever the value does, else unreduced or with 5000-digit terms
    (past the interpreter's str-to-int limit); with ``spoil`` percent chance,
    a malformed string from MALFORMED_RATIONALS instead."""
    if draw(st.integers(0, 99)) < spoil:
        return draw(st.sampled_from(MALFORMED_RATIONALS))
    p, q = value.numerator, value.denominator
    kind = draw(st.integers(0, 9))
    if kind <= 1:
        return f"{p * (kind + 2)}/{q * (kind + 2)}"
    if kind == 2:
        zeros = "0" * 4999
        return f"{p}{zeros}/{q}{zeros}"
    return f"{p}/{q}" if q > 1 else str(p)


def load_outcome(load, doc):
    """What ``load`` returns on ``doc``, or the type and text of its error."""
    try:
        return load(doc)
    except ValueError as exc:  # the format errors and DomainError
        return type(exc), str(exc)
