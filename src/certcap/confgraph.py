"""Confusability graphs, strong powers, exact independence numbers, and the
monotone lower-bound ladder for zero-error rates.

Adjacency is stored as one bitmask per vertex, which keeps the
branch-and-bound solver allocation-free and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .channel import Channel, ResourceCapError, SupportCertificate, certify_support
from .enclosure import Enclosure, log2_enclosure

DEFAULT_VERTEX_CAP = 4096
DEFAULT_NODE_BUDGET = 200_000
RATE_WIDTH = Fraction(1, 1 << 16)


class LadderError(ValueError):
    """The ladder refused an unsound extension."""


@dataclass(frozen=True)
class ConfusabilityGraph:
    """Vertices are channel inputs; edges join inputs some output can confuse.

    ``conservative`` marks graphs whose edge set may overestimate the true
    one because unresolved support entries were treated as positive; such
    graphs are unusable for certified independence lower bounds.

    Construction checks that every mask stays inside the vertex range, that
    there are no self-loops and that adjacency is symmetric; the symmetry
    check compares each 64x64 block of the adjacency matrix, transposed
    with bit operations, against its mirror block.
    """

    vertices: tuple
    adjacency: tuple[int, ...]  # bitmask of neighbours per vertex index
    conservative: bool = False

    def __post_init__(self):
        n = len(self.vertices)
        if len(self.adjacency) != n:
            raise ValueError("one adjacency mask per vertex")
        for i, mask in enumerate(self.adjacency):
            if mask >> n:
                raise ValueError("adjacency mask outside vertex range")
            if mask & (1 << i):
                raise ValueError("self-loop in confusability graph")
        if not _is_symmetric(self.adjacency):
            raise ValueError("adjacency must be symmetric")

    def __len__(self) -> int:
        return len(self.vertices)

    def are_adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] & (1 << j))

    def is_complete(self) -> bool:
        n = len(self.vertices)
        full = (1 << n) - 1
        return all(self.adjacency[i] | (1 << i) == full for i in range(n))

    def is_independent(self, indices) -> bool:
        indices = list(indices)
        return all(not self.are_adjacent(a, b)
                   for k, a in enumerate(indices) for b in indices[k + 1:])


_BLOCK = 64
# _TRANSPOSE_MASKS[j]: the entries (r, c) of a 64x64 bit block, packed as bit
# 64*r + c, with bit j clear in both r and c: the word of columns with bit j
# clear, repeated in the rows with bit j clear.
_TRANSPOSE_MASKS = {
    j: sum(columns << _BLOCK * r for r in range(_BLOCK) if not r & j)
    for j, columns in ((32, 0x00000000FFFFFFFF), (16, 0x0000FFFF0000FFFF),
                       (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
                       (2, 0x3333333333333333), (1, 0x5555555555555555))}


def _transpose_block(x: int) -> int:
    """Transpose a 64x64 bit matrix packed row-major (entry (r, c) at bit
    64*r + c): swap the off-diagonal j x j sub-blocks for j = 32, ..., 1
    (Hacker's Delight, section 7-3)."""
    for j, mask in _TRANSPOSE_MASKS.items():
        t = ((x >> j) ^ (x >> (_BLOCK * j))) & mask
        x ^= (t << j) | (t << (_BLOCK * j))
    return x


def _is_symmetric(adjacency: tuple[int, ...]) -> bool:
    """True iff bit j of row i equals bit i of row j for every i, j.

    The rows become one little-endian byte string of 64-bit words, a block
    row every 64 rows, so block (I, J) is a strided slice of 64 words.  Each
    block on or above the diagonal is packed, transposed and compared with
    its mirror block (J, I).
    """
    blocks = -(-len(adjacency) // _BLOCK)
    row_bytes = blocks * _BLOCK // 8
    padding = bytes(row_bytes) * (blocks * _BLOCK - len(adjacency))
    words = memoryview(b"".join(mask.to_bytes(row_bytes, "little")
                                for mask in adjacency) + padding).cast("Q")
    stride = blocks * _BLOCK  # words per block row

    def block(i: int, j: int) -> int:
        start = i * stride + j
        return int.from_bytes(words[start:start + stride:blocks].tobytes(), "little")

    return all(_transpose_block(block(i, j)) == block(j, i)
               for i in range(blocks) for j in range(i, blocks))


def confusability_graph(cert: SupportCertificate, inputs: tuple,
                        n_outputs: int) -> ConfusabilityGraph:
    """Graph on the channel inputs from a support certificate.

    The inputs that may reach an output (proven positive or unresolved) form
    a clique.  The graph is conservative when an unresolved entry adds an
    edge that the proven-positive entries alone do not give.
    """
    adjacency = _clique_union(cert.positive | cert.unresolved, len(inputs), n_outputs)
    definite = _clique_union(cert.positive, len(inputs), n_outputs)
    return ConfusabilityGraph(tuple(inputs), tuple(adjacency),
                              conservative=adjacency != definite)


def _clique_union(entries, nx: int, ny: int) -> list[int]:
    """Adjacency joining every two inputs that reach a common output."""
    reach = [0] * ny  # the clique of inputs reaching each output
    for x, y in entries:
        reach[y] |= 1 << x
    adjacency = [0] * nx
    for x, y in entries:
        adjacency[x] |= reach[y]
    return [mask & ~(1 << x) for x, mask in enumerate(adjacency)]


def certified_graph(ch: Channel, level: int) -> ConfusabilityGraph:
    """Confusability graph of the support of ``ch`` certified at ``level``."""
    return confusability_graph(certify_support(ch, level), ch.inputs, len(ch.outputs))


def strong_power(g: ConfusabilityGraph, n: int,
                 cap: int = DEFAULT_VERTEX_CAP) -> ConfusabilityGraph:
    """n-th strong power: tuples adjacent iff equal-or-adjacent coordinatewise.

    Vertices are the n-tuples of base vertices in ``itertools.product``
    order.  Closed neighbourhoods (adjacency plus the vertex itself) of a
    strong product are Kronecker products of the factors' closed
    neighbourhoods, so the masks are built one coordinate at a time: the
    row of ``(a, rest)`` is the OR of ``rows[rest] << p * width`` over the
    bits ``p`` of a's closed mask, where width is the size of the previous
    power.  Clearing each vertex's own bit then gives the adjacency.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    size = len(g) ** n
    if size > cap:
        raise ResourceCapError(f"{size} vertices exceed the cap of {cap}")
    closed = [mask | 1 << a for a, mask in enumerate(g.adjacency)]
    rows = closed
    for _ in range(n - 1):
        width = len(rows)
        rows = [_kronecker_row(c, row, width) for c in closed for row in rows]
    adjacency = tuple(row ^ 1 << i for i, row in enumerate(rows))
    return ConfusabilityGraph(tuple(product(g.vertices, repeat=n)), adjacency,
                              conservative=g.conservative)


def _kronecker_row(closed: int, row: int, width: int) -> int:
    """OR of ``row << p * width`` over the set bits p of ``closed``."""
    out = 0
    while closed:
        low = closed & -closed
        out |= row << (low.bit_length() - 1) * width
        closed ^= low
    return out


def is_zero_capacity(g: ConfusabilityGraph) -> bool:
    """True iff no two inputs are ever distinguishable (complete graph)."""
    if g.conservative:
        raise LadderError("zero-capacity test needs an exact graph")
    return g.is_complete()


@dataclass(frozen=True)
class IndependenceResult:
    alpha: int
    witness: tuple  # vertex labels
    exact: bool     # False when the node budget cut the search short


def max_independent_set(g: ConfusabilityGraph, *,
                        node_budget: int | None = None,
                        seed_witness: tuple = (),
                        vertex_cap: int = DEFAULT_VERTEX_CAP) -> IndependenceResult:
    """Exact maximum independent set by branch and bound.

    Runs as a maximum-clique search on the complement.  Each node paints
    its candidates greedily, lowest index first, into colour classes of
    vertices independent in the complement, and visits them from the last
    painted back; a candidate whose colour number cannot lift the clique
    above the incumbent cuts the node.  ``seed_witness`` (vertex labels)
    primes the incumbent, and ``node_budget`` caps the search; when the
    budget runs out the best set found is returned flagged as a lower bound
    only.
    """
    n = len(g)
    if n > vertex_cap:
        raise ResourceCapError(f"{n} vertices exceed the cap of {vertex_cap}")
    if n == 0:
        return IndependenceResult(0, (), True)
    full = (1 << n) - 1
    comp = [(~g.adjacency[i]) & full & ~(1 << i) for i in range(n)]
    # painting v removes v and its complement-neighbours from the colour class
    drop = [full & ~(comp[v] | 1 << v) for v in range(n)]

    label_index = {v: i for i, v in enumerate(g.vertices)}
    best_mask = 0
    for label in seed_witness:
        best_mask |= 1 << label_index[label]
    if not g.is_independent(i for i in range(n) if best_mask >> i & 1):
        raise ValueError("seed witness is not independent")
    best = [best_mask.bit_count(), best_mask]

    nodes = [node_budget if node_budget is not None else -1]
    exact = [True]

    def expand(candidates: int, size: int, mask: int) -> None:
        if nodes[0] == 0:
            exact[0] = False
            return
        if nodes[0] > 0:
            nodes[0] -= 1
        # greedy colouring of the candidate set for the pruning bound; the
        # vertices of colours up to best - size would cut the node at once,
        # so those colours are painted without recording them
        rest = candidates
        colour = 0
        while rest and colour < best[0] - size:
            colour += 1
            avail = rest
            while avail:
                low = avail & -avail
                avail &= drop[low.bit_length() - 1]
                rest ^= low
        colour_of: list[tuple[int, int]] = []  # (vertex, colour) in paint order
        while rest:
            colour += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                colour_of.append((v, colour))
                avail &= drop[v]
                rest ^= low
        for v, colour in reversed(colour_of):
            if size + colour <= best[0]:
                return
            new_mask = mask | (1 << v)
            new_candidates = candidates & comp[v]
            if new_candidates:
                expand(new_candidates, size + 1, new_mask)
                if nodes[0] == 0 and not exact[0]:
                    return
            elif size + 1 > best[0]:
                best[0] = size + 1
                best[1] = new_mask
            candidates ^= 1 << v

    expand(full, 0, 0)

    witness_idx = sorted(i for i in range(n) if best[1] >> i & 1)
    witness = tuple(g.vertices[i] for i in witness_idx)
    if not g.is_independent(witness_idx):
        raise RuntimeError("solver produced a dependent witness")
    return IndependenceResult(best[0], witness, exact[0])


@dataclass(frozen=True)
class LadderRung:
    n: int
    alpha: int
    witness: tuple  # words: tuples of n input labels
    rate_lo: Enclosure  # encloses log2(alpha)/n
    exact: bool

    def to_json(self) -> dict:
        return {"n": self.n, "alpha": self.alpha,
                "rate_lo_lo": str(self.rate_lo.lo), "rate_lo_hi": str(self.rate_lo.hi),
                "witness": witness_json(self.witness, self.n), "exact": self.exact}


def witness_json(words: tuple, n: int) -> list:
    """Witness words as JSON: label lists, or bare labels when n = 1."""
    return [list(w) if n > 1 else w[0] for w in words]


@dataclass(frozen=True)
class CapacityLadder:
    """Monotone lower-bound ladder for the zero-error rate of a graph.

    running_best tracks the rung with the largest certified lower endpoint;
    because every witness is a genuine zero-error code, every rung is sound
    and the supremum characterization makes the running maximum the right
    report (per-rung normalized rates need not be monotone).
    """

    rungs: tuple = ()
    running_best: Enclosure | None = None

    def recorded(self, n: int) -> LadderRung | None:
        return next((r for r in self.rungs if r.n == n), None)

    def to_json(self) -> dict:
        doc = {"rungs": [r.to_json() for r in self.rungs]}
        if self.running_best is not None:
            doc["running_best"] = self.running_best.to_json()
        return doc


def extend_ladder(ladder: CapacityLadder, g: ConfusabilityGraph, n: int, *,
                  node_budget: int | None = DEFAULT_NODE_BUDGET,
                  vertex_cap: int = DEFAULT_VERTEX_CAP) -> CapacityLadder:
    """Append rung n: alpha of the n-th strong power plus its rate enclosure.

    Refuses conservative graphs: a witness over uncertain support is not a
    certified zero-error code.  The incumbent is seeded with products of
    earlier witnesses, so recorded alphas always satisfy the
    supermultiplicative inequality even when the node budget truncates the
    search.
    """
    if g.conservative:
        raise LadderError(
            "conservative graph: unresolved channel entries may hide edges, "
            "so independence would not certify a zero-error code")
    if ladder.recorded(n) is not None:
        raise LadderError(f"rung {n} already recorded")
    power = strong_power(g, n, cap=vertex_cap)
    seed = _best_product_witness(ladder, n)
    result = max_independent_set(power, node_budget=node_budget,
                                 seed_witness=seed, vertex_cap=vertex_cap)
    rate = log2_enclosure(Fraction(result.alpha), RATE_WIDTH * n).scaled(Fraction(1, n))
    rung = LadderRung(n, result.alpha, result.witness, rate, result.exact)
    rungs = tuple(sorted(ladder.rungs + (rung,), key=lambda r: r.n))
    best = ladder.running_best
    if best is None or rate.lo > best.lo:
        best = rate
    return CapacityLadder(rungs, best)


def _best_product_witness(ladder: CapacityLadder, n: int) -> tuple:
    """Largest concatenation of recorded witnesses filling block length n.

    Every split of n into recorded block lengths, parts in non-increasing
    order, is tried largest part first; a later split replaces the incumbent
    only when its product of alphas is strictly larger, so on ties the
    greedy largest-first split wins.
    """
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
