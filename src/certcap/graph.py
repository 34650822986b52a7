"""Confusability graphs with ``is_code``, the one zero-error word check, and
``Support``, the one support derivation shared by the solvers and the checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import channel


@dataclass(frozen=True)
class ConfusabilityGraph:
    """Vertices are channel inputs; edges join inputs some output may confuse.

    Construction checks that every mask stays inside the vertex range, that
    there are no self-loops and that adjacency is symmetric (_is_symmetric).

    ``power_of`` is ``(base, n)`` on ``strong_power``'s graphs only (it is no
    constructor argument); the independence search reads automorphisms there.
    """

    vertices: tuple
    adjacency: tuple[int, ...]  # bitmask of neighbours per vertex index
    power_of: tuple | None = field(default=None, init=False, compare=False, repr=False)

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
        full = (1 << len(self)) - 1
        return all(mask | 1 << i == full for i, mask in enumerate(self.adjacency))

    def is_independent(self, indices) -> bool:
        indices = list(indices)
        return all(not self.are_adjacent(a, b)
                   for k, a in enumerate(indices) for b in indices[k + 1:])

    def is_code(self, words, n: int) -> bool:
        """Whether ``words``, n labels each, are distinct and independent in the n-th power."""
        index = {v: i for i, v in enumerate(self.vertices)}
        codes = [[index[x] for x in w] for w in words if len(w) == n]
        return len(codes) == len(words) and all(
            any(a != b and not self.are_adjacent(a, b) for a, b in zip(u, w))
            for k, u in enumerate(codes) for w in codes[k + 1:])


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


def confusability_graph(cert: channel.SupportCertificate, inputs: tuple,
                        n_outputs: int) -> ConfusabilityGraph:
    """The may-reach graph on the channel inputs of a support certificate.

    The inputs that may reach an output (proven positive or unresolved) form
    a clique.  Resolving an unresolved entry either way can only remove
    edges, so the true confusability graph is a subgraph of this one, and
    every independent set of it is a genuine zero-error code.
    """
    reach = [0] * n_outputs  # the clique of inputs that may reach each output
    entries = cert.positive | cert.unresolved
    for x, y in entries:
        reach[y] |= 1 << x
    adjacency = [0] * len(inputs)
    for x, y in entries:
        adjacency[x] |= reach[y]
    return ConfusabilityGraph(tuple(inputs), tuple(mask & ~(1 << x)
                                                   for x, mask in enumerate(adjacency)))


class Support:
    """A channel's support certified at one level: ``sets``, the inputs proven
    to reach each output; ``settled``, no entry unresolved (the proven support
    is the true one); and the may-reach ``graph``, built on first read."""

    def __init__(self, ch: channel.Channel, level: int):
        # looked up on channel when called, so perfbench's span tracer sees it
        self.certificate = cert = channel.certify_support(ch, level)
        self.inputs, self.settled = ch.inputs, not cert.unresolved
        self.sets = tuple(tuple(x for x in range(len(ch.inputs)) if (x, y) in cert.positive)
                          for y in range(len(ch.outputs)))

    @cached_property
    def graph(self) -> ConfusabilityGraph:
        return confusability_graph(self.certificate, self.inputs, len(self.sets))


def witness_json(words: tuple, n: int) -> list:
    """Witness words as JSON: label lists, or bare labels when n = 1."""
    return [list(w) if n > 1 else w[0] for w in words]
