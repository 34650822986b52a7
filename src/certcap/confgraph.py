"""Strong powers, exact independence numbers, and the monotone lower-bound
ladder for zero-error rates, on the confusability graphs of graph.py.

Adjacency is one bitmask per vertex, which keeps the branch-and-bound
solver deterministic.  Masks are Python integers, and each mask operation
allocates a new one.  In graph.py vertex i is bit i; inside
``max_independent_set`` every mask holds vertex i as bit n - 1 - i.  The
search paints lowest index first, which is then the top bit, read by
``bit_length`` alone, where the low bit took ``avail & -avail``: two fewer
integers per painted vertex.  Each call reverses the adjacency masks once,
and each orbit lookup its masks once, by a byte table; only the witness
goes back to index order.

Two classical facts let the search close strong powers that colouring
alone leaves open, and two memos spare it work; none changes a witness.

* **Orbit pruning.**  A strong power Gⁿ made by ``strong_power`` is
  invariant under every coordinate permutation and under a base
  automorphism applied to one coordinate.  The base maps tried are
  x -> ±x + c on the base graph's index order, each verified mask by mask
  (a map that fails means no pruning at all).  At the root the search
  skips a child in the orbit of a root vertex it has already handled; at
  depth 1, below the chosen vertex v, it skips a child in the orbit of a
  handled sibling under the stabiliser of v.  Orbits are named in closed
  form, never by listing the group: by sorted digit classes, and under
  the stabiliser of v by the sorted classes of the digit pairs (v_i, w_i).

  Soundness.  Say a vertex is *handled* once it is removed from the
  candidates, and write alpha(G | S) for the largest independent set
  containing S.  By induction every handled root vertex r has
  alpha(G | r) <= best, and below v every handled sibling q has
  alpha(G | v, q) <= best: a set through an explored child either meets
  an earlier handled vertex (and is covered by the induction) or lies in
  that child's candidate set, which the child's subtree searched
  completely.  An automorphism sigma with sigma(u) = w (fixing v at
  depth 1) gives alpha(G | w) = alpha(G | u), so a skipped child satisfies
  the same bound.  Its subtree could therefore never have raised the
  incumbent, which only changes on a strict improvement: skipping deletes
  that subtree and nothing else.  The skipped child leaves the candidates
  exactly as an explored one does, so every later node sees the same
  candidates and the same incumbent as without pruning.  The node
  sequence is a subsequence of the unpruned one, a search that finishes
  returns the same alpha and witness, and a search cut by the node budget
  only gets further.

* **The rung bound** (Rosenfeld 1967; Hales 1973).  A fractional clique
  cover of G, weights w_K >= 0 on cliques K with sum_{K ∋ x} w_K >= 1 at
  every vertex x, of total weight W, gives alpha(G ⊠ H) <= W alpha(H): an
  independent set S of G ⊠ H meets each K x V(H) in at most alpha(H)
  vertices, whose H-coordinates are pairwise distinct and non-adjacent,
  so |S| <= sum_x |S ∩ {x} x V(H)| <= sum_K w_K |S ∩ K x V(H)|
  <= W alpha(H).  ``extend_ladder`` takes the cover from an exact LP over
  the base graph's maximal cliques, checks it exactly, and hands
  floor(W alpha(Gⁿ⁻¹)) to the search when rung n - 1 is exact.  The search
  asks for it once, at the root, unless the root's colouring closes the
  search, and stops as soon as the incumbent reaches it: no later node
  could have raised it, so the witness is again the unbounded search's.
  With W carried, a product seed that meets the bound is the rung, before Gⁿ
  exists: the search would stop on it at the root, and its words are in order.

* **Class memo.**  The greedy class painted from v, the top candidate,
  reads only v and the candidates below v that survive v.  Keyed by that
  set plus v (its top bit names v), every class but {v} is painted once a
  call, and every node sees the colour list of the unmemoised search.

* **Repeated subtrees.**  Below depth 1 no orbit is pruned, so until the
  incumbent improves, a node's subtree depends only on its candidate set
  and its gap best - size: colour lists depend on the set, every cut
  compares a colour with the gap, and the chosen vertices are read only on
  an improvement.  A subtree finished with no improvement stores its gap and
  node count under its set; a later node with that set and gap
  adds the count and returns (it explores instead if that would pass the
  node budget), so counts, cuts by the budget and witnesses all match.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, inf

from . import graph
from .channel import Channel, ResourceCapError
from .enclosure import Enclosure, log2_enclosure
from .graph import ConfusabilityGraph, Support, witness_json
from .linprog import GEQ, solve_lp

DEFAULT_VERTEX_CAP = 4096
DEFAULT_NODE_BUDGET = 200_000
RATE_WIDTH = Fraction(1, 1 << 16)


class LadderError(ValueError):
    """The ladder refused an unsound extension."""


# perfbench/worker.py calls this name; drop it with the benchmark's next change
confusability_graph = graph.confusability_graph


def certified_graph(ch: Channel) -> ConfusabilityGraph:
    """The graph the ladder searches: the may-reach graph of ``ch`` at its last
    declared level, where intervals are narrowest, so no level has fewer edges."""
    return Support(ch, ch.max_declared_level()).graph


def check_power_size(g: ConfusabilityGraph, n: int, cap: int = DEFAULT_VERTEX_CAP) -> None:
    """Raise unless the n-th strong power of g exists and fits in ``cap`` vertices.

    A power too large to build (m >= 2 and 2^n > cap) is named as m^n.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    if len(g) >= 2 and n >= cap.bit_length():
        raise ResourceCapError(f"{len(g)}^{n} vertices exceed the cap of {cap}")
    size = len(g) ** n
    if size > cap:
        raise ResourceCapError(f"{size} vertices exceed the cap of {cap}")


def strong_power(g: ConfusabilityGraph, n: int,
                 cap: int = DEFAULT_VERTEX_CAP) -> ConfusabilityGraph:
    """n-th strong power: tuples adjacent iff equal-or-adjacent coordinatewise.

    Vertices are the n-tuples of base vertices in ``itertools.product``
    order.  Closed neighbourhoods (adjacency plus the vertex itself) of a
    strong product are Kronecker products of the factors' closed
    neighbourhoods, so the masks are built one coordinate at a time: the
    row of ``(a, rest)`` is the OR of ``rows[rest] << p * width`` over the
    bits ``p`` of a's closed mask, where width is the size of the previous
    power, so the shifted rows never overlap and the OR is a sum.  Clearing
    each vertex's own bit then gives the adjacency.
    """
    check_power_size(g, n, cap)
    closed = [mask | 1 << a for a, mask in enumerate(g.adjacency)]
    shifts = [list(_bits(c)) for c in closed]
    rows = closed
    for _ in range(n - 1):
        width = len(rows)
        rows = [sum(row << p * width for p in bits) for bits in shifts for row in rows]
    adjacency = tuple(row ^ 1 << i for i, row in enumerate(rows))
    power = ConfusabilityGraph(tuple(product(g.vertices, repeat=n)), adjacency)
    object.__setattr__(power, "power_of", (g, n))
    return power


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed_masks(masks, width: int) -> list[int]:
    """Masks below 2**width, one per vertex, in reverse order and each with
    bit i moved to bit width - 1 - i (an involution)."""
    size = (width + 7) // 8
    return [int.from_bytes(mask.to_bytes(size, "little").translate(_BYTE_REVERSED), "big")
            >> 8 * size - width for mask in reversed(masks)]


def _is_automorphism(g: ConfusabilityGraph, image: list[int]) -> bool:
    """True iff ``image`` permutes the vertex indices and carries each
    vertex's adjacency mask onto the mask of its image."""
    return sorted(image) == list(range(len(g))) and all(
        sum(1 << image[y] for y in _bits(mask)) == g.adjacency[image[x]]
        for x, mask in enumerate(g.adjacency))


def _dihedral_generators(g: ConfusabilityGraph) -> tuple[int, int | None]:
    """The base maps x -> ±x + c (mod m) that are automorphisms of g.

    Returns ``(step, reflection)``: the rotations x -> x + k step, step the
    least divisor of m whose rotation is an automorphism (m when only the
    identity is), and, unless ``reflection`` is None, the reflections
    x -> reflection + k step - x.  A reflection composed with the rotation
    by step is the reflection with offset moved by step, so an offset below
    step exists whenever any reflection is an automorphism.
    """
    m = len(g)
    step = next((d for d in range(1, m) if m % d == 0
                 and _is_automorphism(g, [(x + d) % m for x in range(m)])), m)
    reflection = next((c for c in range(step)
                       if _is_automorphism(g, [(c - x) % m for x in range(m)])), None)
    return step, reflection


class _PowerSymmetry:
    """Automorphisms of the n-th strong power of a graph on m vertices.

    On each coordinate, the base maps of ``_dihedral_generators`` (a base
    automorphism on one coordinate is an automorphism of the strong
    power); across coordinates, every permutation.  Vertex indices are
    ``strong_power``'s: digit i of index x, base m, is coordinate i.
    """

    def __init__(self, m: int, n: int, step: int, reflection: int | None):
        # the rotation by step generates the rotations by gcd(step, m)
        self.m, self.n, self.step, self.reflection = m, n, gcd(step, m), reflection

    @classmethod
    def verified(cls, base: ConfusabilityGraph, n: int, step: int,
                 reflection: int | None) -> _PowerSymmetry | None:
        """The symmetry of ``base``'s n-th power, or None (prune nothing)
        unless the rotation by ``step`` and the reflection about
        ``reflection`` are automorphisms of ``base``, checked mask by mask."""
        m = len(base)
        if step < 1:
            return None
        maps = [[(x + step) % m for x in range(m)]]
        if reflection is not None:
            maps.append([(reflection - x) % m for x in range(m)])
        if not all(_is_automorphism(base, image) for image in maps):
            return None
        return cls(m, n, step, reflection)

    def orbit_masks(self, v: int | None = None) -> list[int]:
        """Bitmask of each vertex's orbit under the group, or under the
        stabiliser of vertex v.

        A base map moves both digits of a pair (a, b): the rotations name
        its orbit (a mod step, (b - a) mod m), and the reflection c joins it
        to that of (c - a, c - b).  Two vertices share an orbit exactly when
        the sorted classes of their digits, the pairs (w_i, w_i), agree, and
        under the stabiliser of v those of their pairs (v_i, w_i).
        """
        m, n, step, c = self.m, self.n, self.step, self.reflection

        def pair_class(a: int, b: int) -> tuple[int, int]:
            key = (a % step, (b - a) % m)
            return key if c is None else min(key, ((c - a) % step, (a - b) % m))
        columns = ([[pair_class(d, d) for d in range(m)]] * n if v is None else
                   [[pair_class(v // m ** (n - 1 - i) % m, b) for b in range(m)]
                    for i in range(n)])
        keys = [tuple(sorted(classes)) for classes in product(*columns)]
        orbits: dict[tuple, int] = {}
        for x, key in enumerate(keys):
            orbits[key] = orbits.get(key, 0) | 1 << x
        return [orbits[key] for key in keys]


def _power_symmetry(g: ConfusabilityGraph) -> _PowerSymmetry | None:
    """The verified symmetry of a graph built by ``strong_power``, else None."""
    if g.power_of is None:
        return None
    base, n = g.power_of
    return _PowerSymmetry.verified(base, n, *_dihedral_generators(base))


@dataclass(frozen=True)
class IndependenceResult:
    alpha: int
    witness: tuple  # vertex labels
    exact: bool     # False when the node budget cut the search short
    nodes: int = 0  # nodes the search visits without its memos (not expansions)


def max_independent_set(g: ConfusabilityGraph, *,
                        node_budget: int | None = None,
                        seed_witness: tuple = (),
                        upper_bound: Callable[[], int] | None = None
                        ) -> IndependenceResult:
    """Exact maximum independent set by branch and bound.

    Runs as a maximum-clique search on the complement.  Each node paints
    its candidates greedily, lowest index first, into colour classes of
    vertices independent in the complement, and visits them from the last
    painted back; a candidate whose colour number cannot lift the clique
    above the incumbent cuts the node.  ``seed_witness`` (vertex labels)
    primes the incumbent, and ``node_budget`` (0 or more) caps the search;
    when the budget runs out the best set found is returned flagged as a
    lower bound only.

    On a graph built by ``strong_power`` the root and depth-1 loops skip
    children in the orbit of an explored sibling, and dicts local to the
    call keep the class memo and the repeated subtrees per candidate set
    (module docstring).  ``nodes`` counts the nodes of the search without
    the memos, so a budget stops where it would without them.

    Every mask of the search holds vertex i as bit n - 1 - i: adjacency,
    candidates and memo keys, the incumbent and the orbit masks.  Lowest
    index first is then top bit first, and the witness alone is read back
    in index order (module docstring).

    ``upper_bound`` returns a proven bound on alpha.  It is called once, at
    the root before its child loop, and only when the root's top colour is
    above the incumbent (a search its colouring closes at once never pays
    for the bound); the search ends, exact, as soon as the incumbent
    reaches it, and the witness is the one the unbounded search would keep.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError("node budget must be >= 0")
    budget = inf if node_budget is None else node_budget
    n = len(g)
    if n == 0:
        return IndependenceResult(0, (), True)
    full = (1 << n) - 1
    bit = [1 << p for p in range(n)]
    # vertex i is bit n - 1 - i in every mask below (module docstring); painting
    # v removes v and its complement-neighbours, leaving its neighbours in g
    drop = _reversed_masks(g.adjacency, n)
    comp = [full & ~(drop[v] | bit[v]) for v in range(n)]

    label_index = {v: i for i, v in enumerate(g.vertices)}
    best_mask = 0
    for label in seed_witness:
        best_mask |= bit[n - 1 - label_index[label]]
    if not g.is_independent(i for i in range(n) if best_mask >> n - 1 - i & 1):
        raise ValueError("seed witness is not independent")
    best = [best_mask.bit_count(), best_mask]
    nodes = 0
    limit: int | None = None  # upper_bound(), asked at the root (docstring)
    stopped = False  # the budget ran out, or the incumbent met the limit
    exact = True
    group = cache(lambda: _power_symmetry(g))  # found at the first orbit asked for
    painted: dict[int, tuple] = {}  # candidates -> (gap, nodes) of a finished subtree
    classes: dict[int, int] = {}  # v and its survivors below it -> the class painted from v

    def paint(key: int) -> int:  # the greedy class of key's top bit over key, stored
        cls, avail = 0, key
        while avail:
            v = avail.bit_length() - 1
            cls |= bit[v]
            avail &= drop[v]
        return classes.setdefault(key, cls)

    def orbit_of(v: int | None = None):
        """Orbit lookup of the group, or of the stabiliser of the root vertex at bit v."""
        masks = cache(lambda: None if group() is None else _reversed_masks(
            group().orbit_masks(None if v is None else n - 1 - v), n))
        return lambda w: bit[w] if masks() is None else masks()[w]

    def expand(candidates: int, size: int, mask: int, orbit) -> None:
        nonlocal nodes, limit, stopped, exact
        if nodes >= budget:
            stopped, exact = True, False
            return
        gap = best[0] - size
        seen_gap, count = painted.get(candidates, (None, 0))
        if seen_gap == gap and orbit is None and nodes + count <= budget:
            nodes += count  # what this set's subtree visited at this gap before
            return
        start, entry = nodes, candidates
        nodes += 1
        # greedy colouring for the pruning bound; the classes up to the gap
        # would cut the node at once, so they are removed, not recorded
        colour, rest = 0, candidates
        while rest and colour < gap:
            colour += 1
            v = rest.bit_length() - 1
            key = rest & drop[v] | bit[v]
            rest ^= key if key == bit[v] else classes.get(key) or paint(key)
        colour_of: list[tuple[int, int]] = []  # (vertex, colour) in paint order
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = avail.bit_length() - 1
                colour_of.append((v, colour))
                avail &= drop[v]
                rest ^= bit[v]
        if size == 0 and colour > best[0] and upper_bound is not None:
            limit = upper_bound()  # the root's colouring leaves the search open
            if best[0] >= limit:
                return
        explored = 0      # orbits of the handled children (root and depth 1)
        unfolded = None   # the last explored child, its orbit not yet added
        for v, colour in reversed(colour_of):
            if size + colour <= best[0]:
                break
            if unfolded is not None:
                explored |= orbit(unfolded)
                unfolded = None
            if not explored >> v & 1:
                new_mask = mask | bit[v]
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
            candidates ^= bit[v]
        if orbit is None and best[0] - size == gap:
            painted[entry] = gap, nodes - start

    expand(full, 0, 0, orbit_of())

    witness_idx = [i for i in range(n) if best[1] >> n - 1 - i & 1]
    witness = tuple(g.vertices[i] for i in witness_idx)
    if not g.is_independent(witness_idx):
        raise RuntimeError("solver produced a dependent witness")
    return IndependenceResult(best[0], witness, exact, nodes)


def _maximal_cliques(g: ConfusabilityGraph) -> list[int]:
    """Every maximal clique of g as a bitmask (Bron-Kerbosch with pivot)."""
    cliques: list[int] = []

    def extend(clique: int, candidates: int, excluded: int) -> None:
        if not candidates | excluded:
            cliques.append(clique)
            return
        pivot = max(_bits(candidates | excluded),
                    key=lambda u: (candidates & g.adjacency[u]).bit_count())
        for v in _bits(candidates & ~g.adjacency[pivot]):
            extend(clique | 1 << v, candidates & g.adjacency[v], excluded & g.adjacency[v])
            candidates ^= 1 << v
            excluded |= 1 << v

    if len(g):
        extend(0, (1 << len(g)) - 1, 0)
    return cliques


def fractional_clique_cover(g: ConfusabilityGraph) -> tuple[tuple[int, Fraction], ...]:
    """A minimum fractional clique cover of g: (clique mask, weight) pairs
    from an exact LP over the maximal cliques; its weight is alpha*(g)."""
    cliques = _maximal_cliques(g)
    rows = [(tuple(clique >> x & 1 for clique in cliques), GEQ, 1) for x in range(len(g))]
    rows += [(tuple(int(i == k) for i in range(len(cliques))), GEQ, 0)
             for k in range(len(cliques))]
    weights = solve_lp((1,) * len(cliques), rows).assignment
    return tuple((clique, w) for clique, w in zip(cliques, weights) if w)


def clique_cover_weight(g: ConfusabilityGraph, cover) -> Fraction:
    """Total weight of a fractional clique cover of g, checked exactly.

    Raises LadderError unless every set is a clique of g, every weight is
    nonnegative and every vertex is covered with weight at least 1.
    """
    coverage = [Fraction(0)] * len(g)
    for clique, weight in cover:
        if not 0 <= clique < 1 << len(g) or any(
                clique & ~(g.adjacency[x] | 1 << x) for x in _bits(clique)):
            raise LadderError("clique cover holds a set that is not a clique")
        if weight < 0:
            raise LadderError("clique cover has a negative weight")
        for x in _bits(clique):
            coverage[x] += weight
    if any(c < 1 for c in coverage):
        raise LadderError("clique cover leaves a vertex covered below 1")
    return sum((Fraction(weight) for _, weight in cover), Fraction(0))


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
    cover_weight: Fraction | None = field(default=None, compare=False)  # alpha*, checked

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

    Rungs come in order: n must be one past the last rung, or LadderError is
    raised.  On a may-reach graph (``certified_graph``) every witness is a
    genuine zero-error code of the channel.  The incumbent is seeded with
    products of earlier witnesses, so recorded alphas always satisfy the
    supermultiplicative inequality even when the node budget truncates the
    search.  When rung n - 1 is exact, floor(alpha*(g) alpha(gⁿ⁻¹)) bounds
    the search (Rosenfeld-Hales, module docstring), which ends exact once the
    incumbent reaches it, before gⁿ is built if the seed does and ``ladder``
    carries alpha*(g), or if the seed has all |g|ⁿ words.  ``ladder`` holds
    rungs of ``g`` only; it carries alpha*(g) on.
    """
    if n != len(ladder.rungs) + 1:
        raise LadderError(f"rung {n} is out of order after {len(ladder.rungs)} rungs")
    check_power_size(g, n, vertex_cap)
    seed = _best_product_witness(ladder, n)
    weight = ladder.cover_weight
    bound = None
    if ladder.rungs and ladder.rungs[-1].exact:
        def bound() -> int:
            nonlocal weight
            weight = weight or clique_cover_weight(g, fractional_clique_cover(g))
            return ladder.rungs[-1].alpha * weight // 1
    settled = len(seed) == len(g) ** n or bound and weight and len(seed) >= bound()
    if node_budget != 0 and settled and g.is_code(seed, n):
        result = IndependenceResult(len(seed), seed, True)
    else:
        result = max_independent_set(strong_power(g, n, cap=vertex_cap), node_budget=node_budget,
                                     seed_witness=seed, upper_bound=bound)
    if not result.alpha:  # rung 1 with no search, or an empty graph; log2(0) is no rate
        raise LadderError(f"rung {n} would record alpha = 0 (node budget {node_budget})")
    rate = log2_enclosure(Fraction(result.alpha), RATE_WIDTH * n).scaled(Fraction(1, n))
    rung = LadderRung(n, result.alpha, result.witness, rate, result.exact)
    best = ladder.running_best
    return CapacityLadder(ladder.rungs + (rung,),
                          rate if best is None or rate.lo > best.lo else best, weight)


def _best_product_witness(ladder: CapacityLadder, n: int) -> tuple:
    """Each word of rung k, then each of rung n - k, for k the first maximizer
    of alpha_k alpha_(n-k) from n - 1 down (() for n = 1).  Every rung's search
    starts from such a product, so by induction alpha_r bounds the product over
    any split of r, and no split into more parts beats the best two-part one.
    The product is symmetric in k and n - k, so that maximizer is >= n / 2."""
    rungs = ladder.rungs
    if n < 2:
        return ()
    k = max(range(n - 1, (n - 1) // 2, -1),
            key=lambda k: rungs[k - 1].alpha * rungs[n - k - 1].alpha)
    return tuple(u + w for u in rungs[k - 1].witness for w in rungs[n - k - 1].witness)
