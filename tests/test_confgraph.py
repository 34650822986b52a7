import hashlib
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certcap import confgraph
from certcap.channel import (ResourceCapError, SupportCertificate, certify_support,
                             exact_channel, noiseless, typewriter)
from certcap.confgraph import (CapacityLadder, LadderError, LadderRung, _PowerSymmetry,
                               certified_graph, clique_cover_weight, extend_ladder,
                               fractional_clique_cover, max_independent_set, strong_power)
from certcap.enclosure import log2_enclosure
from certcap.graph import ConfusabilityGraph, confusability_graph
from conftest import (intersects, product_channel, reference_independent_set,
                      reference_product_witness)

F = Fraction


def graph_of(ch, level=0):
    cert = certify_support(ch, level)
    return confusability_graph(cert, ch.inputs, len(ch.outputs))


def brute_force_alpha(g) -> int:
    """Exhaustive oracle, independent of the branch-and-bound path."""
    n = len(g)
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for combo in combinations(range(n), size):
            if g.is_independent(combo):
                best = size
                break
        if best == size:
            break
    return best


def include_exclude_alpha(g) -> int:
    """Exact oracle, independent of the branch-and-bound path: the lowest
    candidate vertex is either left out or taken with its neighbours dropped."""
    def best(candidates: tuple) -> int:
        if not candidates:
            return 0
        v, rest = candidates[0], candidates[1:]
        taken = 1 + best(tuple(u for u in rest if not g.are_adjacent(v, u)))
        return max(taken, best(rest))
    return best(tuple(range(len(g))))


# the classification engine's search limits (classify.ZeroErrorLadderTask)
ENGINE_LIMITS = {"node_budget": 20_000, "vertex_cap": 1024}
PENTAGON = certified_graph(typewriter(5))

# a channel whose graph no map x -> +-x + c preserves
ASYMMETRIC6 = exact_channel(tuple(range(6)), tuple(range(6)), [
    ["1/2", "1/2", "0", "0", "0", "0"],
    ["0", "1/3", "2/3", "0", "0", "0"],
    ["0", "0", "1/4", "3/4", "0", "0"],
    ["0", "1/5", "0", "0", "4/5", "0"],
    ["0", "0", "0", "0", "1", "0"],
    ["0", "0", "0", "1/2", "0", "1/2"],
])


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


def build_ladder(ch, top, **limits):
    g = certified_graph(ch)
    ladder = CapacityLadder()
    for n in range(1, top + 1):
        ladder = extend_ladder(ladder, g, n, **limits)
    return ladder


def networkx_alpha(g) -> int:
    """Independence number from networkx: a maximum clique of the complement."""
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(len(g)))
    h.add_edges_from((i, j) for i in range(len(g)) for j in range(i + 1, len(g))
                     if not g.are_adjacent(i, j))
    clique, _ = nx.max_weight_clique(h, weight=None)
    return len(clique)


def unpruned(g):
    """The same graph without its strong-power origin, so nothing is pruned."""
    return ConfusabilityGraph(g.vertices, g.adjacency)


def graph_from_edges(size, edges):
    adjacency = [0] * size
    for i, j in edges:
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    return ConfusabilityGraph(tuple(range(size)), tuple(adjacency))


def cycle(size):
    return graph_from_edges(size, [(i, (i + 1) % size) for i in range(size)])


def brute_force_strong_power(g, n):
    """Strong power straight from the definition, one vertex pair at a time."""
    tuples = list(product(range(len(g)), repeat=n))
    adjacency = [0] * len(tuples)
    for a, x in enumerate(tuples):
        for b, y in enumerate(tuples):
            if a != b and all(i == j or g.are_adjacent(i, j) for i, j in zip(x, y)):
                adjacency[a] |= 1 << b
    return tuples, tuple(adjacency)


def pairwise_confusability_graph(positive, inputs, n_outputs):
    """Reference: the pairwise definition, one input pair and output at a time.

    Two inputs are joined when some output is reached by both under the
    given (input, output) entries; returns the adjacency masks.
    """
    n = len(inputs)
    adjacency = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if any((i, y) in positive and (j, y) in positive for y in range(n_outputs)):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return tuple(adjacency)


@st.composite
def support_certificate(draw):
    """A random split of X x Y into proven positive, proven zero, unresolved."""
    nx = draw(st.integers(min_value=1, max_value=7))
    ny = draw(st.integers(min_value=1, max_value=6))
    states = draw(st.lists(st.sampled_from(("positive", "zero", "unresolved")),
                           min_size=nx * ny, max_size=nx * ny))
    cells = {"positive": set(), "zero": set(), "unresolved": set()}
    for k, state in enumerate(states):
        cells[state].add(divmod(k, ny))
    cert = SupportCertificate(frozenset(cells["positive"]), frozenset(cells["zero"]),
                              frozenset(cells["unresolved"]))
    return cert, nx, ny


@st.composite
def small_graph(draw):
    size = draw(st.integers(min_value=1, max_value=7))
    pairs = list(combinations(range(size), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_from_edges(size, edges)


class TestGraphConstruction:
    def test_bsc_is_single_edge(self, bsc14):
        g = graph_of(bsc14)
        assert len(g) == 2 and g.are_adjacent(0, 1)

    def test_pentagon_is_five_cycle(self, pentagon):
        g = graph_of(pentagon)
        expected = {frozenset((i, (i + 1) % 5)) for i in range(5)}
        actual = {frozenset((i, j)) for i in range(5) for j in range(i + 1, 5)
                  if g.are_adjacent(i, j)}
        assert actual == expected

    def test_noiseless_is_empty(self, nl2):
        g = graph_of(nl2)
        assert not any(g.are_adjacent(i, j) for i in range(2) for j in range(2) if i != j)

    def test_unresolved_entries_may_reach(self, hover_channel, nl2):
        assert not graph_of(nl2).are_adjacent(0, 1)
        g = graph_of(hover_channel, level=5)
        assert g.are_adjacent(0, 1)  # edge forced by the hovering entry

    def test_resolved_stream_is_exact(self, pentagon_stream, pentagon):
        assert graph_of(pentagon_stream, level=3) == graph_of(pentagon)
        # before the pin the hovering zeros may join every pair
        assert graph_of(pentagon_stream, level=2).is_complete()

    @given(support_certificate())
    @settings(max_examples=300, deadline=None)
    def test_cliques_match_pairwise_definition(self, drawn):
        cert, nx, ny = drawn
        g = confusability_graph(cert, tuple(range(nx)), ny)
        assert g.adjacency == pairwise_confusability_graph(
            cert.positive | cert.unresolved, tuple(range(nx)), ny)

    @given(support_certificate(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_every_resolution_is_a_subgraph(self, drawn, rng):
        # however the unresolved entries turn out, the true graph keeps no
        # edge the may-reach graph lacks, so its independent sets are codes
        cert, nx, ny = drawn
        may_reach = confusability_graph(cert, tuple(range(nx)), ny)
        positive = cert.positive | {e for e in sorted(cert.unresolved) if rng.random() < 0.5}
        resolved = pairwise_confusability_graph(positive, tuple(range(nx)), ny)
        assert all(mask & ~big == 0 for mask, big in zip(resolved, may_reach.adjacency))

    def test_certified_graph_reads_the_support_at_its_level(self, hover_channel,
                                                            pentagon_stream, pentagon):
        for ch in (hover_channel, pentagon_stream, pentagon):
            assert certified_graph(ch) == graph_of(ch, ch.max_declared_level())


class TestStrongPowers:
    def test_empty_graph_stays_empty(self, nl2):
        g = strong_power(graph_of(nl2), 3)
        assert len(g) == 8
        assert all(mask == 0 for mask in g.adjacency)

    def test_complete_stays_complete(self, bsc14):
        g = strong_power(graph_of(bsc14), 2)
        assert len(g) == 4 and g.is_complete()

    def test_pentagon_square_alpha_five(self, pentagon):
        g2 = strong_power(graph_of(pentagon), 2)
        assert include_exclude_alpha(g2) == 5
        result = max_independent_set(g2)
        assert result.alpha == 5 and result.exact
        assert g2.is_independent([g2.vertices.index(v) for v in result.witness])

    def test_matches_product_channel_route(self, pentagon):
        base = graph_of(pentagon)
        for n in (2, 3):
            power = strong_power(base, n)
            via_product = graph_of(product_channel(pentagon, n))
            assert via_product.vertices == power.vertices
            assert via_product.adjacency == power.adjacency

    def test_matches_product_channel_route_randomized(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from test_channel import small_exact_channel

        @given(ch=small_exact_channel(), n=st.integers(min_value=1, max_value=2))
        @settings(max_examples=40, deadline=None)
        def check(ch, n):
            power = strong_power(graph_of(ch), n)
            via_product = graph_of(product_channel(ch, n))
            assert via_product.adjacency == power.adjacency

        check()

    @given(g=small_graph(), n=st.integers(min_value=1, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_definition(self, g, n):
        power = strong_power(g, n)
        tuples, adjacency = brute_force_strong_power(g, n)
        assert power.vertices == tuple(tuples)
        assert power.adjacency == adjacency

    @pytest.mark.parametrize("size,n", [(5, 3), (7, 3), (2, 7)])
    def test_matches_pairwise_definition_past_one_word(self, size, n):
        g = cycle(size)  # cycle(2) is K2
        power = strong_power(g, n)
        assert len(power) > 64
        assert power.adjacency == brute_force_strong_power(g, n)[1]


class TestSymmetryCheck:
    @pytest.mark.parametrize("size", [65, 100, 128, 129, 200])
    def test_one_flipped_bit_is_rejected(self, size):
        rng = random.Random(size)
        pairs = list(combinations(range(size), 2))
        g = graph_from_edges(size, rng.sample(pairs, 3 * size))
        ConfusabilityGraph(g.vertices, g.adjacency)  # the symmetric graph passes
        for _ in range(8):
            i = rng.randrange(64)
            j = rng.randrange(64, size)  # another 64-bit block than i
            for row, col in ((i, j), (j, i)):  # above, then below the diagonal
                adjacency = list(g.adjacency)
                adjacency[row] ^= 1 << col
                with pytest.raises(ValueError, match="symmetric"):
                    ConfusabilityGraph(g.vertices, tuple(adjacency))

    @pytest.mark.parametrize("size", [5, 64, 130])
    def test_flipped_bit_inside_a_diagonal_block_is_rejected(self, size):
        g = cycle(size)
        for row, col in ((0, 2), (2, 0), (size - 1, size - 3)):
            adjacency = list(g.adjacency)
            adjacency[row] ^= 1 << col
            with pytest.raises(ValueError, match="symmetric"):
                ConfusabilityGraph(g.vertices, tuple(adjacency))

    def test_malformed_masks_rejected(self):
        with pytest.raises(ValueError, match="per vertex"):
            ConfusabilityGraph((0, 1), (0,))
        with pytest.raises(ValueError, match="range"):
            ConfusabilityGraph((0, 1), (1 << 2, 0))
        with pytest.raises(ValueError, match="self-loop"):
            ConfusabilityGraph((0, 1), (1, 0))


class TestIndependence:
    def test_five_cycle(self, pentagon):
        g = graph_of(pentagon)
        assert brute_force_alpha(g) == 2
        result = max_independent_set(g)
        assert result.alpha == 2 and result.exact

    def test_complete_graph(self, bsc14):
        g = strong_power(graph_of(bsc14), 2)
        assert max_independent_set(g).alpha == 1

    def test_budget_cut_returns_lower_bound(self, pentagon):
        g3 = strong_power(graph_of(pentagon), 3)
        result = max_independent_set(g3, node_budget=5)
        assert not result.exact
        assert g3.is_independent([g3.vertices.index(v) for v in result.witness])
        assert result.alpha == len(result.witness)

    def test_seed_witness_is_respected(self, pentagon):
        g2 = strong_power(graph_of(pentagon), 2)
        seed = ((0, 0), (1, 2))
        result = max_independent_set(g2, seed_witness=seed, node_budget=0)
        assert result.alpha >= 2 and not result.exact

    def test_negative_budget_is_refused_and_zero_returns_the_seed(self, pentagon):
        g2 = strong_power(graph_of(pentagon), 2)
        with pytest.raises(ValueError, match="node budget must be >= 0"):
            max_independent_set(g2, node_budget=-1)
        seed = ((0, 0), (1, 2))
        result = max_independent_set(g2, seed_witness=seed, node_budget=0)
        assert (result.alpha, result.witness, result.exact, result.nodes) == (2, seed, False, 0)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 64, 65, 125, 343, 625])
def test_reversed_masks_are_the_string_reversal_and_an_involution(width):
    # the independence search's layout: vertex i at bit width - 1 - i
    rng = random.Random(width)
    masks = [0, 1, 1 << width - 1, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(20)]
    flipped = confgraph._reversed_masks(masks, width)
    assert flipped == [int(format(m, f"0{width}b")[::-1], 2) for m in reversed(masks)]
    assert confgraph._reversed_masks(flipped, width) == masks


class TestZeroCapacity:
    def test_complete_means_zero(self, bsc14):
        assert graph_of(bsc14).is_complete() is True

    def test_cycle_is_not_zero(self, pentagon):
        assert graph_of(pentagon).is_complete() is False

    def test_empty_two_vertices_not_zero(self, nl2):
        assert graph_of(nl2).is_complete() is False


@st.composite
def base_graph(draw):
    """Cycles and circulants, whose rotations are automorphisms, and paths
    and random graphs, where the rotation mostly is not.

    Random graphs stay at six vertices: the squares of some sparse graphs
    on eight take the colouring search millions of nodes, pruned or not.
    """
    kind = draw(st.sampled_from(("cycle", "circulant", "path", "random")))
    size = draw(st.integers(min_value=2, max_value=6 if kind == "random" else 8))
    if kind == "cycle":
        edges = [(i, (i + 1) % size) for i in range(size)]
    elif kind == "circulant":
        jumps = draw(st.sets(st.integers(min_value=1, max_value=size // 2), min_size=1))
        edges = [(i, (i + j) % size) for i in range(size) for j in jumps]
    elif kind == "path":
        edges = [(i, i + 1) for i in range(size - 1)]
    else:
        pairs = list(combinations(range(size), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return graph_from_edges(size, [(i, j) for i, j in edges if i != j])


@st.composite
def small_ladder(draw):
    """A base graph, its top block length with |V|^n <= 256, a node budget,
    and whether the ladder carries alpha*(g) from its start: a ladder
    carries it only once a search asked for the bound, which colouring
    alone mostly spares these small graphs."""
    g = draw(base_graph())
    top = max(n for n in range(1, 9) if len(g) ** n <= 256)
    return g, top, draw(st.sampled_from((None, 0, 1, 30, 2000))), draw(st.booleans())


class TestLadder:
    def test_pentagon_two_rungs(self, pentagon):
        g = graph_of(pentagon)
        ladder = extend_ladder(CapacityLadder(), g, 1)
        assert ladder.rungs[0].alpha == 2
        assert ladder.running_best.lo <= 1 <= ladder.running_best.hi
        ladder = extend_ladder(ladder, g, 2)
        assert ladder.rungs[1].alpha == 5
        # running best switched to the better rung: (1/2) log2 5
        half_log5 = log2_enclosure(F(5), F(1, 2 ** 20)).scaled(F(1, 2))
        assert intersects(ladder.running_best, half_log5)

    def test_running_best_lo_never_decreases(self, pentagon):
        g = graph_of(pentagon)
        ladder = CapacityLadder()
        last = None
        for n in (1, 2, 3):
            ladder = extend_ladder(ladder, g, n, node_budget=2000)
            if last is not None:
                assert ladder.running_best.lo >= last
            last = ladder.running_best.lo

    @given(case=small_ladder())
    @example(case=(PENTAGON, 3, 2000, False))
    @settings(max_examples=100, deadline=None)
    def test_supermultiplicativity_of_recorded_rungs(self, case):
        # the product seed is the enumeration of every split before each rung,
        # and each rung holds the product over every split of its length
        g, top, budget, carried = case
        weight = clique_cover_weight(g, fractional_clique_cover(g)) if carried else None
        ladder = CapacityLadder(cover_weight=weight)
        for n in range(1, top + 1):
            assert confgraph._best_product_witness(ladder, n) == \
                reference_product_witness(ladder, n)
            # rung 1 unbudgeted: an empty first witness has no rate (log2 0)
            ladder = extend_ladder(ladder, g, n, node_budget=None if n == 1 else budget)
        alphas = [1] + [r.alpha for r in ladder.rungs]
        for k in range(1, top):
            for m in range(1, top - k + 1):
                assert alphas[k + m] >= alphas[k] * alphas[m]

    def test_supermultiplicative_through_rung_four(self, pentagon):
        g = graph_of(pentagon)
        ladder = CapacityLadder()
        for n in (1, 2, 3, 4):
            ladder = extend_ladder(ladder, g, n, **ENGINE_LIMITS)
        alphas = {r.n: r.alpha for r in ladder.rungs}
        assert alphas[4] >= 25  # alpha(C5^2)^2, seeded by the 2+2 split
        for m in alphas:
            for n in alphas:
                if m + n in alphas:
                    assert alphas[m + n] >= alphas[m] * alphas[n]
        # proved at the engine's limits: C5^3 by orbit pruning, C5^4 by the
        # rung bound floor(5/2 * 10) = 25, which the product seed meets
        assert [(r.n, r.alpha, r.exact) for r in ladder.rungs] == [
            (1, 2, True), (2, 5, True), (3, 10, True), (4, 25, True)]

    def test_typewriter7_at_engine_limits(self):
        ladder = build_ladder(typewriter(7), 3, **ENGINE_LIMITS)
        second, third = ladder.recorded(2), ladder.recorded(3)
        assert (second.alpha, second.exact) == (10, True)
        # alpha(C7^3) = 33 (Vesel and Zerovnik 2002); the search may stay open
        assert third.alpha <= 33
        assert not third.exact or third.alpha == 33

    def test_witnesses_reverify_independent(self, pentagon):
        g = graph_of(pentagon)
        ladder = CapacityLadder()
        for n in (1, 2):
            ladder = extend_ladder(ladder, g, n)
        for rung in ladder.rungs:
            power = strong_power(g, rung.n)
            idx = [power.vertices.index(v) for v in rung.witness]
            assert power.is_independent(idx)
            assert len(idx) == rung.alpha

    def test_tuple_labelled_channel_seeds_from_word_witnesses(self):
        # the product channel's input labels are themselves tuples
        ch = product_channel(noiseless(2), 2)
        g = certified_graph(ch)
        ladder = CapacityLadder()
        for n in (1, 2):
            ladder = extend_ladder(ladder, g, n)
        assert [(r.n, r.alpha, r.exact) for r in ladder.rungs] == [(1, 4, True), (2, 16, True)]
        for rung in ladder.rungs:
            assert all(len(word) == rung.n and all(x in ch.inputs for x in word)
                       for word in rung.witness)
        # JSON prints a one-letter word as its bare label, here a list
        assert json.dumps(ladder.rungs[0].to_json()["witness"]) == \
            "[[0, 0], [0, 1], [1, 0], [1, 1]]"

    def test_rate_cap_by_alphabet(self, pentagon, nl2, bsc14):
        for ch in (pentagon, nl2, bsc14):
            g = graph_of(ch)
            ladder = CapacityLadder()
            for n in (1, 2):
                ladder = extend_ladder(ladder, g, n)
            cap = log2_enclosure(F(min(len(ch.inputs), len(ch.outputs))), F(1, 2 ** 20))
            assert ladder.running_best.lo <= cap.hi

    def test_may_reach_graph_accepted(self, hover_channel):
        # the hovering entry may join inputs 0 and 1: one code word per rung
        ladder = CapacityLadder()
        for n in (1, 2):
            ladder = extend_ladder(ladder, certified_graph(hover_channel), n)
        assert [(r.alpha, r.exact) for r in ladder.rungs] == [(1, True), (1, True)]

    def test_duplicate_rung_refused(self, pentagon):
        g = graph_of(pentagon)
        ladder = extend_ladder(CapacityLadder(), g, 1)
        with pytest.raises(LadderError):
            extend_ladder(ladder, g, 1)

    def test_rungs_come_in_order(self, pentagon):
        g = graph_of(pentagon)
        ladder = extend_ladder(CapacityLadder(), g, 1)
        for n in (1, 3):  # a repeated rung and a skipped one
            with pytest.raises(LadderError, match=f"rung {n} is out of order after 1 rungs"):
                extend_ladder(ladder, g, n)
        assert [r.n for r in extend_ladder(ladder, g, 2).rungs] == [1, 2]

    def test_a_zero_budget_first_rung_is_refused_before_any_log2(self, pentagon, monkeypatch):
        # rung 1 has no product seed, so a zero budget leaves alpha = 0, which has no log2
        def no_log2(*_):
            raise AssertionError("log2 taken of an empty code")

        monkeypatch.setattr(confgraph, "log2_enclosure", no_log2)
        with pytest.raises(LadderError, match=r"rung 1 would record alpha = 0 \(node budget 0\)"):
            extend_ladder(CapacityLadder(), certified_graph(pentagon), 1, node_budget=0)

    def test_empty_graph_rung_is_log_alphabet(self):
        ch = exact_channel((0, 1, 2), (0, 1, 2),
                           [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        g = graph_of(ch)
        ladder = extend_ladder(CapacityLadder(), g, 1)
        assert ladder.rungs[0].alpha == 3
        enc = log2_enclosure(F(3), F(1, 2 ** 20))
        assert intersects(ladder.running_best, enc)


def ladder_of(alphas: list) -> CapacityLadder:
    """Rungs 1, 2, ... with alphas[k - 1] words at rung k; word j of rung k
    is k copies of (k, j), so a concatenation shows its parts in order.
    Rates are left out."""
    return CapacityLadder(tuple(
        LadderRung(k, a, tuple(((k, j),) * k for j in range(a)), None, True)
        for k, a in enumerate(alphas, start=1)))


@st.composite
def recorded_rungs(draw):
    """Rungs 1 to n - 1, as extend_ladder records them, and a block length n
    up to 12 to fill.  Each alpha is the best product over the splits of its
    length or up to two more, so that many splits tie, and stays at most 64,
    so that no split of n holds more than 4096 words."""
    n = draw(st.integers(min_value=1, max_value=12))
    alphas: list = []
    for k in range(1, n):
        floor = max((alphas[i - 1] * alphas[k - i - 1] for i in range(1, k)), default=1)
        alpha = floor + draw(st.integers(min_value=0, max_value=2))
        if alpha > 64:
            n = k
            break
        alphas.append(alpha)
    return ladder_of(alphas), n


class TestProductSeed:
    """The seed of rung n is rung k's words, each followed by rung n - k's."""

    @given(case=recorded_rungs())
    @settings(max_examples=300, deadline=None)
    def test_memoised_split_matches_the_enumeration(self, case):
        # the two-part split the seed reads is the best split into any parts
        ladder, n = case
        assert confgraph._best_product_witness(ladder, n) == reference_product_witness(ladder, n)

    @given(case=small_ladder())
    @settings(max_examples=50, deadline=None)
    def test_product_seed_is_in_power_index_order(self, case):
        # vertices are labelled by their indices, rung k's words are in index
        # order, and one split fixes the rung behind every coordinate
        g, top, budget, _ = case
        ladder = extend_ladder(CapacityLadder(), g, 1)
        for n in range(2, top + 1):
            seed = confgraph._best_product_witness(ladder, n)
            assert all(u < w for u, w in zip(seed, seed[1:]))
            ladder = extend_ladder(ladder, g, n, node_budget=budget)

    def test_a_tie_keeps_the_largest_first_split(self, pentagon):
        # at n = 3 the splits 2 + 1 and 1 + 2 tie at 5 * 2: rung 2's words go first
        ladder = build_ladder(pentagon, 2)
        first, second = ladder.rungs
        seed = confgraph._best_product_witness(ladder, 3)
        assert seed == tuple(u + w for u in second.witness for w in first.witness)
        assert seed != tuple(u + w for u in first.witness for w in second.witness)

    def test_a_one_input_climb_records_one_word_per_rung(self):
        # one input: every power has one vertex, and every seed is its one word
        ladder = build_ladder(noiseless(1), 40)
        assert [(r.alpha, r.witness, r.exact) for r in ladder.rungs] == \
            [(1, ((0,) * n,), True) for n in range(1, 41)]


class TestPinnedBytes:
    """Digests recorded before orbit pruning and the rung bound existed."""

    def test_pentagon_to_rung_two(self, pentagon):
        assert digest(build_ladder(pentagon, 2).to_json()) == \
            "5c1c6467123d68daa5f6028a1b2a7c13c43278c6aa2373442c24e2ee1bafe299"

    def test_typewriter7_to_rung_three_at_engine_limits(self):
        assert digest(build_ladder(typewriter(7), 3, **ENGINE_LIMITS).to_json()) == \
            "66cbda69ab11fbd75a3d10fbcbff96e3aa74115c9f51a0c2e5d4c3b5f907af39"

    def test_asymmetric_channel_to_rung_three_at_engine_limits(self):
        assert confgraph._dihedral_generators(certified_graph(ASYMMETRIC6)) == (6, None)
        assert digest(build_ladder(ASYMMETRIC6, 3, **ENGINE_LIMITS).to_json()) == \
            "275300e3599f7c730c5502080ecef15237e40afba861c949167c253190eae370"

    def test_simulate_auto_code_witness(self, pentagon):
        # certcap simulate --code auto --block-length 2 sends these words
        assert max_independent_set(strong_power(graph_of(pentagon), 2)).witness == \
            ((0, 1), (1, 3), (2, 0), (3, 2), (4, 4))

    def test_pentagon_rungs_three_and_four_keep_alpha_and_witness(self, pentagon):
        # only their exact flags changed, from False to True
        ladder = build_ladder(pentagon, 4, **ENGINE_LIMITS)
        pins = {3: (10, "a5275a7039f577cdf30a27f25e6e354dea9b0ad919f60daa2dccecf4905e617c"),
                4: (25, "5afffffb22226cecbe41fc6c089f376dfcc2cefd71a2d835d3337ae65fec9428")}
        for n, (alpha, witness_digest) in pins.items():
            rung = ladder.recorded(n)
            assert rung.alpha == alpha
            assert digest(rung.to_json()["witness"]) == witness_digest


@st.composite
def small_power(draw):
    """A base graph and a strong power of it with at most 64 vertices."""
    g = draw(base_graph())
    top = max(n for n in range(1, 7) if len(g) ** n <= 64)
    return g, strong_power(g, draw(st.integers(min_value=1, max_value=top)))


def matched_automorphism(symmetry, u: int, w: int, fixed: int | None) -> list[int]:
    """The index map of a coordinate permutation and one base map per
    coordinate sending u to w (and ``fixed`` to itself), matched greedily:
    coordinate i of u goes to the first free coordinate j of w that some
    base map x -> +-x + k step reaches, from (u_i, fixed_i) to
    (w_j, fixed_j).  Reaching is an equivalence, so a greedy match exists
    whenever any does."""
    m, n, step, c = symmetry.m, symmetry.n, symmetry.step, symmetry.reflection
    maps = [[(x + k) % m for x in range(m)] for k in range(0, m, step)]
    if c is not None:
        maps += [[(c + k - x) % m for x in range(m)] for k in range(0, m, step)]
    digits = lambda x: [x // m ** (n - 1 - i) % m for i in range(n)]  # noqa: E731
    du, dw = digits(u), digits(w)
    dv = None if fixed is None else digits(fixed)
    free, moves = list(range(n)), []
    for i in range(n):
        j, f = next((j, f) for j in free for f in maps
                    if f[du[i]] == dw[j] and (dv is None or f[dv[i]] == dv[j]))
        free.remove(j)
        moves.append((j, f))
    return [sum(f[d] * m ** (n - 1 - j) for (j, f), d in zip(moves, digits(x)))
            for x in range(m ** n)]


def is_fractional_clique_cover(g, cover) -> bool:
    """Reference check, one vertex pair and one vertex at a time."""
    sets = [[x for x in range(len(g)) if clique >> x & 1] for clique, _ in cover]
    return (all(0 <= clique < 1 << len(g) for clique, _ in cover)
            and all(g.are_adjacent(a, b) for s in sets for a, b in combinations(s, 2))
            and all(weight >= 0 for _, weight in cover)
            and all(sum(w for s, (_, w) in zip(sets, cover) if x in s) >= 1
                    for x in range(len(g))))


class TestOrbitPruning:
    @given(drawn=small_power())
    @settings(max_examples=120, deadline=None)
    def test_unbudgeted_search_matches_networkx(self, drawn):
        _, power = drawn
        result = max_independent_set(power)
        assert result.exact and result.alpha == networkx_alpha(power)
        # pruning deletes subtrees only: same witness, never more nodes
        plain = max_independent_set(unpruned(power))
        assert (result.alpha, result.witness) == (plain.alpha, plain.witness)
        assert result.nodes <= plain.nodes

    @given(drawn=small_power(), budget=st.integers(min_value=0, max_value=40))
    @settings(max_examples=120, deadline=None)
    def test_budgeted_search_is_sound_and_reaches_further(self, drawn, budget):
        _, power = drawn
        result = max_independent_set(power, node_budget=budget)
        idx = [power.vertices.index(v) for v in result.witness]
        assert power.is_independent(idx) and result.alpha == len(idx)
        assert result.alpha <= networkx_alpha(power)
        plain = max_independent_set(unpruned(power), node_budget=budget)
        assert result.alpha >= plain.alpha
        if plain.exact:
            assert result.exact and result.witness == plain.witness

    @given(drawn=small_power(), step=st.integers(min_value=1, max_value=8),
           reflection=st.one_of(st.none(), st.integers(min_value=0, max_value=7)))
    @settings(max_examples=120, deadline=None)
    def test_forged_generator_never_prunes(self, drawn, step, reflection):
        g, power = drawn
        m = len(g)
        maps = [[(x + step) % m for x in range(m)]]
        if reflection is not None:
            maps.append([(reflection - x) % m for x in range(m)])
        forged = not all(confgraph._is_automorphism(g, image) for image in maps)
        symmetry = _PowerSymmetry.verified(g, power.power_of[1], step, reflection)
        assert (symmetry is None) == forged
        if forged:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(confgraph, "_dihedral_generators", lambda _: (step, reflection))
                assert max_independent_set(power) == max_independent_set(unpruned(power))

    @given(drawn=small_power(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_orbit_masks_are_joined_by_automorphisms(self, drawn, data):
        g, power = drawn
        symmetry = confgraph._power_symmetry(power)
        if symmetry is None:
            return
        v, u = (data.draw(st.integers(min_value=0, max_value=len(power) - 1))
                for _ in range(2))
        for fixed, masks in ((None, symmetry.orbit_masks()), (v, symmetry.orbit_masks(v))):
            assert masks[u] >> u & 1
            for w in (x for x in range(len(power)) if masks[u] >> x & 1):
                assert masks[w] == masks[u]
                image = matched_automorphism(symmetry, u, w, fixed)
                assert image[u] == w and (fixed is None or image[fixed] == fixed)
                assert confgraph._is_automorphism(power, image)

    def test_pentagon_stabiliser_orbits_have_the_wreath_product_sizes(self, pentagon):
        # the stabiliser of (0, 0) in D5 wr S2 has order 8: x -> -x on either
        # coordinate and the swap; an orbit is a multiset of two classes
        # {0}, {1, 4}, {2, 3}, e.g. {1, 2} holds (+-1, +-2) and (+-2, +-1)
        power = strong_power(graph_of(pentagon), 2)
        orbits = set(confgraph._power_symmetry(power).orbit_masks(0))
        assert sorted(o.bit_count() for o in orbits) == [1, 4, 4, 4, 4, 8]

    def test_pentagon_cube_takes_the_recorded_nodes(self, pentagon):
        # the product seed of size 10 and the engine's budget, as in the ladder
        power = strong_power(graph_of(pentagon), 3)
        seed = build_ladder(pentagon, 3, **ENGINE_LIMITS).recorded(3).witness
        result = max_independent_set(power, seed_witness=seed, node_budget=20_000)
        assert (result.alpha, result.exact, result.nodes) == (10, True, 8205)

    def test_path_rotation_is_rejected_and_its_reflection_kept(self):
        path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert confgraph._dihedral_generators(path) == (4, 3)
        assert _PowerSymmetry.verified(path, 2, 1, None) is None
        assert _PowerSymmetry.verified(path, 2, 1, 3) is None
        assert _PowerSymmetry.verified(path, 2, 4, 3) is not None

    def test_pentagon_cube_closes_inside_the_engine_budget(self, pentagon):
        power = strong_power(graph_of(pentagon), 3)
        result = max_independent_set(power, node_budget=20_000)
        assert (result.alpha, result.exact) == (10, True)
        plain = max_independent_set(unpruned(power), node_budget=20_000)
        assert not plain.exact and plain.witness == result.witness


class TestRungBound:
    def test_pentagon_cover_weighs_five_halves(self, pentagon):
        g = graph_of(pentagon)
        cover = fractional_clique_cover(g)
        assert clique_cover_weight(g, cover) == F(5, 2)

    def test_the_ladder_solves_the_cover_lp_once(self, pentagon, monkeypatch):
        covers = []

        def counting(g):
            covers.append(g)
            return fractional_clique_cover(g)

        monkeypatch.setattr(confgraph, "fractional_clique_cover", counting)
        g, ladder = graph_of(pentagon), CapacityLadder()
        for n in (1, 2, 3):
            ladder = extend_ladder(ladder, g, n, **ENGINE_LIMITS)
            assert ladder.cover_weight == (None if n == 1 else F(5, 2))
        assert covers == [g]

    @pytest.mark.parametrize("cover,message", [
        # {0, 2} is not an edge of C5
        (((0b00101, 1), (0b00011, 1), (0b01100, 1), (0b11000, 1)), "not a clique"),
        (((1 << 5, 1), (0b00011, 1), (0b01100, 1), (0b10000, 1)), "not a clique"),
        # vertex 0 is covered with weight 1/2 + 1/4
        (((0b00011, F(1, 4)), (0b00110, F(1, 2)), (0b01100, F(1, 2)),
          (0b11000, F(1, 2)), (0b10001, F(1, 2))), "below 1"),
        (((0b00011, 1), (0b01100, 1), (0b10000, 1), (0b00110, -1)), "negative"),
    ])
    def test_forged_cover_is_rejected(self, pentagon, cover, message):
        with pytest.raises(LadderError, match=message):
            clique_cover_weight(graph_of(pentagon), cover)

    @given(g=base_graph(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_cover_check_matches_reference(self, g, data):
        n = len(g)
        cover = data.draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=(1 << n) - 1),
            st.fractions(min_value=-1, max_value=2, max_denominator=4)), max_size=6))
        if is_fractional_clique_cover(g, cover):
            assert clique_cover_weight(g, cover) == sum(w for _, w in cover)
        else:
            with pytest.raises(LadderError):
                clique_cover_weight(g, cover)

    @given(g=base_graph())
    @settings(max_examples=80, deadline=None)
    def test_cover_bounds_alpha_of_the_square(self, g):
        cover = fractional_clique_cover(g)
        assert is_fractional_clique_cover(g, cover)
        weight = clique_cover_weight(g, cover)
        alpha = networkx_alpha(g)
        assert weight >= alpha
        assert networkx_alpha(strong_power(g, 2)) <= weight * alpha

    def test_bound_met_by_the_seed_ends_at_the_root(self, pentagon):
        power = strong_power(graph_of(pentagon), 4)
        seed = build_ladder(pentagon, 4, **ENGINE_LIMITS).recorded(4).witness
        result = max_independent_set(power, seed_witness=seed, upper_bound=lambda: 25)
        assert (result.alpha, result.exact, result.nodes) == (25, True, 1)

    def test_bound_is_not_asked_for_when_the_root_closes(self):
        def refuse() -> int:
            raise AssertionError("bound requested")
        # the path 0 - 1 - 2 splits into the cliques {0, 1} and {2}, so the
        # root's two colours cannot beat the seed {0, 2}
        power = strong_power(graph_from_edges(3, [(0, 1), (1, 2)]), 1)
        result = max_independent_set(power, seed_witness=((0,), (2,)), upper_bound=refuse)
        assert (result.alpha, result.exact, result.nodes) == (2, True, 1)

    def test_bound_keeps_the_unbounded_witness(self, pentagon):
        power = strong_power(graph_of(pentagon), 3)
        plain = max_independent_set(power)
        result = max_independent_set(power, upper_bound=lambda: 10)
        assert (result.alpha, result.witness, result.exact) == (10, plain.witness, True)
        assert result.nodes < plain.nodes


class TestSettledRungs:
    """A rung whose product seed meets the rung bound is recorded without gⁿ."""

    def test_pentagon_builds_no_fourth_power(self, pentagon, monkeypatch):
        built = []
        real = confgraph.strong_power
        monkeypatch.setattr(confgraph, "strong_power",
                            lambda g, n, cap: built.append(n) or real(g, n, cap))
        rung = build_ladder(pentagon, 4, **ENGINE_LIMITS).recorded(4)
        assert built == [1, 2, 3]
        assert (rung.alpha, rung.exact) == (25, True)
        assert digest(rung.to_json()["witness"]) == \
            "5afffffb22226cecbe41fc6c089f376dfcc2cefd71a2d835d3337ae65fec9428"

    @given(case=small_ladder())
    @settings(max_examples=150, deadline=None)
    def test_every_rung_is_the_bounded_search(self, case):
        g, top, budget, carried = case
        weight = clique_cover_weight(g, fractional_clique_cover(g))
        # rung 1 unbudgeted: an empty first witness has no rate (log2 0)
        ladder = extend_ladder(CapacityLadder(cover_weight=weight if carried else None), g, 1)
        for n in range(2, top + 1):
            seed = confgraph._best_product_witness(ladder, n)
            previous = ladder.rungs[-1]
            bound = previous.alpha * weight // 1 if previous.exact else None
            expected = max_independent_set(
                strong_power(g, n), node_budget=budget, seed_witness=seed,
                upper_bound=None if bound is None else lambda: bound)
            ladder = extend_ladder(ladder, g, n, node_budget=budget)
            rung = ladder.recorded(n)
            assert (rung.alpha, rung.witness, rung.exact) == \
                (expected.alpha, expected.witness, expected.exact)

    @pytest.mark.parametrize("q, top", [(1, 30), (2, 6), (3, 4)])
    def test_a_seed_of_every_word_builds_no_power(self, q, top, monkeypatch):
        # noiseless(q): every rung past the first is seeded with all qⁿ words
        built, real = [], confgraph.strong_power
        monkeypatch.setattr(confgraph, "strong_power",
                            lambda g, n, cap: built.append(n) or real(g, n, cap))
        g, ladder = certified_graph(noiseless(q)), CapacityLadder()
        for n in range(1, top + 1):
            seed = confgraph._best_product_witness(ladder, n)
            expected = max_independent_set(real(g, n), seed_witness=seed)
            ladder = extend_ladder(ladder, g, n)
            rung = ladder.recorded(n)
            assert (rung.alpha, rung.witness, rung.exact) == \
                (expected.alpha, expected.witness, expected.exact) == (q ** n, rung.witness, True)
        assert built == [1]

    def test_a_zero_budget_rung_is_not_exact(self, pentagon):
        ladder = build_ladder(pentagon, 3, **ENGINE_LIMITS)
        assert ladder.cover_weight == F(5, 2)
        rung = extend_ladder(ladder, graph_of(pentagon), 4, node_budget=0).recorded(4)
        assert (rung.alpha, rung.exact) == (25, False)

    def test_the_vertex_cap_refuses_before_any_seed_or_bound(self, pentagon, monkeypatch):
        ladder = build_ladder(pentagon, 3, **ENGINE_LIMITS)

        def refuse(*_):
            raise AssertionError("seed or bound work before the cap check")
        for name in ("_best_product_witness", "clique_cover_weight",
                     "fractional_clique_cover", "strong_power"):
            monkeypatch.setattr(confgraph, name, refuse)
        monkeypatch.setattr(ConfusabilityGraph, "is_code", refuse)
        with pytest.raises(ResourceCapError, match="625 vertices exceed the cap of 624"):
            extend_ladder(ladder, graph_of(pentagon), 4, vertex_cap=624)

    def test_a_dependent_seed_takes_the_search_and_is_refused(self, pentagon):
        ladder = build_ladder(pentagon, 3, **ENGINE_LIMITS)
        # rung 2's five words, which the 2 + 2 split of rung 4 repeats, become
        # (0, j): 0 ~ 1 in C5, so (0, 0) and (0, 1) are confusable
        second = replace(ladder.rungs[1], witness=tuple((0, j) for j in range(5)))
        forged = replace(ladder, rungs=ladder.rungs[:1] + (second,) + ladder.rungs[2:])
        with pytest.raises(ValueError, match="seed witness is not independent"):
            extend_ladder(forged, graph_of(pentagon), 4, **ENGINE_LIMITS)

    def test_the_word_check_refuses_repeats_confusable_pairs_and_short_words(self, pentagon):
        g = graph_of(pentagon)
        assert g.is_code(((0, 0), (2, 2)), 2)
        assert not g.is_code(((0, 0), (2, 2), (0, 0)), 2)
        assert not g.is_code(((0, 0), (1, 4)), 2)  # 0 ~ 1 and 0 ~ 4
        assert not g.is_code(((0, 0), (2,)), 2)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_the_word_check_agrees_with_the_strong_power(self, data):
        # labels are not indices, so a check that mixed them up would disagree
        base = data.draw(small_graph().filter(lambda g: len(g) <= 5))
        g = ConfusabilityGraph(tuple(f"v{i}" for i in range(len(base))), base.adjacency)
        n = data.draw(st.integers(min_value=1, max_value=3))
        power = strong_power(g, n)
        words = data.draw(st.lists(st.sampled_from(power.vertices), unique=True, max_size=8))
        assert g.is_code(words, n) == power.is_independent(
            [power.vertices.index(w) for w in words])
        if words:  # a repeated word is confusable with itself
            assert not g.is_code(words + [words[0]], n)


@st.composite
def memo_case(draw, kinds=("random", "power", "cube")):
    """A graph of one of ``kinds``, a node budget, an independent seed and
    maybe a bound.

    The graph is random on up to 14 vertices, a strong power of at most 64
    vertices, or the cube of a cycle or circulant on 5 to 7 vertices: only
    powers revisit many candidate sets (the cubes at different depths too),
    and only their orbits are pruned.  Cubes always keep a budget, since
    some take millions of nodes.  The bound, near the seed's size, need not
    be proven: both searches read it alike."""
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        size = draw(st.integers(min_value=1, max_value=14))
        pairs = list(combinations(range(size), 2))
        g = graph_from_edges(size, draw(st.lists(st.sampled_from(pairs), unique=True))
                             if pairs else [])
    elif kind == "power":
        g = draw(small_power())[1]
    else:
        size = draw(st.integers(min_value=5, max_value=7))
        jumps = draw(st.sets(st.integers(min_value=1, max_value=size // 2), min_size=1))
        g = strong_power(graph_from_edges(size, [(i, (i + j) % size) for i in range(size)
                                                 for j in jumps]), 3)
    budget = draw(st.integers(min_value=0, max_value=3000) if kind == "cube" else
                  st.sampled_from((0, 1, None)) | st.integers(min_value=2, max_value=60))
    seed: list[int] = []
    for i in draw(st.permutations(range(len(g))))[:draw(st.integers(0, len(g)))]:
        if g.is_independent(seed + [i]):
            seed.append(i)
    bound = None
    if draw(st.booleans()):
        value = len(seed) + draw(st.integers(min_value=0, max_value=3))
        bound = lambda: value  # noqa: E731
    return g, budget, tuple(g.vertices[i] for i in seed), bound


class TestColouringMemo:
    @given(case=memo_case())
    @settings(max_examples=150, deadline=None)
    def test_memo_keeps_every_node_of_the_reference(self, case):
        g, budget, seed, bound = case
        limits = dict(node_budget=budget, seed_witness=seed, upper_bound=bound)
        result = max_independent_set(g, **limits)
        assert result == reference_independent_set(g, **limits)

    @pytest.mark.parametrize("size", [5, 6])
    def test_cycle_cubes_keep_every_node_of_the_reference(self, size):
        # both searches meet a candidate set again deeper down, where the
        # classes stored for it outnumber those the node may skip
        power = strong_power(cycle(size), 3)
        assert max_independent_set(power) == reference_independent_set(power)


class TestClassMemo:
    def test_each_search_paints_its_own_classes(self):
        # a class memo that outlived one search would hand the hexagon cube
        # classes painted on the pentagon cube under the same keys
        for size in (5, 6):
            power = strong_power(cycle(size), 3)
            assert (max_independent_set(power, node_budget=5000)
                    == reference_independent_set(power, node_budget=5000))


def search_calls(g, **limits) -> tuple[list[int], int]:
    """Run max_independent_set under a profiler that watches its inner
    ``expand``.  Returns the node counts at which a call charged more than
    one node without calling itself (a repeated subtree skipped), and the
    number of calls."""
    code_file = confgraph.__file__
    starts: list[tuple[int, int]] = []  # (nodes at the call, calls made before it)
    ends: list[int] = []
    calls = 0

    def spy(frame, event, arg):
        nonlocal calls
        if frame.f_code.co_name != "expand" or frame.f_code.co_filename != code_file:
            return
        if event == "call":
            starts.append((frame.f_locals["nodes"], calls))
            calls += 1
        elif event == "return":
            nodes, before = starts.pop()
            if calls == before + 1 and frame.f_locals["nodes"] > nodes + 1:
                ends.append(frame.f_locals["nodes"])

    sys.setprofile(spy)
    try:
        max_independent_set(g, **limits)
    finally:
        sys.setprofile(None)
    return ends, calls


class TestRepeatedSubtrees:
    @given(case=memo_case(kinds=("random", "cube")), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_budgets_around_a_skipped_subtree_keep_the_reference(self, case, data):
        # a budget one below the end of a skipped subtree must explore it and
        # stop inside; at its end and one above, the skip fits.  The skips
        # are looked for unbudgeted, or up to 3000 nodes on the cubes
        g, budget, seed, bound = case
        limits = dict(node_budget=3000 if len(g) > 64 else None,
                      seed_witness=seed, upper_bound=bound)
        ends, _ = search_calls(g, **limits)
        budgets = [budget]
        if ends:
            end = data.draw(st.sampled_from(ends))
            budgets += [end - 1, end, end + 1]
        for limits["node_budget"] in budgets:
            assert max_independent_set(g, **limits) == reference_independent_set(g, **limits)

    @pytest.mark.parametrize("jump", [1, 2])
    def test_heptagon_cubes_keep_the_reference_at_large_budgets(self, jump):
        # jump 2 relabels the heptagon; its cube meets a candidate set again
        # at the entry gap of a subtree that raised the incumbent, whose node
        # count must not be charged (it changes the witness at 5000 nodes)
        g = strong_power(graph_from_edges(7, [(i, (i + jump) % 7) for i in range(7)]), 3)
        for budget in (5000, ENGINE_LIMITS["node_budget"]):
            assert (max_independent_set(g, node_budget=budget)
                    == reference_independent_set(g, node_budget=budget))

    def test_heptagon_cube_expands_under_a_quarter_of_its_nodes(self):
        power = strong_power(cycle(7), 3)
        budget = ENGINE_LIMITS["node_budget"]
        ends, calls = search_calls(power, node_budget=budget)
        assert max_independent_set(power, node_budget=budget).nodes == budget
        assert ends and calls < budget / 4
