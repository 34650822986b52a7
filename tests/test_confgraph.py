import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certcap.channel import (SupportCertificate, certify_support, exact_channel,
                             noiseless, product_channel)
from certcap.confgraph import (CapacityLadder, ConfusabilityGraph, LadderError,
                               certified_graph, confusability_graph, extend_ladder,
                               is_zero_capacity, max_independent_set,
                               strong_power)
from certcap.enclosure import log2_enclosure

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


def pairwise_confusability_graph(cert, inputs, n_outputs):
    """Reference: the pairwise definition, one input pair and output at a time.

    Two inputs are joined when some output is proven positive under both;
    if a potential shared output involves an unresolved entry the edge is
    added too and the result is flagged conservative.
    """
    n = len(inputs)
    maybe_positive = cert.positive | cert.unresolved
    adjacency = [0] * n
    conservative = False
    for i in range(n):
        for j in range(i + 1, n):
            definite = any((i, y) in cert.positive and (j, y) in cert.positive
                           for y in range(n_outputs))
            if definite:
                edge = True
            else:
                possible = any((i, y) in maybe_positive and (j, y) in maybe_positive
                               for y in range(n_outputs))
                edge = possible
                if possible:
                    conservative = True
            if edge:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return tuple(adjacency), conservative


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
        assert not g.conservative

    def test_pentagon_is_five_cycle(self, pentagon):
        g = graph_of(pentagon)
        expected = {frozenset((i, (i + 1) % 5)) for i in range(5)}
        actual = {frozenset((i, j)) for i in range(5) for j in range(i + 1, 5)
                  if g.are_adjacent(i, j)}
        assert actual == expected

    def test_noiseless_is_empty(self, nl2):
        g = graph_of(nl2)
        assert not any(g.are_adjacent(i, j) for i in range(2) for j in range(2) if i != j)

    def test_unresolved_entries_make_it_conservative(self, hover_channel):
        g = graph_of(hover_channel, level=5)
        assert g.conservative
        assert g.are_adjacent(0, 1)  # edge forced by the hovering entry

    def test_resolved_stream_is_exact(self, pentagon_stream):
        g = graph_of(pentagon_stream, level=3)
        assert not g.conservative

    @given(support_certificate())
    @settings(max_examples=300, deadline=None)
    def test_cliques_match_pairwise_definition(self, drawn):
        cert, nx, ny = drawn
        g = confusability_graph(cert, tuple(range(nx)), ny)
        assert (g.adjacency, g.conservative) == pairwise_confusability_graph(
            cert, tuple(range(nx)), ny)

    def test_certified_graph_reads_the_support_at_its_level(self, hover_channel,
                                                            pentagon_stream):
        for ch, level in ((hover_channel, 5), (pentagon_stream, 2), (pentagon_stream, 3)):
            assert certified_graph(ch, level) == graph_of(ch, level)


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


class TestZeroCapacity:
    def test_complete_means_zero(self, bsc14):
        assert is_zero_capacity(graph_of(bsc14)) is True

    def test_cycle_is_not_zero(self, pentagon):
        assert is_zero_capacity(graph_of(pentagon)) is False

    def test_empty_two_vertices_not_zero(self, nl2):
        assert is_zero_capacity(graph_of(nl2)) is False


class TestLadder:
    def test_pentagon_two_rungs(self, pentagon):
        g = graph_of(pentagon)
        ladder = extend_ladder(CapacityLadder(), g, 1)
        assert ladder.rungs[0].alpha == 2
        assert ladder.running_best.contains(F(1))
        ladder = extend_ladder(ladder, g, 2)
        assert ladder.rungs[1].alpha == 5
        # running best switched to the better rung: (1/2) log2 5
        half_log5 = log2_enclosure(F(5), F(1, 2 ** 20)).scaled(F(1, 2))
        assert ladder.running_best.intersects(half_log5)

    def test_running_best_lo_never_decreases(self, pentagon):
        g = graph_of(pentagon)
        ladder = CapacityLadder()
        last = None
        for n in (1, 2, 3):
            ladder = extend_ladder(ladder, g, n, node_budget=2000)
            if last is not None:
                assert ladder.running_best.lo >= last
            last = ladder.running_best.lo

    def test_supermultiplicativity_of_recorded_rungs(self, pentagon):
        g = graph_of(pentagon)
        ladder = CapacityLadder()
        for n in (1, 2, 3):
            ladder = extend_ladder(ladder, g, n, node_budget=2000)
        alphas = {r.n: r.alpha for r in ladder.rungs}
        for m in alphas:
            for n in alphas:
                if m + n in alphas:
                    assert alphas[m + n] >= alphas[m] * alphas[n]

    def test_supermultiplicative_through_rung_four(self, pentagon):
        g = graph_of(pentagon)
        ladder = CapacityLadder()
        for n in (1, 2, 3, 4):
            ladder = extend_ladder(ladder, g, n, node_budget=20_000)
        alphas = {r.n: r.alpha for r in ladder.rungs}
        assert alphas[4] >= 25  # alpha(C5^2)^2, seeded by the 2+2 split
        for m in alphas:
            for n in alphas:
                if m + n in alphas:
                    assert alphas[m + n] >= alphas[m] * alphas[n]

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
        g = certified_graph(ch, 0)
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

    def test_conservative_graph_refused(self, hover_channel):
        g = graph_of(hover_channel, level=3)
        with pytest.raises(LadderError, match="conservative"):
            extend_ladder(CapacityLadder(), g, 1)

    def test_duplicate_rung_refused(self, pentagon):
        g = graph_of(pentagon)
        ladder = extend_ladder(CapacityLadder(), g, 1)
        with pytest.raises(LadderError):
            extend_ladder(ladder, g, 1)

    def test_empty_graph_rung_is_log_alphabet(self):
        ch = exact_channel((0, 1, 2), (0, 1, 2),
                           [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        g = graph_of(ch)
        ladder = extend_ladder(CapacityLadder(), g, 1)
        assert ladder.rungs[0].alpha == 3
        enc = log2_enclosure(F(3), F(1, 2 ** 20))
        assert ladder.running_best.intersects(enc)
