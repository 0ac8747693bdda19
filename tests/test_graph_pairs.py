"""Graph moves, admissible pairs, and the pair-lattice prime space."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonekit import (
    EX_75,
    FiniteGraph,
    FiniteLattice,
    FinitePoset,
    JNotAdmissible,
    LatticeTooLarge,
    boolean_lattice,
    is_frame,
    j_pairs,
    j_x,
    pair_prime_space,
    x_forward,
    x_inverse,
)
from stonekit.lattice import poset_isomorphism
from conftest import assert_same_lattice


@st.composite
def graphs(draw, max_vertices=4, max_edges=8):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    edges = tuple(
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m)
    )
    return FiniteGraph(n, edges)


def positively_invariant(g, subset):
    """Every edge sourced inside the set lands inside it."""
    return all((subset >> r) & 1 for s, r in g.edges if (subset >> s) & 1)


def pairwise_pair_lattice(g, j):
    """The pair lattice straight from the definitions: every pair of
    vertex sets (I, I') with I positively invariant, J | I inside I' and
    no vertex of I' - I in x_inverse(I), that is with all its edges
    landing in I; ordered componentwise pair by pair and certified by
    the FiniteLattice constructor."""
    sets = range(1 << g.vertices)
    pairs = [
        (inv, upper)
        for inv, upper in product(sets, sets)
        if positively_invariant(g, inv)
        and (j | inv) & ~upper == 0
        and upper & x_inverse(g, inv) & ~inv == 0
    ]
    below = tuple(
        sum(1 << a for a, (ia, ua) in enumerate(pairs) if ia & ~ib == 0 and ua & ~ub == 0)
        for ib, ub in pairs
    )
    return FiniteLattice(FinitePoset(len(pairs), below), labels=tuple(pairs))


def all_graphs(max_vertices):
    """Every edge set, loops included, on 0 to ``max_vertices`` vertices."""
    for n in range(max_vertices + 1):
        edges = list(product(range(n), range(n)))
        for k in range(len(edges) + 1):
            for chosen in combinations(edges, k):
                yield FiniteGraph(n, chosen)


def loop():
    return FiniteGraph(1, ((0, 0),))


def edgeless(n):
    return FiniteGraph(n, ())


class TestGraphValidation:
    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            FiniteGraph(2, ((0, 2),))
        with pytest.raises(ValueError):
            FiniteGraph(-1, ())

    def test_parallel_edges_collapse_in_the_masks(self):
        g = FiniteGraph(2, ((0, 1), (0, 1), (0, 1)))
        assert g.range_masks == (0b10, 0)

    def test_edges_normalized(self):
        g = FiniteGraph(2, [[0, 1]])
        assert g.edges == ((0, 1),)


class TestMoves:
    def test_middle_vertex_reaches_both_sinks(self):
        g = EX_75()
        assert x_forward(g, 0b010) == 0b101
        assert x_inverse(g, 0b101) == 0b111
        assert x_inverse(g, 0b001) == 0b101

    def test_edgeless_extremes(self):
        g = edgeless(3)
        assert x_forward(g, 0b111) == 0
        assert x_inverse(g, 0) == 0b111

    def test_loop_fixes_its_vertex(self):
        assert x_forward(loop(), 1) == 1

    def test_masks_bounds_checked(self):
        with pytest.raises(ValueError):
            x_forward(edgeless(1), 0b10)
        with pytest.raises(ValueError):
            x_inverse(edgeless(1), -1)

    @given(graphs(), st.data())
    def test_forward_inverse_are_adjoint(self, g, data):
        full = (1 << g.vertices) - 1
        h = data.draw(st.integers(0, full))
        k = data.draw(st.integers(0, full))
        assert (x_forward(g, h) & ~k == 0) == (h & ~x_inverse(g, k) == 0)
        assert x_forward(g, h | k) == x_forward(g, h) | x_forward(g, k)
        assert x_inverse(g, h & k) == x_inverse(g, h) & x_inverse(g, k)


class TestJx:
    def test_non_sinks_only(self):
        assert j_x(EX_75()) == 0b010
        assert j_x(edgeless(2)) == 0
        assert j_x(loop()) == 1


class TestJPairs:
    def test_reference_graph_has_exactly_four_pairs(self):
        pl = j_pairs(EX_75(), j_x(EX_75()))
        assert pl.pairs == ((0, 0b010), (0b001, 0b011), (0b100, 0b110), (7, 7))
        assert poset_isomorphism(pl.lattice.order, boolean_lattice(2).order) is not None

    def test_positively_invariant_census(self):
        g = EX_75()
        kept = [h for h in range(8) if x_forward(g, h) & ~h == 0]
        assert kept == [0b000, 0b001, 0b100, 0b101, 0b111]

    def test_edgeless_pairs_are_diagonal(self):
        pl = j_pairs(edgeless(2), 0)
        assert pl.pairs == tuple((h, h) for h in range(4))

    def test_empty_relative_set_gives_the_toeplitz_side(self):
        pl = j_pairs(EX_75(), 0)
        assert len(pl.pairs) == 8
        assert {(0, 0), (0, 0b010)} <= set(pl.pairs)

    def test_relative_set_may_contain_a_sink(self):
        pl = j_pairs(EX_75(), 0b001)
        assert pl.pairs == ((1, 1), (1, 3), (5, 5), (7, 7))
        top = pl.lattice.join(1, 2)
        assert pl.pairs[top] == (7, 7)

    def test_out_of_range_relative_set_refused(self):
        with pytest.raises(JNotAdmissible):
            j_pairs(EX_75(), 0b1000)

    def test_componentwise_join_can_escape(self):
        pl = j_pairs(EX_75(), 0b010)
        union = (0b001 | 0b100, 0b011 | 0b110)
        assert union not in pl.pairs
        assert pl.pairs[pl.lattice.join(1, 2)] == (7, 7)

    def test_every_small_graph_matches_the_pairwise_construction(self):
        for g in all_graphs(3):
            for j in range(1 << g.vertices):
                pl = j_pairs(g, j)
                assert (pl.graph, pl.j) == (g, j)
                assert_same_lattice(pl.lattice, pairwise_pair_lattice(g, j))

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.data())
    def test_random_graphs_match_the_pairwise_construction(self, g, data):
        j = data.draw(st.integers(0, (1 << g.vertices) - 1))
        assert_same_lattice(j_pairs(g, j).lattice, pairwise_pair_lattice(g, j))

    def test_invariant_sets_past_the_cap_are_refused(self, monkeypatch):
        # every vertex set of an edgeless graph is invariant
        monkeypatch.setenv("STONE_MAX_LATTICE", "7")
        with pytest.raises(LatticeTooLarge, match="^more than 7 down-sets; "):
            j_pairs(edgeless(3), 0)
        monkeypatch.setenv("STONE_MAX_LATTICE", "8")
        assert len(j_pairs(edgeless(3), 0).pairs) == 8

    def test_only_admissible_sets_count_against_the_cap(self, monkeypatch):
        # with J = all three vertices only the full set is admissible;
        # two disjoint edges have 9 invariant sets, with J = their
        # sources 4 of them admissible, and with J = 0 all 9
        monkeypatch.setenv("STONE_MAX_LATTICE", "1")
        assert j_pairs(edgeless(3), 0b111).pairs == ((7, 7),)
        g = FiniteGraph(4, ((0, 1), (2, 3)))
        monkeypatch.setenv("STONE_MAX_LATTICE", "4")
        assert len(j_pairs(g, j_x(g)).pairs) == 4
        with pytest.raises(LatticeTooLarge, match="^more than 4 down-sets; "):
            j_pairs(g, 0)

    def test_pair_count_past_the_cap_is_refused(self, monkeypatch):
        # 0 and 1 reach each other: 4 invariant sets, 10 pairs
        g = FiniteGraph(3, ((0, 1), (1, 0)))
        monkeypatch.setenv("STONE_MAX_LATTICE", "9")
        with pytest.raises(LatticeTooLarge, match="^10 elements exceeds the cap of 9$"):
            j_pairs(g, 0)
        monkeypatch.setenv("STONE_MAX_LATTICE", "10")
        assert len(j_pairs(g, 0).pairs) == 10

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.data())
    def test_pair_set_closed_under_componentwise_meet(self, g, data):
        j = data.draw(st.integers(0, (1 << g.vertices) - 1))
        pl = j_pairs(g, j)
        members = set(pl.pairs)
        for ia, ua in pl.pairs:
            for ib, ub in pl.pairs:
                assert (ia & ib, ua & ub) in members


class TestEmbedding:
    @staticmethod
    def j_invariant_sets(g, j):
        full = (1 << g.vertices) - 1
        return [
            h
            for h in range(full + 1)
            if positively_invariant(g, h) and x_inverse(g, h) & j & ~h == 0
        ]

    def test_reference_graph_embedding_is_a_bijection(self):
        g = EX_75()
        j = j_x(g)
        image = [(h, h | j) for h in self.j_invariant_sets(g, j)]
        pl = j_pairs(g, j)
        assert sorted(image) == list(pl.pairs)

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.data())
    def test_embedding_lands_in_pairs_injectively(self, g, data):
        full = (1 << g.vertices) - 1
        j = data.draw(st.integers(0, full))
        pl = j_pairs(g, j)
        members = set(pl.pairs)
        sets = self.j_invariant_sets(g, j)
        image = {(h, h | j) for h in sets}
        assert image <= members
        assert len(image) == len(sets)
        sinks = full ^ j_x(g)
        if j | sinks == full:
            assert len(sets) == len(pl.pairs)


class TestPrimeSpace:
    def test_reference_graph_has_two_point_discrete_spectrum(self):
        spec = pair_prime_space(j_pairs(EX_75(), j_x(EX_75())))
        assert spec.space.n == 2
        assert spec.space.opens == (0, 1, 2, 3)

    def test_chain_shaped_pair_lattice(self):
        spec = pair_prime_space(j_pairs(loop(), 1))
        assert spec.primes == (0,)

    def test_empty_graph_has_empty_spectrum(self):
        spec = pair_prime_space(j_pairs(FiniteGraph(0, ()), 0))
        assert spec.primes == ()

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.data())
    def test_pair_lattices_are_frames(self, g, data):
        j = data.draw(st.integers(0, (1 << g.vertices) - 1))
        pl = j_pairs(g, j)
        assert is_frame(pl.lattice).distributive
        pair_prime_space(pl)
