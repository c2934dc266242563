import pytest
from hypothesis import given, settings, strategies as st

from conftest import (brute_force_ideals, diamond_coloring_check, minimal_elements,
                      random_colored_poset, transitive_reduction)
from ranktwo.algebras import ALPHA, BETA, SWAP, IDENTITY
from ranktwo.build import fundamental_poset
from ranktwo.algebras import Algebra
from ranktwo.fixtures import load_fixture
from ranktwo.lattice import order_ideals
from ranktwo.poset import (EdgeColoredPoset, PosetError, VertexColoredPoset,
                           edge_color_isomorphism, find_rank_function, product,
                           vertex_color_isomorphism)


def chain(colors):
    return VertexColoredPoset.build(
        {i: c for i, c in enumerate(colors)},
        [(i, i + 1) for i in range(len(colors) - 1)])


def edge_chain(colors):
    return EdgeColoredPoset(
        tuple(range(len(colors) + 1)),
        frozenset((i, i + 1, c) for i, c in enumerate(colors)))


def disjoint_sum(p: VertexColoredPoset, q: VertexColoredPoset) -> VertexColoredPoset:
    """Disjoint sum; q's ids are shifted above p's to force disjointness."""
    shift = max(p.ids) + 1 if len(p) else 0
    q2 = q.relabel({v: v + shift for v in q.ids})
    return VertexColoredPoset(p.vertices + q2.vertices, p.covers | q2.covers)


def relabel_edges(p: EdgeColoredPoset, mapping) -> EdgeColoredPoset:
    return EdgeColoredPoset(
        tuple(sorted(mapping[v] for v in p.elements)),
        frozenset((mapping[u], mapping[v], c) for u, v, c in p.covers))


@st.composite
def colored_posets(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = draw(st.sets(
        st.tuples(st.integers(0, max_n - 1), st.integers(0, max_n - 1)),
        max_size=10)) if n else set()
    relations = {(u, v) for u, v in pairs if u < v < n}
    covers = transitive_reduction(n, relations)
    colors = draw(st.lists(st.sampled_from([ALPHA, BETA]), min_size=n, max_size=n))
    return VertexColoredPoset.build(dict(enumerate(colors)), covers)


class TestDual:
    def test_two_chain(self):
        p = chain([BETA, ALPHA])
        d = p.dual()
        assert d.color_of[0] is BETA and d.color_of[1] is ALPHA
        assert d.covers == frozenset({(1, 0)})
        assert minimal_elements(d) == (1,)

    def test_empty(self):
        p = VertexColoredPoset.build({}, [])
        assert p.dual() == p

    def test_fundamental_pair(self):
        p = fundamental_poset(Algebra.A2, "alpha_fund").base
        q = fundamental_poset(Algebra.A2, "beta_fund").base
        assert vertex_color_isomorphism(p.dual(), q) is not None

    @given(colored_posets())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, p):
        assert p.dual().dual() == p

    @given(colored_posets())
    @settings(max_examples=60, deadline=None)
    def test_commutes_with_recolor(self, p):
        assert p.dual().recolor(SWAP) == p.recolor(SWAP).dual()


class TestRecolor:
    def test_identity(self):
        p = chain([BETA, ALPHA, ALPHA])
        assert p.recolor(IDENTITY) == p

    def test_swap_on_fundamental(self):
        p = fundamental_poset(Algebra.A2, "alpha_fund").base
        q = fundamental_poset(Algebra.A2, "beta_fund").base
        assert p.recolor(SWAP) == q.relabel({v: v for v in q.ids})

    def test_swap_involution(self, rng):
        for _ in range(10):
            p = random_colored_poset(rng, 5)
            assert p.recolor(SWAP).recolor(SWAP) == p

    def test_recolored_dual_of_example(self):
        p = load_fixture("two_color_example").base
        lhs = p.dual().recolor(SWAP)
        rhs = p.recolor(SWAP).dual()
        assert vertex_color_isomorphism(lhs, rhs) is not None


class TestSumsAndProducts:
    def test_sum_of_singletons(self):
        p = chain([ALPHA])
        q = chain([BETA])
        s = disjoint_sum(p, q)
        assert len(s) == 2 and not s.covers

    def test_product_of_chains(self):
        p = edge_chain([ALPHA])
        q = edge_chain([BETA, BETA])
        pr = product(p, q)
        assert len(pr) == 6
        assert len(pr.covers) == 7

    def test_ideal_functor_on_sums(self, rng):
        # J_color(P + Q) is the colored product of the two ideal lattices
        for _ in range(6):
            p = random_colored_poset(rng, 4)
            q = random_colored_poset(rng, 4)
            lhs = order_ideals(disjoint_sum(p, q)).edge_poset
            rhs = product(order_ideals(p).edge_poset, order_ideals(q).edge_poset)
            assert edge_color_isomorphism(lhs, rhs) is not None


class TestRankFunction:
    def test_three_chain(self):
        rf = find_rank_function(chain([ALPHA, ALPHA, ALPHA]))
        assert rf.length == 2
        assert rf.ranks == ((0, 0), (1, 1), (2, 2))

    def test_non_graded_poset(self):
        # 3 sits both directly above 0 and two covers above 1
        p = VertexColoredPoset.build(
            {v: ALPHA for v in range(5)},
            [(0, 2), (1, 2), (0, 3), (1, 4), (4, 3)])
        assert find_rank_function(p) is None

    def test_lattice_of_chain_product(self):
        lat = order_ideals(load_fixture("chain_product_2x3"))
        rf = find_rank_function(lat.edge_poset)
        assert rf.length == 6
        assert rf.rank_sizes() == (1, 1, 2, 2, 2, 1, 1)

    def test_disconnected(self):
        p = disjoint_sum(chain([ALPHA, ALPHA]), chain([BETA]))
        rf = find_rank_function(p)
        assert rf.length == 1


class TestDiamondColoring:
    def test_example_lattice(self):
        lat = order_ideals(load_fixture("two_color_example"))
        assert diamond_coloring_check(lat.edge_poset)

    def test_inconsistent_diamond(self):
        bad = EdgeColoredPoset(
            (0, 1, 2, 3),
            frozenset({(0, 1, ALPHA), (0, 2, BETA), (1, 3, BETA), (2, 3, BETA)}))
        assert not diamond_coloring_check(bad)

    def test_built_lattices(self, rng):
        for _ in range(8):
            p = random_colored_poset(rng, 6)
            assert diamond_coloring_check(order_ideals(p).edge_poset)


class TestConstructionGuards:
    def test_transitive_cover_rejected(self):
        with pytest.raises(PosetError, match="transitive"):
            VertexColoredPoset.build(
                {0: ALPHA, 1: ALPHA, 2: ALPHA}, [(0, 1), (1, 2), (0, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(PosetError, match="cycle"):
            VertexColoredPoset.build({0: ALPHA, 1: ALPHA}, [(0, 1), (1, 0)])

    def test_duplicate_edge_color_rejected(self):
        with pytest.raises(PosetError, match="one cover"):
            EdgeColoredPoset((0, 1), frozenset({(0, 1, ALPHA), (0, 1, BETA)}))


class TestIsomorphism:
    def test_respects_colors(self):
        assert vertex_color_isomorphism(chain([ALPHA, BETA]), chain([BETA, ALPHA])) is None
        assert vertex_color_isomorphism(
            chain([ALPHA, BETA]).relabel({0: 7, 1: 3}), chain([ALPHA, BETA])) is not None

    def test_edge_variant(self):
        assert edge_color_isomorphism(edge_chain([ALPHA, BETA]), edge_chain([BETA, ALPHA])) is None
        assert edge_color_isomorphism(
            edge_chain([ALPHA, BETA]),
            relabel_edges(edge_chain([ALPHA, BETA]), {0: 5, 1: 6, 2: 9})) is not None

    @given(colored_posets(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_relabel_invariance(self, p, rnd):
        ids = list(p.ids)
        shuffled = ids[:]
        rnd.shuffle(shuffled)
        q = p.relabel(dict(zip(ids, (i + 100 for i in shuffled))))
        assert vertex_color_isomorphism(p, q) is not None


def _shuffled_labels(rng, ids):
    """A random bijection from ids onto fresh ids."""
    targets = [v + 100 for v in ids]
    rng.shuffle(targets)
    return dict(zip(ids, targets))


class TestIsomorphismMaps:
    """The returned map itself is a color-preserving cover bijection."""

    def test_vertex_map_on_random_relabellings(self, rng):
        for _ in range(30):
            p = random_colored_poset(rng, rng.randint(1, 8))
            q = p.relabel(_shuffled_labels(rng, list(p.ids)))
            phi = vertex_color_isomorphism(p, q)
            assert phi is not None
            assert sorted(phi) == list(p.ids) and sorted(phi.values()) == list(q.ids)
            assert {(phi[u], phi[v]) for u, v in p.covers} == q.covers
            assert all(q.color_of[phi[v]] is c for v, c in p.vertices)

    def test_edge_map_on_random_relabellings(self, rng):
        for _ in range(20):
            p = order_ideals(random_colored_poset(rng, rng.randint(1, 6))).edge_poset
            q = relabel_edges(p, _shuffled_labels(rng, list(p.elements)))
            phi = edge_color_isomorphism(p, q)
            assert phi is not None
            assert sorted(phi) == list(p.elements)
            assert sorted(phi.values()) == list(q.elements)
            assert {(phi[u], phi[v], c) for u, v, c in p.covers} == q.covers


def crowns(*sizes):
    """Disjoint one-color crowns: the crown of size k has minima 0..k-1 and
    maxima k..2k-1, maximum k+i covering minima i and i+1 mod k."""
    colors, covers, shift = {}, set(), 0
    for k in sizes:
        for i in range(k):
            colors[shift + i] = colors[shift + k + i] = ALPHA
            covers |= {(shift + i, shift + k + i), (shift + (i + 1) % k, shift + k + i)}
        shift += 2 * k
    return VertexColoredPoset.build(colors, covers)


def one_color_edges(p):
    return EdgeColoredPoset(p.ids, frozenset((u, v, ALPHA) for u, v in p.covers))


class TestCrowns:
    """A 12-crown and two disjoint 6-crowns have the same vertex signatures
    (one color, depth 0 or 1, degree 2), so only the search with undo tells
    them apart."""

    def test_twelve_crown_is_not_two_six_crowns(self):
        one, two = crowns(6), crowns(3, 3)
        assert vertex_color_isomorphism(one, two) is None
        assert edge_color_isomorphism(one_color_edges(one), one_color_edges(two)) is None

    def test_relabelled_twelve_crown_maps_back(self, rng):
        p = crowns(6)
        q = p.relabel(_shuffled_labels(rng, list(p.ids)))
        phi = vertex_color_isomorphism(q, p)
        assert phi is not None
        assert sorted(phi) == list(q.ids) and sorted(phi.values()) == list(p.ids)
        assert {(phi[u], phi[v]) for u, v in q.covers} == p.covers
        assert all(p.color_of[phi[v]] is c for v, c in q.vertices)
        psi = edge_color_isomorphism(one_color_edges(q), one_color_edges(p))
        assert psi is not None
        assert sorted(psi) == list(q.ids) and sorted(psi.values()) == list(p.ids)
        assert {(psi[u], psi[v], c) for u, v, c in one_color_edges(q).covers} == \
            one_color_edges(p).covers


def test_brute_force_oracle_matches_enumeration(rng):
    for _ in range(6):
        p = random_colored_poset(rng, 6)
        lat = order_ideals(p)
        assert {lat.element_vertices(i) for i in range(len(lat))} == brute_force_ideals(p)
