import itertools
import sys

import pytest

from conftest import brute_force_ideals, diamond_coloring_check, random_colored_poset
from ranktwo.algebras import ALPHA, BETA, Algebra, cartan_matrix
from ranktwo.build import fundamental_poset, semistandard_poset
from ranktwo.fixtures import FIXTURE_NAMES, load_fixture
from ranktwo.grid import GridPoset, decompose, validate_grid
from ranktwo.lattice import (TooManyIdeals, _piece_elements, check_structure,
                             infer_structure_matrix, join_irreducible_poset,
                             order_ideals, piece_rank_stats,
                             weight_via_decomposition)
from ranktwo.poset import (EdgeColoredPoset, _components, _topological_order,
                           edge_color_isomorphism, find_rank_function, product,
                           vertex_color_isomorphism, VertexColoredPoset)
from ranktwo.tableaux import tableau_lattice


class TestEnumeration:
    def test_chain_product_count(self):
        assert len(order_ideals(load_fixture("chain_product_2x3"))) == 10

    def test_catalan_count(self):
        assert len(order_ideals(load_fixture("catalan_p3"))) == 14

    def test_g2_22_count(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (2, 2)))
        assert len(lat) == 729

    def test_matches_brute_force_on_fixtures(self):
        for name in ("chain_product_2x3", "catalan_p3", "two_color_example"):
            p = load_fixture(name)
            base = getattr(p, "base", p)
            lat = order_ideals(p)
            assert {lat.element_vertices(i) for i in range(len(lat))} == \
                brute_force_ideals(base)

    def test_elements_in_size_then_mask_order(self, rng):
        # a grid's vertex order is not the scan's linear extension, so the
        # scan does not list its masks in order
        for p in _random_grids(rng):
            for lat in order_ideals(p), order_ideals(p.base):
                assert list(lat.elements) == sorted(lat.elements,
                                                    key=lambda m: (m.bit_count(), m))

    def test_resource_guard(self):
        with pytest.raises(TooManyIdeals):
            order_ideals(load_fixture("chain_product_2x3"), max_ideals=5)

    def test_long_chain_needs_no_recursion(self, monkeypatch):
        n = 3000
        chain = VertexColoredPoset.build({v: ALPHA for v in range(n)},
                                         [(v, v + 1) for v in range(n - 1)])

        def refuse(limit):
            raise AssertionError("order_ideals changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        lat = order_ideals(chain)
        assert len(lat) == n + 1
        assert [lat.size_of(i) for i in range(len(lat))] == list(range(n + 1))

    def test_cardinality_is_a_rank_function(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (2, 1)))
        rf = find_rank_function(lat.edge_poset)
        assert rf is not None
        assert rf.length == len(lat.base)
        assert rf.ranks == tuple((i, lat.size_of(i)) for i in range(len(lat)))

    def test_diamond_property_everywhere(self):
        for algebra in Algebra:
            for lam in [(1, 1), (2, 1), (2, 2)]:
                lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
                assert diamond_coloring_check(lat.edge_poset)


def edge_components(p: EdgeColoredPoset, colors) -> tuple[frozenset[int], ...]:
    """Connected components of p along its covers of the given colors."""
    return _components(p.elements, [(u, v) for u, v, c in p.covers if c in colors])


def edge_subposet(p: EdgeColoredPoset, keep) -> EdgeColoredPoset:
    return EdgeColoredPoset(
        tuple(v for v in p.elements if v in keep),
        frozenset((u, v, c) for u, v, c in p.covers if u in keep and v in keep))


def lowest_weight(algebra: Algebra, lam):
    """Weight of the minimal element, -w0(lam)."""
    a, b = lam
    if algebra is Algebra.A2:
        return (-b, -a)
    return (-a, -b)


class TestComponents:
    def test_beta_components_of_example(self):
        lat = order_ideals(load_fixture("two_color_example"))
        comps = edge_components(lat.edge_poset, [BETA])
        assert sorted(len(c) for c in comps) == [2, 3, 4, 6]
        # the six-element component is a colored product of chains
        six = next(c for c in comps if len(c) == 6)
        sub = edge_subposet(lat.edge_poset, six)
        two = product(
            _chain_poset(1, BETA), _chain_poset(2, BETA))
        assert edge_color_isomorphism(sub, two) is not None

    def test_full_color_set(self):
        lat = order_ideals(semistandard_poset(Algebra.A2, "beta_alpha", (1, 1)))
        comp = next(c for c in edge_components(lat.edge_poset, [ALPHA, BETA]) if 0 in c)
        assert len(comp) == len(lat)

    def test_singleton(self):
        lat = order_ideals(semistandard_poset(Algebra.A2, "beta_alpha", (0, 0)))
        comp = next(c for c in edge_components(lat.edge_poset, [ALPHA]) if 0 in c)
        assert len(comp) == 1


def _chain_poset(length, color):
    from ranktwo.poset import EdgeColoredPoset

    return EdgeColoredPoset(
        tuple(range(length + 1)),
        frozenset((i, i + 1, color) for i in range(length)))


def _stats_from_edge_poset(lat, color):
    """(rho, length) per element, from the generic edge-colored components."""
    out = {}
    for comp in edge_components(lat.edge_poset, [color]):
        sizes = [lat.size_of(j) for j in comp]
        for i in comp:
            out[i] = (lat.size_of(i) - min(sizes), max(sizes) - min(sizes))
    return out


def _assert_statistics_match_edge_poset(lat):
    alpha = _stats_from_edge_poset(lat, ALPHA)
    beta = _stats_from_edge_poset(lat, BETA)
    for i in range(len(lat)):
        for color, oracle in ((ALPHA, alpha), (BETA, beta)):
            assert lat.rank_stats(i, color) == oracle[i]
        (ra, la), (rb, lb) = alpha[i], beta[i]
        assert lat.weight(i) == (2 * ra - la, 2 * rb - lb)


class TestStatisticsMatchEdgePoset:
    """Component bounds read from the covers against edge_poset components."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        _assert_statistics_match_edge_poset(order_ideals(load_fixture(name)))

    def test_random_posets(self, rng):
        for _ in range(40):
            p = random_colored_poset(rng, rng.randint(1, 10))
            _assert_statistics_match_edge_poset(order_ideals(p))


def reference_covers(lat):
    """Reference cover list: try every vertex on every ideal, in bit order."""
    color = lat.base.color_of
    out = []
    for i, mask in enumerate(lat.elements):
        for b, v in enumerate(lat.vertex_order):
            if not (mask >> b) & 1 and mask | (1 << b) in lat.index_of:
                out.append((i, lat.index_of[mask | (1 << b)], color[v]))
    return tuple(out)


def _random_grids(rng):
    """40 random posets under arbitrary chain indices, so that some "chains"
    hold incomparable vertices."""
    for _ in range(40):
        base = random_colored_poset(rng, rng.randint(1, 10))
        yield GridPoset(base, tuple((v, rng.randint(1, 4)) for v in base.ids))


class TestCoversMatchReference:
    """The chain walk gives the per-vertex scan's covers, in the same order."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        lat = order_ideals(load_fixture(name))
        assert tuple(lat.covers) == reference_covers(lat)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                lat = order_ideals(semistandard_poset(algebra, order, lam))
                assert tuple(lat.covers) == reference_covers(lat), (order, lam)

    @pytest.mark.parametrize("order", ["beta_alpha", "alpha_beta"])
    def test_g2_44(self, order):
        lat = order_ideals(semistandard_poset(Algebra.G2, order, (4, 4)))
        assert len(lat) == 5 ** 6
        assert tuple(lat.covers) == reference_covers(lat)

    def test_random_grids(self, rng):
        broken_chains = 0
        for p in _random_grids(rng):
            broken_chains += any("is not a chain" in v for v in validate_grid(p))
            lat = order_ideals(p)
            assert tuple(lat.covers) == reference_covers(lat), p
            _assert_statistics_match_edge_poset(lat)
            ideals = brute_force_ideals(p.base)
            color = p.base.color_of
            expected = {(s, s | {v}, color[v]) for s in ideals for v in p.base.ids
                        if v not in s and s | {v} in ideals}
            assert {(lat.element_vertices(i), lat.element_vertices(j), c)
                    for i, j, c in lat.covers} == expected
        assert broken_chains > 0


class TestCoversAscend:
    """Writers emit lat.covers as stored, with no re-sort: they must be in
    (i, j) order."""

    @staticmethod
    def _assert_ascending(lat):
        pairs = [(i, j) for i, j, _ in lat.covers]
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        self._assert_ascending(order_ideals(load_fixture(name)))

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                self._assert_ascending(order_ideals(semistandard_poset(algebra, order, lam)))


class TestCoversColumns:
    """Covers are stored as columns; as a sequence they give the reference's
    (i, j, Color) triples."""

    @staticmethod
    def _assert_columns(lat):
        cov, ref = lat.covers, reference_covers(lat)
        assert len(cov) == len(ref)
        assert tuple(cov) == ref
        assert tuple(reversed(cov)) == ref[::-1]
        assert [cov[k] for k in range(len(ref))] == list(ref)
        assert [cov[k] for k in range(-len(ref), 0)] == list(ref)
        assert type(cov.beta) is bytes and set(cov.beta) <= {0, 1}
        assert type(cov.lower) is list and type(cov.upper) is list
        assert all(type(x) is int for x in cov.lower + cov.upper)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        self._assert_columns(order_ideals(load_fixture(name)))

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                self._assert_columns(order_ideals(semistandard_poset(algebra, order, lam)))

    def test_random_grids(self, rng):
        for p in _random_grids(rng):
            self._assert_columns(order_ideals(p))

    def test_single_element_has_no_covers(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (0, 0)))
        assert len(lat) == 1
        assert not lat.covers and len(lat.covers) == 0
        assert tuple(lat.covers) == tuple(reversed(lat.covers)) == ()
        with pytest.raises(IndexError):
            lat.covers[0]


class TestWeights:
    def test_first_fundamental_top_weight(self):
        lat = order_ideals(fundamental_poset(Algebra.A2, "alpha_fund"))
        assert lat.weight(lat.top) == (1, 0)
        assert [lat.weight(i) for i in range(len(lat))] == [(0, -1), (-1, 1), (1, 0)]

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_extreme_weights(self, algebra):
        for lam in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
            assert lat.weight(lat.top) == lam
            assert lat.weight(0) == lowest_weight(algebra, lam)

    def test_rank_stats_consistency(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)))
        for i in range(len(lat)):
            (ra, la), (rb, lb) = lat.rank_stats(i, ALPHA), lat.rank_stats(i, BETA)
            assert 0 <= ra <= la and 0 <= rb <= lb
            assert lat.weight(i) == (2 * ra - la, 2 * rb - lb)

    def test_fundamental_edges_shift_by_simple_roots(self):
        for algebra in Algebra:
            rows = {ALPHA: cartan_matrix(algebra)[0], BETA: cartan_matrix(algebra)[1]}
            for which in ("alpha_fund", "beta_fund"):
                lat = order_ideals(fundamental_poset(algebra, which))
                for i, j, c in lat.covers:
                    (p1, q1), (p2, q2) = lat.weight(i), lat.weight(j)
                    assert (p2 - p1, q2 - q1) == rows[c]


class TestStructureCondition:
    def test_built_lattices(self):
        for algebra in Algebra:
            for order in ("beta_alpha", "alpha_beta"):
                lat = order_ideals(semistandard_poset(algebra, order, (2, 2)))
                assert check_structure(lat, cartan_matrix(algebra))
                assert infer_structure_matrix(lat) == cartan_matrix(algebra)

    def test_nonsplitting_fixture(self):
        lat = order_ideals(load_fixture("nonsplitting_grid"))
        assert infer_structure_matrix(lat) is None
        for algebra in Algebra:
            assert not check_structure(lat, cartan_matrix(algebra))
        # a couple of arbitrary integer matrices fail as well
        for m in [((2, 0), (0, 2)), ((1, 1), (1, 1)), ((2, -2), (-1, 2))]:
            assert not check_structure(lat, m)

    def test_single_element_vacuous(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (0, 0)))
        assert check_structure(lat, ((0, 0), (0, 0)))
        assert check_structure(lat, cartan_matrix(Algebra.G2))
        assert infer_structure_matrix(lat) is None

    @pytest.mark.parametrize("color", [ALPHA, BETA])
    def test_one_color_chain_infers_nothing(self, color):
        lat = order_ideals(VertexColoredPoset.build({0: color, 1: color}, [(0, 1)]))
        assert len(lat.covers) == 2
        assert infer_structure_matrix(lat) is None
        shift = (2, 0) if color is ALPHA else (0, 2)
        rows = (shift, (9, 9)) if color is ALPHA else ((9, 9), shift)
        assert check_structure(lat, rows)
        assert not check_structure(lat, rows[::-1])

    def test_inferred_for_second_fundamental(self):
        lat = order_ideals(fundamental_poset(Algebra.A2, "beta_fund"))
        assert infer_structure_matrix(lat) == cartan_matrix(Algebra.A2)


class TestDecompositionStatistics:
    def test_weight_additivity_c2_22(self):
        sp = semistandard_poset(Algebra.C2, "beta_alpha", (2, 2))
        lat = order_ideals(sp)
        dec = decompose(sp.grid)
        for i in range(len(lat)):
            assert weight_via_decomposition(lat, i, dec) == lat.weight(i)

    def test_empty_ideal_sums_piece_minima(self):
        sp = semistandard_poset(Algebra.C2, "beta_alpha", (2, 2))
        lat = order_ideals(sp)
        dec = decompose(sp.grid)
        pieces_bottom = (0, 0)
        for piece in dec.pieces:
            sub = order_ideals(piece)
            w = sub.weight(0)
            pieces_bottom = (pieces_bottom[0] + w[0], pieces_bottom[1] + w[1])
        assert weight_via_decomposition(lat, 0, dec) == pieces_bottom
        assert lat.weight(0) == pieces_bottom

    def test_rank_additivity_g2_11(self):
        sp = semistandard_poset(Algebra.G2, "beta_alpha", (1, 1))
        lat = order_ideals(sp)
        dec = decompose(sp.grid)
        for i in range(len(lat)):
            for color in (ALPHA, BETA):
                assert lat.rank_stats(i, color) == piece_rank_stats(lat, i, dec, color)


def reference_piece_elements(lattice, i, dec):
    """Oracle: the element's vertex set matched against each piece's vertex order."""
    s = lattice.element_vertices(i)
    out = []
    for sub in dec.lattices:
        mask = 0
        for b, v in enumerate(sub.vertex_order):
            if v in s:
                mask |= 1 << b
        out.append((sub, sub.index_of[mask]))
    return out


class TestPieceProjection:
    """The masked lookup of _piece_elements gives the vertex-set projection."""

    @staticmethod
    def assert_matches_reference(grid):
        lat, dec = order_ideals(grid), decompose(grid)
        for i in range(len(lat)):
            assert _piece_elements(lat, i, dec) == reference_piece_elements(lat, i, dec)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_battery_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                if sum(lam) >= 2:
                    self.assert_matches_reference(semistandard_poset(algebra, order, lam).grid)

    def test_random_grids(self, rng):
        for p in _random_grids(rng):
            self.assert_matches_reference(p)

    def test_decomposition_of_another_grid_is_refused(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (2, 2)))
        dec = decompose(semistandard_poset(Algebra.C2, "beta_alpha", (2, 2)).grid)
        with pytest.raises(ValueError, match="another vertex order"):
            _piece_elements(lat, 0, dec)
        with pytest.raises(ValueError):
            weight_via_decomposition(lat, 0, dec)


class TestFunctoriality:
    def small_fixtures(self):
        for algebra in Algebra:
            for which in ("alpha_fund", "beta_fund"):
                yield fundamental_poset(algebra, which).base
        yield load_fixture("two_color_example").base
        yield semistandard_poset(Algebra.A2, "beta_alpha", (2, 1)).grid.base

    def test_ideals_of_dual(self):
        for base in self.small_fixtures():
            lhs = order_ideals(base.dual()).edge_poset
            ep = order_ideals(base).edge_poset
            rhs = EdgeColoredPoset(ep.elements, frozenset((v, u, c) for u, v, c in ep.covers))
            assert edge_color_isomorphism(lhs, rhs) is not None

    def test_ideals_of_recoloring(self):
        from ranktwo.algebras import SWAP

        for base in self.small_fixtures():
            lhs = order_ideals(base.recolor(SWAP)).edge_poset
            ep = order_ideals(base).edge_poset
            rhs = EdgeColoredPoset(ep.elements, frozenset((u, v, SWAP[c]) for u, v, c in ep.covers))
            assert edge_color_isomorphism(lhs, rhs) is not None

    def test_join_irreducibles_recover_poset(self):
        for base in self.small_fixtures():
            recovered = join_irreducible_poset(order_ideals(base).edge_poset)
            assert vertex_color_isomorphism(recovered, base) is not None


def reference_join_irreducible_poset(ep):
    """Reference: join-irreducibles ordered by an N-bit reach table over
    every lattice element, each cover tested against all of them."""
    lower = ep.lower_covers
    irr = [v for v in ep.elements if len(lower[v]) == 1]
    colors = {v: lower[v][0][1] for v in irr}
    up = {v: [w for w, _ in ep.upper_covers[v]] for v in ep.elements}
    pos = {v: k for k, v in enumerate(ep.elements)}
    reach = {v: 0 for v in ep.elements}
    for v in reversed(_topological_order(ep.elements, up)):
        m = 0
        for w in up[v]:
            m |= (1 << pos[w]) | reach[w]
        reach[v] = m

    def leq(u, v):
        return u == v or (reach[u] >> pos[v]) & 1

    covers = set()
    for u in irr:
        uppers = [v for v in irr if v != u and leq(u, v)]
        for v in uppers:
            if not any(w != v and leq(w, v) for w in uppers):
                covers.add((u, v))
    return VertexColoredPoset.build(colors, covers)


class TestJoinIrreduciblesMatchReference:
    """The one pass of masks gives the reference's poset exactly."""

    def assert_matches_reference(self, ep):
        assert join_irreducible_poset(ep) == reference_join_irreducible_poset(ep)

    @pytest.mark.parametrize("algebra", [Algebra.A2, Algebra.C2, Algebra.G2])
    def test_tableau_lattices(self, algebra):
        for lam in itertools.product(range(3), repeat=2):
            self.assert_matches_reference(tableau_lattice(algebra, lam).edge_poset)

    def test_a1a1_products(self):
        for a, b in itertools.product(range(4), repeat=2):
            self.assert_matches_reference(product(
                EdgeColoredPoset(tuple(range(b + 1)), frozenset((i, i + 1, BETA) for i in range(b))),
                EdgeColoredPoset(tuple(range(a + 1)), frozenset((i, i + 1, ALPHA) for i in range(a)))))

    def test_random_posets(self, rng):
        for _ in range(40):
            p = random_colored_poset(rng, rng.randint(1, 10))
            self.assert_matches_reference(order_ideals(p).edge_poset)


class TestVertexSumWeightOracle:
    """Independent route to element weights: the bottom weight plus one
    simple root per vertex in the ideal, colored by that vertex."""

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_weights_equal_vertex_sums(self, algebra):
        rows = {ALPHA: cartan_matrix(algebra)[0], BETA: cartan_matrix(algebra)[1]}
        for lam in [(1, 1), (2, 1), (2, 2)]:
            lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
            low = lowest_weight(algebra, lam)
            color = lat.base.color_of
            for i in range(len(lat)):
                total = low
                for v in lat.element_vertices(i):
                    r = rows[color[v]]
                    total = (total[0] + r[0], total[1] + r[1])
                assert total == lat.weight(i)
