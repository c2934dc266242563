import itertools
from operator import add, sub
from array import array
import os
import subprocess
import sys

import pytest

from conftest import (brute_force_ideals, diamond_coloring_check, element_vertices,
                      random_colored_poset, transitive_reduction)
from test_grid import random_valid_grids
from ranktwo.algebras import ALPHA, BETA, Algebra, cartan_matrix
from ranktwo.build import fundamental_poset, semistandard_poset
from ranktwo.fixtures import FIXTURE_NAMES, load_fixture
from ranktwo.grid import Decomposition, GridPoset, decompose, total_order, validate_grid
from ranktwo.lattice import (IdealLattice, TooManyIdeals, Weights, _runs, check_structure,
                             join_irreducible_poset, order_ideals, piece_rank_stats,
                             projection_columns, structure_rows, weight_via_decomposition)
from ranktwo.poset import (EdgeColoredPoset, _components, _topological_order,
                           edge_color_isomorphism, find_rank_function, product,
                           vertex_color_isomorphism, VertexColoredPoset)
from ranktwo.projection import Projection
from ranktwo.record import fields, replace
from ranktwo.serialize import lattice_from_obj, lattice_to_obj
from ranktwo.tableaux import TableauLattice, tableau_lattice


class TestEnumeration:
    def test_chain_product_count(self):
        assert len(order_ideals(load_fixture("chain_product_2x3"))) == 10

    def test_catalan_count(self):
        assert len(order_ideals(load_fixture("catalan_p3"))) == 14

    def test_g2_22_count(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (2, 2)))
        assert len(lat) == 729

    def test_matches_brute_force_on_fixtures(self):
        for name in FIXTURE_NAMES:
            p = load_fixture(name)
            base = getattr(p, "base", p)
            lat = order_ideals(p)
            oracle = brute_force_ideals(base)
            assert {element_vertices(lat, i) for i in range(len(lat))} == oracle
            assert len(set(lat.elements)) == len(lat) == len(oracle)

    def test_elements_in_size_then_mask_order(self, rng):
        # under a grid's vertex order the masks a block reaches come in no
        # order; the walk sorts each block
        for p in _random_grids(rng):
            for lat in order_ideals(p), order_ideals(p.base):
                assert list(lat.elements) == sorted(lat.elements,
                                                    key=lambda m: (m.bit_count(), m))

    def test_resource_guard(self):
        with pytest.raises(TooManyIdeals):
            order_ideals(load_fixture("chain_product_2x3"), max_ideals=5)

    @pytest.mark.parametrize("build", [
        lambda: load_fixture("chain_product_2x3"),
        lambda: semistandard_poset(Algebra.G2, "beta_alpha", (0, 0)),
        lambda: semistandard_poset(Algebra.C2, "alpha_beta", (2, 1)),
        lambda: semistandard_poset(Algebra.G2, "beta_alpha", (2, 2))])
    def test_refusal_boundary_is_exact(self, build):
        p = build()
        n = len(order_ideals(p))
        assert len(order_ideals(p, max_ideals=n)) == n
        with pytest.raises(TooManyIdeals):
            order_ideals(p, max_ideals=n - 1)

    def test_refusal_does_not_build_the_next_block(self):
        # a 400-vertex antichain: 401 ideals of size <= 1, then 79,800 of
        # size 2, reached by 159,600 covers.  The walk refuses as soon as the
        # masks it has reached overflow the bound (about 1.5 MB traced at
        # its peak), not after collecting every cover of the block (18 MB).
        # Size 1 adds bits up to 399, which a one-byte column could not hold
        import tracemalloc

        p = VertexColoredPoset.build({v: ALPHA for v in range(400)}, ())
        p.linear_extension, p.lower_covers
        tracemalloc.start()
        try:
            with pytest.raises(TooManyIdeals):
                order_ideals(p, max_ideals=10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_long_chain_needs_no_recursion(self, monkeypatch):
        n = 3000
        chain = VertexColoredPoset.build({v: ALPHA for v in range(n)},
                                         [(v, v + 1) for v in range(n - 1)])

        def refuse(limit):
            raise AssertionError("order_ideals changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        lat = order_ideals(chain)
        assert len(lat) == n + 1
        # added bits past 255 keep their masks
        first, added = lat.first_lower
        assert lat.vertex_order == tuple(range(n))
        assert list(first) == list(added) == list(range(-1, n)) and added.typecode == "h"
        assert list(lat.elements) == [(1 << k) - 1 for k in range(n + 1)]

    def test_cardinality_is_a_rank_function(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (2, 1)))
        rf = find_rank_function(lat.edge_poset)
        assert rf is not None
        assert rf.length == len(lat.base)
        assert rf.ranks == tuple(enumerate(map(int.bit_count, lat.elements)))

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
        sizes = [lat.elements[j].bit_count() for j in comp]
        for i in comp:
            out[i] = (lat.elements[i].bit_count() - min(sizes), max(sizes) - min(sizes))
    return out


def columns(pairs):
    """Per-element pairs as the two columns the lattice statistics return."""
    pairs = list(pairs)
    return [x for x, _ in pairs], [y for _, y in pairs]


def _assert_statistics_match_edge_poset(lat):
    alpha = _stats_from_edge_poset(lat, ALPHA)
    beta = _stats_from_edge_poset(lat, BETA)
    for color, oracle in ((ALPHA, alpha), (BETA, beta)):
        assert lat.rank_stats(color) == columns(oracle[i] for i in range(len(lat)))
    for i in range(len(lat)):
        (ra, la), (rb, lb) = alpha[i], beta[i]
        assert lat.weights[i] == (2 * ra - la, 2 * rb - lb)


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
    index = {mask: i for i, mask in enumerate(lat.elements)}
    out = []
    for i, mask in enumerate(lat.elements):
        for b, v in enumerate(lat.vertex_order):
            if not (mask >> b) & 1 and mask | (1 << b) in index:
                out.append((i, index[mask | (1 << b)], color[v]))
    return tuple(out)


def reference_scan(p):
    """The vertex order and the masks of every ideal in (size, mask) order,
    by a scan along a linear extension: for each vertex v in turn, extend
    the ideals found so far by v added to every ideal that holds all lower
    covers of v, then sort."""
    p = getattr(p, "grid", p)  # a builder output is enumerated as its grid
    base = getattr(p, "base", p)
    order = total_order(p) if isinstance(p, GridPoset) else base.linear_extension
    bit = {v: 1 << b for b, v in enumerate(order)}
    ideals = [0]
    for v in base.linear_extension:
        low = sum(bit[u] for u in base.lower_covers[v])
        ideals += [mask | bit[v] for mask in ideals if mask & low == low]
    return order, sorted(ideals, key=lambda m: (m.bit_count(), m))


def reference_block_walk(lat):
    """Cover columns lower, upper and beta by the chain walk over the given
    elements, one size block at a time, each block indexed by a dict."""
    order, base, elements = lat.vertex_order, lat.base, lat.elements
    bit = {v: 1 << b for b, v in enumerate(order)}
    runs = []
    for b, v in enumerate(order):
        if b and v in base.lower_covers[order[b - 1]]:
            runs[-1] |= bit[v]
        else:
            runs.append(bit[v])
    lower = [sum(bit[u] for u in base.lower_covers[v]) for v in order]
    sizes = [m.bit_count() for m in elements]
    ends = list(itertools.accumulate(sizes.count(s) for s in range(len(order) + 1)))
    low, up, beta = [], [], []
    index = {0: 0}
    for mid, end in zip(ends, ends[1:]):
        below, index = index, dict(zip(elements[mid:end], range(mid, end)))
        for mask, i in below.items():
            for run in runs:
                free = run & ~mask
                if free:
                    b = free.bit_length() - 1
                    if lower[b] & mask == lower[b]:
                        low.append(i)
                        up.append(index[mask | 1 << b])
                        beta.append(int(base.color_of[order[b]] is BETA))
    return low, up, beta


def assert_walk_matches_scan(p):
    """order_ideals gives the scan's vertex order and elements and the block
    walk's cover columns over them."""
    lat = order_ideals(p)
    order, elements = reference_scan(p)
    assert lat.vertex_order == order
    assert list(lat.elements) == elements
    cov = lat.covers
    assert (list(cov.lower), list(cov.upper), list(cov.beta)) == reference_block_walk(lat)
    assert lat.rank_sizes == tuple(len(list(g)) for _, g in
                                   itertools.groupby(elements, int.bit_count))


class TestOneWalkMatchesScanAndBlockWalk:
    """The one walk that makes elements and covers together gives the
    linear-extension scan's elements and the covers the block walk finds
    over them, column by column."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        assert_walk_matches_scan(load_fixture(name))

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                assert_walk_matches_scan(semistandard_poset(algebra, order, lam))

    @pytest.mark.parametrize("order", ["beta_alpha", "alpha_beta"])
    def test_g2_44(self, order):
        assert_walk_matches_scan(semistandard_poset(Algebra.G2, order, (4, 4)))

    def test_random_posets(self, rng):
        for _ in range(40):
            assert_walk_matches_scan(random_colored_poset(rng, rng.randint(1, 10)))

    def test_random_grids(self, rng):
        for p in _random_grids(rng):
            assert_walk_matches_scan(p)


def reference_order_ideals(p):
    """rank_sizes, first, added and the cover columns lower, upper and beta
    by a walk on masks: vertex_order splits into runs in which each vertex
    is a lower cover of the one before, and each element is probed once per
    run, at its highest missing bit, which it gains iff that vertex's lower
    covers are in it; each size block is the sorted set of masks reached."""
    p = getattr(p, "grid", p)
    base = getattr(p, "base", p)
    order = total_order(p) if isinstance(p, GridPoset) else base.linear_extension
    bit = {v: 1 << b for b, v in enumerate(order)}
    runs = []
    for b, v in enumerate(order):
        if b and v in base.lower_covers[order[b - 1]]:
            runs[-1] |= bit[v]
        else:
            runs.append(bit[v])
    lower = [sum(bit[u] for u in base.lower_covers[v]) for v in order]
    sizes, first, added, low, up, beta = [], [-1], [-1], [], [], []
    block, start = [0], 0
    while block:
        sizes.append(len(block))
        reached = {}  # per mask reached, its first lower cover and added bit
        covers = []
        for i, mask in enumerate(block, start):
            for run in runs:
                free = run & ~mask
                if free:
                    b = free.bit_length() - 1
                    if lower[b] & mask == lower[b]:
                        reached.setdefault(mask | 1 << b, (i, b))
                        covers.append((i, mask | 1 << b, b))
        start += len(block)
        block = sorted(reached)
        index = dict(zip(block, range(start, start + len(block))))
        for mask in block:
            first.append(reached[mask][0])
            added.append(reached[mask][1])
        for i, mask, b in covers:
            low.append(i)
            up.append(index[mask])
            beta.append(int(base.color_of[order[b]] is BETA))
    return tuple(sizes), first, added, low, up, beta


def assert_walk_matches_mask_walk(p):
    lat = order_ideals(p)
    cov = lat.covers
    assert (lat.rank_sizes, *map(list, lat.first_lower),
            *map(list, (cov.lower, cov.upper, cov.beta))) == reference_order_ideals(p)


def stripped(p):
    """p without its chains: the vertex-colored poset, in a linear extension."""
    return getattr(getattr(p, "grid", p), "base", p)


class TestCodeWalkMatchesMaskWalk:
    """The walk on run-height codes gives the mask walk's sizes, first lower
    covers and cover columns, on grids and on their posets without chains,
    whose vertex order is a linear extension with runs going up."""

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                p = semistandard_poset(algebra, order, lam)
                assert_walk_matches_mask_walk(p)
                assert_walk_matches_mask_walk(stripped(p))

    @pytest.mark.parametrize("a", [4, 5, 6])
    def test_g2_large(self, a):
        for order in ("beta_alpha", "alpha_beta"):
            p = semistandard_poset(Algebra.G2, order, (a, a))
            assert_walk_matches_mask_walk(p)
            assert_walk_matches_mask_walk(stripped(p))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        p = load_fixture(name)
        assert_walk_matches_mask_walk(p)
        assert_walk_matches_mask_walk(stripped(p))

    def test_random_valid_grids(self, rng):
        for p in random_valid_grids(rng, 300):
            assert_walk_matches_mask_walk(p)
            assert_walk_matches_mask_walk(stripped(p))

    def test_antichain_and_chains_both_ways(self):
        antichain = VertexColoredPoset.build({v: ALPHA for v in range(9)}, ())
        colors = {v: (ALPHA, BETA)[v % 2] for v in range(9)}
        covers = [(v, v + 1) for v in range(8)]
        up = VertexColoredPoset.build(colors, covers)  # bottom first
        down = GridPoset.build(colors, covers, dict.fromkeys(range(9), 1))  # top first
        assert up.linear_extension == tuple(range(9))
        assert total_order(down) == tuple(range(8, -1, -1))
        for p in antichain, up, down:
            assert_walk_matches_mask_walk(p)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_complete_bipartite(self, k):
        """Two k-antichains with every cover between them, the lower on
        chain 2 and the upper on chain 1: runs of one vertex each."""
        colors = {v: (ALPHA, BETA)[v % 2] for v in range(2 * k)}
        covers = [(u, k + w) for u in range(k) for w in range(k)]
        p = GridPoset.build(colors, covers, {v: 1 + (v < k) for v in range(2 * k)})
        assert len(order_ideals(p)) == 2 ** (k + 1) - 1
        assert_walk_matches_mask_walk(p)
        assert_walk_matches_mask_walk(stripped(p))

    def test_random_sparse_posets(self, rng):
        """30 posets of 10-16 vertices, each pair related with probability
        0.15, then transitively reduced, under random chain indices."""
        for _ in range(30):
            n = rng.randint(10, 16)
            relations = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15}
            colors = {v: rng.choice((ALPHA, BETA)) for v in range(n)}
            p = GridPoset.build(colors, transitive_reduction(n, relations),
                                {v: rng.randint(1, 4) for v in range(n)})
            assert_walk_matches_mask_walk(p)
            assert_walk_matches_mask_walk(stripped(p))


def _random_grids(rng):
    """40 random posets under arbitrary chain indices, so that some "chains"
    hold incomparable vertices."""
    for _ in range(40):
        base = random_colored_poset(rng, rng.randint(1, 10))
        yield GridPoset(base, tuple((v, rng.randint(1, 4)) for v in base.ids))


def assert_walk_matches_reference(lat):
    """The walk gives the reference's covers."""
    assert tuple(lat.covers) == reference_covers(lat)


def test_no_lattice_keeps_a_whole_lattice_index():
    # the walk indexes one size block at a time, and the isomorphism checks
    # compare masks, so neither lattice type has a mask or code -> index map
    assert not hasattr(IdealLattice, "index_of")
    assert "index" not in {f.name for f in fields(TableauLattice)}


def grown_ideals(base):
    """Every order ideal as a mask over vertex ids (bit v for vertex v),
    grown one size at a time from the empty one by adding a vertex whose
    lower covers are in it: a second oracle, for posets too large for
    brute_force_ideals."""
    below = {v: sum(1 << u for u in base.lower_covers[v]) for v in base.ids}
    found, frontier = {0}, {0}
    while frontier:
        frontier = {s | 1 << v for s in frontier for v, m in below.items()
                    if not s >> v & 1 and s & m == m} - found
        found |= frontier
    return found


def id_masks(lat):
    """Each element's mask moved from vertex-order bits to vertex-id bits,
    bit by bit."""
    order = lat.vertex_order
    return {sum(1 << v for b, v in enumerate(order) if mask >> b & 1) for mask in lat.elements}


class TestMasksFromFirstLowerCovers:
    """The walk keeps each element's first lower cover and added bit, not
    its mask; the masks are carried from them only when read."""

    def test_pipeline_and_renders_derive_no_masks(self, tmp_path):
        from ranktwo.serialize import canonical_lattice, lattice_text, poset_to_dot
        from ranktwo.weyl import (character_from_lattice, rgf_from_lattice, rgf_product,
                                  verify_weyl_character)

        lam = (3, 3)
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", lam).grid)
        assert (len(lat), len(lat.covers)) == (4**6, 14_310)
        assert lat.weights[lat.top] == lam
        assert verify_weyl_character(Algebra.G2, lam, character_from_lattice(lat))
        assert rgf_from_lattice(lat) == rgf_product(Algebra.G2, lam)
        assert check_structure(lat, cartan_matrix(Algebra.G2))
        text = lattice_text(lat)
        poset_to_dot(lat)
        assert "elements" not in vars(lat)
        read = canonical_lattice(text, str(tmp_path / "l.json"))
        assert read == lat
        poset_to_dot(read)
        assert "elements" not in vars(read)

    @pytest.mark.parametrize("algebra", list(Algebra), ids=lambda g: g.value)
    def test_built_masks_are_the_ideals(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                lat = order_ideals(semistandard_poset(algebra, order, lam))
                if len(lat.base) <= 12:
                    assert {element_vertices(lat, i) for i in range(len(lat))} == \
                        brute_force_ideals(lat.base), (order, lam)
                oracle = grown_ideals(lat.base)
                assert len(lat.elements) == len(lat) == len(oracle), (order, lam)
                assert id_masks(lat) == oracle, (order, lam)
                assert list(lat.elements) == sorted(lat.elements,
                                                    key=lambda m: (m.bit_count(), m))

    def test_masks_past_bit_255(self):
        # a 398-vertex chain beside two free vertices: 399 * 4 ideals, with
        # added bits up to 399
        n = 398
        p = VertexColoredPoset.build({v: ALPHA if v % 3 else BETA for v in range(n + 2)},
                                     [(v, v + 1) for v in range(n - 1)])
        lat = order_ideals(p)
        assert len(lat) == (n + 1) * 4
        assert max(lat.first_lower[1]) == n + 1
        assert id_masks(lat) == grown_ideals(p)


class TestCoversMatchReference:
    """The chain walk, one size block at a time, gives the per-vertex scan's
    covers, in the same order."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        assert_walk_matches_reference(order_ideals(load_fixture(name)))

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                assert_walk_matches_reference(order_ideals(semistandard_poset(algebra, order, lam)))

    @pytest.mark.parametrize("order", ["beta_alpha", "alpha_beta"])
    def test_g2_44(self, order):
        lat = order_ideals(semistandard_poset(Algebra.G2, order, (4, 4)))
        assert len(lat) == 5 ** 6
        assert_walk_matches_reference(lat)

    def test_random_posets(self, rng):
        # not grids: the vertex order is the poset's linear extension
        for _ in range(40):
            p = random_colored_poset(rng, rng.randint(1, 10))
            lat = order_ideals(p)
            assert lat.vertex_order == p.linear_extension
            assert_walk_matches_reference(lat)

    def test_single_element(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (0, 0)))
        assert len(lat) == 1
        assert_walk_matches_reference(lat)
        assert len(lat.covers) == 0 and list(lat.weights) == [(0, 0)]

    def test_random_grids(self, rng):
        broken_chains = 0
        for p in _random_grids(rng):
            broken_chains += any("is not a chain" in v for v in validate_grid(p))
            lat = order_ideals(p)
            assert_walk_matches_reference(lat)
            _assert_statistics_match_edge_poset(lat)
            ideals = brute_force_ideals(p.base)
            color = p.base.color_of
            expected = {(s, s | {v}, color[v]) for s in ideals for v in p.base.ids
                        if v not in s and s | {v} in ideals}
            assert {(element_vertices(lat, i), element_vertices(lat, j), c)
                    for i, j, c in lat.covers} == expected
        assert broken_chains > 0


def reference_carries_covers(lat, masks, lower, upper, beta, flip=0):
    """Oracle: the masks looked up as element indices, which must be onto,
    and the carried covers compared with the lattice's as sorted keys
    (i * n + j) * 2 + beta."""
    index = {mask: k for k, mask in enumerate(lat.elements)}
    phi = [index.get(mask, -1) for mask in masks]
    n = len(lat)
    if sorted(phi) != list(range(n)):
        return False

    def keys(lower, upper, beta):
        return sorted((i * n + j) * 2 + b for i, j, b in zip(lower, upper, beta))

    cov = lat.covers
    return keys(cov.lower, cov.upper, cov.beta) == keys(
        map(phi.__getitem__, lower), map(phi.__getitem__, upper), (b ^ flip for b in beta))


def renumbered(lat, rng):
    """lat under a shuffled numbering, as another lattice with the masks of
    its elements: (masks, lower, upper, beta), the covers in lat's order."""
    order = list(range(len(lat)))
    rng.shuffle(order)  # element k of the other lattice is lat's order[k]
    where = [0] * len(lat)
    for k, e in enumerate(order):
        where[e] = k
    cov = lat.covers
    return ([lat.elements[e] for e in order], [where[i] for i in cov.lower],
            [where[j] for j in cov.upper], bytearray(cov.beta))


def covers_mutations(masks, lower, upper, beta):
    """The other lattice untampered, then under each mutation of its middle
    cover (i, j): its beta byte flipped, the masks of i and j swapped, its
    upper end moved onto an element that does not cover i (none when every
    other element does), the cover dropped, and the cover before it
    replaced by a copy of it."""
    yield "untampered", masks, lower, upper, beta
    if not lower:
        return
    k = len(lower) // 2
    i, j = lower[k], upper[k]
    flipped = beta[:]
    flipped[k] ^= 1
    yield "beta flipped", masks, lower, upper, flipped
    swapped = masks[:]
    swapped[i], swapped[j] = masks[j], masks[i]
    yield "masks swapped", swapped, lower, upper, beta
    covered = {jj for ii, jj in zip(lower, upper) if ii == i}
    other = next((e for e in range(len(masks)) if e != i and e not in covered), None)
    if other is not None:
        moved = upper[:]
        moved[k] = other
        yield "upper moved", masks, lower, moved, beta
    yield "dropped", masks, *(column[:k] + column[k + 1:] for column in (lower, upper, beta))
    if k:
        yield "duplicated", masks, *(column[:k - 1] + column[k:k + 1] + column[k:]
                                     for column in (lower, upper, beta))


class TestCarriesCoversMatchesReference:
    """The one-vertex-step check on masks agrees with the sorted cover keys
    on every built lattice, untampered and under each mutation, with the
    colors as they are and flipped; with them as they are, the untampered
    numbering passes and every mutation fails."""

    @staticmethod
    def assert_agrees(lat, rng):
        for name, masks, lower, upper, beta in covers_mutations(*renumbered(lat, rng)):
            assert lat.carries_covers(masks, lower, upper, beta) is (name == "untampered")
            for flip in (0, 1):
                assert lat.carries_covers(masks, lower, upper, beta, flip) is \
                    reference_carries_covers(lat, masks, lower, upper, beta, flip), (name, flip)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra, rng):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                self.assert_agrees(order_ideals(semistandard_poset(algebra, order, lam)), rng)

    @pytest.mark.parametrize("order", ["beta_alpha", "alpha_beta"])
    def test_g2_44(self, order, rng):
        self.assert_agrees(order_ideals(semistandard_poset(Algebra.G2, order, (4, 4))), rng)


def test_carries_covers_refuses_a_zero_step():
    # one beta vertex: the cover 0 -> 1 sent to two equal masks adds no
    # vertex; its step 0 has bit_length 0, and beta_bit[-1] would wrap
    # onto the one vertex, whose color the cover has
    lat = order_ideals(VertexColoredPoset.build({0: BETA}, ()))
    assert lat.carries_covers([0, 1], [0], [1], b"\x01")
    for mask in (0, 1):
        assert not lat.carries_covers([mask, mask], [0], [1], b"\x01")


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
        assert type(cov.beta) is bytes and set(cov.beta) <= {0, 1}
        # 4 bytes per index, no int object per element index
        for column in cov.lower, cov.upper:
            assert type(column) is array and column.typecode == "I"

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
        assert tuple(lat.covers) == ()


class TestWeights:
    def test_first_fundamental_top_weight(self):
        lat = order_ideals(fundamental_poset(Algebra.A2, "alpha_fund"))
        assert lat.weights[lat.top] == (1, 0)
        assert list(lat.weights) == [(0, -1), (-1, 1), (1, 0)]

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_extreme_weights(self, algebra):
        for lam in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
            assert lat.weights[lat.top] == lam
            assert lat.weights[0] == lowest_weight(algebra, lam)

    def test_component_bounds_column_widths(self):
        # a bound is a size, at most n: a byte an entry below 256 vertices,
        # 4 bytes from 256 on, where a byte would wrap
        chain = VertexColoredPoset.build({v: (ALPHA, BETA)[v // 200] for v in range(300)},
                                         [(v, v + 1) for v in range(299)])
        cases = [(order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (2, 1))), "B"),
                 (order_ideals(chain), "I")]
        for lat, typecode in cases:
            lat.weights
            for lo, hi in lat._component_bounds:
                assert all(type(c) is (bytearray if typecode == "B" else array)
                           and memoryview(c).format == typecode and len(c) == len(lat)
                           for c in (lo, hi))
            for color in (ALPHA, BETA):
                rho, length = lat.rank_stats(color)
                assert type(rho) is list and type(length) is list
        # the 100 beta vertices sit above the 200 alpha ones: elements 0..200
        # form one alpha component and 200..300 one beta component
        (alo, ahi), (blo, bhi) = lat._component_bounds
        assert list(alo) == [0] * 201 + list(range(201, 301))
        assert list(ahi) == [200] * 201 + list(range(201, 301))
        assert list(blo) == list(range(200)) + [200] * 101
        assert list(bhi) == list(range(200)) + [300] * 101
        assert lat.weights[lat.top] == (0, 100) and lat.weights[0] == (-200, 0)

    def test_rank_stats_consistency(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)))
        (ra, la), (rb, lb) = lat.rank_stats(ALPHA), lat.rank_stats(BETA)
        for i in range(len(lat)):
            assert 0 <= ra[i] <= la[i] and 0 <= rb[i] <= lb[i]
            assert lat.weights[i] == (2 * ra[i] - la[i], 2 * rb[i] - lb[i])

    def test_fundamental_edges_shift_by_simple_roots(self):
        for algebra in Algebra:
            rows = {ALPHA: cartan_matrix(algebra)[0], BETA: cartan_matrix(algebra)[1]}
            for which in ("alpha_fund", "beta_fund"):
                lat = order_ideals(fundamental_poset(algebra, which))
                for i, j, c in lat.covers:
                    (p1, q1), (p2, q2) = lat.weights[i], lat.weights[j]
                    assert (p2 - p1, q2 - q1) == rows[c]


class TestWeightsColumns:
    """Weights hold two columns raised by the vertex count n and read as
    (m_a, m_b) pairs."""

    @staticmethod
    def _lattice():
        return order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (2, 1)))

    def test_pair_indexing(self):
        lat = self._lattice()
        w, n = lat.weights, len(lat.vertex_order)
        assert w.offset == n
        assert w[lat.top] == (2, 1) and type(w[lat.top]) is tuple
        assert w[0] == lowest_weight(Algebra.C2, (2, 1))
        assert all(w[i] == (w.alpha[i] - n, w.beta[i] - n) for i in range(len(lat)))

    def test_columns_are_raised_bytes(self):
        w = self._lattice().weights
        assert type(w.alpha) is bytes and type(w.beta) is bytes

    def test_iteration_yields_pairs(self):
        w = self._lattice().weights
        pairs = list(w)
        assert all(type(p) is tuple and len(p) == 2 and all(type(x) is int for x in p)
                   for p in pairs)
        assert pairs == [w[i] for i in range(len(w))]

    def test_len(self):
        lat = self._lattice()
        assert len(lat.weights) == len(lat.weights.alpha) == len(lat.weights.beta) == len(lat)

    def test_equality_compares_columns(self):
        w = self._lattice().weights
        assert w == Weights(w.alpha[:], w.beta[:], w.offset)
        for k in (0, len(w) // 2, len(w) - 1):
            for column in ("alpha", "beta"):
                alpha, beta = bytearray(w.alpha), bytearray(w.beta)
                (alpha if column == "alpha" else beta)[k] += 1
                assert w != Weights(alpha, beta, w.offset), (k, column)
                assert w != Weights(*([x - w.offset for x in c] for c in (alpha, beta)))
        assert w != Weights(w.alpha, w.beta, w.offset + 1)
        assert w != Weights(w.alpha[:-1], w.beta[:-1], w.offset)
        assert w != tuple(w) and w != list(w)

    def test_equality_across_representations(self):
        # the same weights as bytes, 2-byte arrays, views, and value lists,
        # raised by any offset, all compare equal both ways
        w = self._lattice().weights
        values = [list(map(sub, c, itertools.repeat(w.offset))) for c in (w.alpha, w.beta)]
        forms = [w, Weights(*values),
                 Weights(*(array("H", list(c)) for c in (w.alpha, w.beta)), w.offset),
                 Weights(*(memoryview(c) for c in (w.alpha, w.beta)), w.offset),
                 Weights(*(array("I", [x + 1000 for x in c]) for c in values), 1000),
                 Weights(*(memoryview(array("H", [x + 7 for x in c])) for c in values), 7)]
        for u, v in itertools.product(forms, repeat=2):
            assert u == v and not u != v
            assert list(u) == list(v) == list(w)


def vertex_sum_weights(lat, algebra, lam):
    """Oracle: per element, the lowest weight plus one Cartan row per vertex
    of its ideal, the rows counted by color off its mask."""
    (ra, rb), (x, y) = cartan_matrix(algebra), lowest_weight(algebra, lam)
    color = lat.base.color_of
    beta = sum(1 << b for b, v in enumerate(lat.vertex_order) if color[v] is BETA)
    out = []
    for mask in lat.elements:
        nb = (mask & beta).bit_count()
        na = mask.bit_count() - nb
        out.append((x + na * ra[0] + nb * rb[0], y + na * ra[1] + nb * rb[1]))
    return out


def component_weights(lat):
    """Oracle: per element and color, 2 size - lo - hi, with lo and hi the
    least and greatest sizes in its component along the covers of that
    color, found by a search."""
    sizes = [mask.bit_count() for mask in lat.elements]
    out = [[0, 0] for _ in sizes]
    for color in (0, 1):
        near = [[] for _ in sizes]
        for i, j, b in zip(lat.covers.lower, lat.covers.upper, lat.covers.beta):
            if b == color:
                near[i].append(j)
                near[j].append(i)
        seen = [False] * len(sizes)
        for start in range(len(sizes)):
            if not seen[start]:
                seen[start], component = True, [start]
                for u in component:
                    for v in near[u]:
                        if not seen[v]:
                            seen[v] = True
                            component.append(v)
                lo, hi = min(sizes[u] for u in component), max(sizes[u] for u in component)
                for u in component:
                    out[u][color] = 2 * sizes[u] - lo - hi
    return [tuple(w) for w in out]


def assert_widths(lat, weights):
    """The weights read as `weights`, kept raised by the vertex count n in
    bytes while 2n < 256, else 2 bytes, or 4 from 2n = 65,536; `added` in one
    signed byte up to 128 vertices, else 2, or 4 past 32,768."""
    n, w = len(lat.vertex_order), lat.weights
    assert w.offset == n and list(w) == weights
    assert all(w.alpha[i] - n == a and w.beta[i] - n == b for i, (a, b) in enumerate(weights))
    for column in w.alpha, w.beta:
        assert type(column) is bytes if 2 * n < 256 else \
            column.typecode == ("H" if 2 * n < 65_536 else "I")
    assert lat.first_lower[1].typecode == ("b" if n <= 128 else "h" if n <= 32_768 else "i")


def assert_columns(lat, weights):
    """assert_widths, and `added` holds -1 for the bottom, then each
    element's bit over its first lower cover."""
    assert_widths(lat, weights)
    first, added = lat.first_lower
    masks = lat.elements
    assert list(added) == [-1] + [(masks[j] ^ masks[i]).bit_length() - 1
                                  for j, i in enumerate(first) if j]


class TestColumnWidths:
    """The weight columns and `added` in their narrowest widths, equal to
    the oracles on both sides of each width boundary."""

    @pytest.mark.parametrize("algebra", list(Algebra), ids=lambda g: g.value)
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                lat = order_ideals(semistandard_poset(algebra, order, lam))
                weights = vertex_sum_weights(lat, algebra, lam)
                assert component_weights(lat) == weights, (order, lam)
                assert_columns(lat, weights)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        lat = order_ideals(load_fixture(name))
        assert_columns(lat, component_weights(lat))

    @pytest.mark.parametrize("order", ["beta_alpha", "alpha_beta"])
    def test_g2_66(self, order):
        lat = order_ideals(semistandard_poset(Algebra.G2, order, (6, 6)))
        assert len(lat.vertex_order) == 96 and len(lat) == 7**6
        assert_columns(lat, vertex_sum_weights(lat, Algebra.G2, (6, 6)))

    @pytest.mark.parametrize("lam, n, raw", [
        ((63, 64), 127, (63, 191)), ((64, 64), 128, (64, 192)),  # 2n = 254 | 256
        ((127, 0), 127, (0, 254)), ((128, 0), 128, (0, 256)),  # raw values 0..2n reached
        ((64, 65), 129, (64, 194))])  # bit 128 added
    def test_width_boundaries(self, lam, n, raw):
        lat = order_ideals(semistandard_poset(Algebra.A1A1, "beta_alpha", lam))
        assert len(lat.vertex_order) == n and max(lat.first_lower[1]) == n - 1
        assert_columns(lat, vertex_sum_weights(lat, Algebra.A1A1, lam))
        w = lat.weights
        assert (min(w.alpha + w.beta), max(w.alpha + w.beta)) == raw

    @pytest.mark.parametrize("n", [32_767, 32_768, 32_769])
    def test_long_chain_boundaries(self, n):
        # 2n = 65,536 takes 4-byte weights, bit 32,768 a 4-byte added
        chain = VertexColoredPoset.build({v: ALPHA for v in range(n)},
                                         [(v, v + 1) for v in range(n - 1)])
        lat = order_ideals(chain)
        assert_widths(lat, [(2 * k - n, 0) for k in range(n + 1)])
        assert list(lat.first_lower[1]) == list(range(-1, n))

    def test_columns_hold_a_quarter_less(self):
        """The walk, the covers and the weights at G2 (5,5) hold at most 54 B
        per ideal under tracemalloc (49.9 B measured on Python 3.11; 68.0 B
        with the weights as two int lists and 4-byte added bits)."""
        import tracemalloc

        sp = semistandard_poset(Algebra.G2, "beta_alpha", (5, 5))
        order_ideals(sp)  # the poset's own cached orders and covers, made once
        tracemalloc.start()
        try:
            lat = order_ideals(sp)
            lat.covers, lat.weights
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(lat) == 6**6 and held / len(lat) <= 54
        assert not any(type(c) is list for c in (lat.weights.alpha, lat.weights.beta))


# order_ideals -> covers -> weights -> character -> structure on G2 (5,5),
# printing the growth of the process's peak RSS (KB) over the built poset.
# The peak is VmHWM, which exec starts afresh: ru_maxrss would carry over
# the peak of the process that spawned this one, so under a test runner
# larger than the whole pipeline it would read a growth of 0.
_PIPELINE_GROWTH = """
from ranktwo.algebras import Algebra, cartan_matrix
from ranktwo.build import semistandard_poset
from ranktwo.lattice import check_structure, order_ideals
from ranktwo.weyl import character_from_lattice

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

sp = semistandard_poset(Algebra.G2, "beta_alpha", (5, 5))
before = peak_kb()
lat = order_ideals(sp)
lat.covers, lat.weights
character_from_lattice(lat)
assert check_structure(lat, cartan_matrix(Algebra.G2))
print(peak_kb() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_lattice_core_memory():
    """The lattice core holds no mask and no tuple per element or per
    cover, 4-byte cover indices, first lower covers and component bounds,
    and shared weight ints: 46,656 ideals and 196,700 covers grow the peak
    by at most 4.5 MB (3.8-4.1 MB measured on Python 3.10-3.13; 5.6-5.9 MB
    with a tuple of every mask, 9.0-9.1 MB with one int object per element
    index in list cover columns and a scan before the covers walk,
    11.9-12.1 MB with two int objects per index and the bounds as lists,
    16.6-17.0 MB with a tuple per weight as well)."""
    import ranktwo

    src = os.path.dirname(os.path.dirname(ranktwo.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _PIPELINE_GROWTH], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) <= 4.5 * 1024


def infer_structure_matrix(lattice):
    """The unique matrix satisfied by the weight shifts, or None.

    None signals either disagreeing shifts within one color class or a
    color with no edges at all (the matrix would not be unique).
    """
    rows = structure_rows(lattice)
    return None if rows is None or None in rows else (rows[0], rows[1])


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


def reference_structure_rows(lattice):
    """structure_rows by its definition: the shift of every cover against
    the first cover of its color."""
    wa, wb, cov = lattice.weights.alpha, lattice.weights.beta, lattice.covers
    rows = [None, None]
    for b in (0, 1):
        k = cov.beta.find(b)
        if k >= 0:
            i, j = cov.lower[k], cov.upper[k]
            rows[b] = (wa[j] - wa[i], wb[j] - wb[i])
    for i, j, b in zip(cov.lower, cov.upper, cov.beta):
        if (wa[j] - wa[i], wb[j] - wb[i]) != rows[b]:
            return None
    return rows


def with_weights(lat, alpha, beta, offset=0):
    """A copy of lat, sharing its columns, whose cached weights are given."""
    out = replace(lat)
    vars(out)["weights"] = Weights(alpha, beta, offset)
    return out


class TestStructureRowsMatchReference:
    """The walk along the first lower covers gives the rows the scan of
    every cover gives, and both refuse weights changed in any one place."""

    @staticmethod
    def assert_same(p):
        lat = order_ideals(p)
        rows = structure_rows(lat)
        assert rows == reference_structure_rows(lat), p
        return rows

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                p = semistandard_poset(algebra, order, lam)
                assert self.assert_same(p) is not None
                assert self.assert_same(stripped(p)) is not None

    def test_g2_44(self):
        for order in ("beta_alpha", "alpha_beta"):
            p = semistandard_poset(Algebra.G2, order, (4, 4))
            assert self.assert_same(p) == list(cartan_matrix(Algebra.G2))
            assert self.assert_same(stripped(p)) == list(cartan_matrix(Algebra.G2))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        p = load_fixture(name)
        for q in p, stripped(p):
            assert (self.assert_same(q) is None) == (name == "nonsplitting_grid")

    def test_random_valid_grids(self, rng):
        for p in random_valid_grids(rng, 300):
            self.assert_same(p)
            self.assert_same(stripped(p))

    def test_small_lattices(self):
        for color in ALPHA, BETA:
            chain = VertexColoredPoset.build({0: color, 1: color, 2: color}, [(0, 1), (1, 2)])
            assert self.assert_same(chain)[color is ALPHA] is None
        assert self.assert_same(VertexColoredPoset.build({}, ())) == [None, None]

    def test_lattice_read_back(self):
        p = semistandard_poset(Algebra.C2, "alpha_beta", (2, 1))
        lat = lattice_from_obj(lattice_to_obj(order_ideals(p)))
        assert structure_rows(lat) == reference_structure_rows(lat) == \
            list(cartan_matrix(Algebra.C2))

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_one_changed_weight_is_refused(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            lat = order_ideals(semistandard_poset(algebra, order, (2, 2)))
            w = lat.weights
            for k in 0, len(lat) // 2, lat.top:
                for column in "alpha", "beta":
                    alpha, beta = list(w.alpha), list(w.beta)
                    (alpha if column == "alpha" else beta)[k] += 1
                    changed = with_weights(lat, alpha, beta, w.offset)
                    assert structure_rows(changed) is None, (order, k, column)
                    assert reference_structure_rows(changed) is None, (order, k, column)

    @pytest.mark.parametrize("matrix", [((1, 0), (0, 1)), ((2, -3), (-1, 2)),
                                        ((5, 7), (-2, 0)), ((2, -1), (-3, 3))])
    def test_weights_of_another_matrix_give_that_matrix(self, matrix):
        for algebra in Algebra:
            for order in ("beta_alpha", "alpha_beta"):
                lat = order_ideals(semistandard_poset(algebra, order, (2, 1)))
                color = lat.base.color_of
                (a0, b0), alpha, beta = lat.weights[0], [], []
                for i in range(len(lat)):
                    rows = [matrix[color[v] is BETA] for v in element_vertices(lat, i)]
                    alpha.append(a0 + sum(r[0] for r in rows))
                    beta.append(b0 + sum(r[1] for r in rows))
                changed = with_weights(lat, alpha, beta)
                assert structure_rows(changed) == reference_structure_rows(changed) == \
                    list(matrix)
                assert not check_structure(changed, cartan_matrix(algebra))


class TestDecompositionStatistics:
    def test_weight_additivity_c2_22(self):
        sp = semistandard_poset(Algebra.C2, "beta_alpha", (2, 2))
        lat = order_ideals(sp)
        dec = decompose(sp.grid)
        assert weight_via_decomposition(lat, projection_columns(lat, dec)) == lat.weights

    def test_empty_ideal_sums_piece_minima(self):
        sp = semistandard_poset(Algebra.C2, "beta_alpha", (2, 2))
        lat = order_ideals(sp)
        dec = decompose(sp.grid)
        pieces_bottom = (0, 0)
        for piece in dec.pieces:
            sub = order_ideals(piece)
            w = sub.weights[0]
            pieces_bottom = (pieces_bottom[0] + w[0], pieces_bottom[1] + w[1])
        assert weight_via_decomposition(lat, projection_columns(lat, dec))[0] == pieces_bottom
        assert lat.weights[0] == pieces_bottom

    def test_rank_additivity_g2_11(self):
        sp = semistandard_poset(Algebra.G2, "beta_alpha", (1, 1))
        lat = order_ideals(sp)
        dec = decompose(sp.grid)
        projection = projection_columns(lat, dec)
        for color in (ALPHA, BETA):
            assert lat.rank_stats(color) == piece_rank_stats(lat, projection, color)


def reference_piece_elements(lattice, i, dec):
    """Oracle: the element's vertex set matched against each piece's vertex order."""
    s = element_vertices(lattice, i)
    out = []
    for sub in dec.lattices:
        mask = 0
        for b, v in enumerate(sub.vertex_order):
            if v in s:
                mask |= 1 << b
        out.append((sub, sub.elements.index(mask)))
    return out


def reference_projection_columns(lattice, dec):
    """Oracle: the mask projection, per piece each element's mask and-ed with
    the piece's bits and looked up among the piece lattice's masks, both
    carried bit by bit into the lattice's vertex order."""
    bit = {v: 1 << b for b, v in enumerate(lattice.vertex_order)}
    out = []
    for sub in dec.lattices:
        masks = [sum(bit[v] for b, v in enumerate(sub.vertex_order) if m >> b & 1)
                 for m in sub.elements]
        index, bits = {m: k for k, m in enumerate(masks)}, masks[-1]
        out.append((sub, [index[mask & bits] for mask in lattice.elements]))
    return out


def assert_projection_matches_masks(lattice, dec):
    projection = projection_columns(lattice, dec)
    assert [(sub, list(column)) for sub, column in projection] == \
        reference_projection_columns(lattice, dec)
    return projection


def two_chains(k, link):
    """Chain 1 of a_0 < ... < a_(k-1) and chain 2 of b_0 < ... < b_(k-1),
    ids 0..2k-1, with b_(k-1) covered by a_link."""
    colors = {v: ALPHA if v < k else BETA for v in range(2 * k)}
    covers = [(v, v + 1) for v in range(k - 1)] + [(k + v, k + v + 1) for v in range(k - 1)]
    return GridPoset.build(colors, covers + [(2 * k - 1, link)],
                           {v: 1 + (v >= k) for v in range(2 * k)})


def reference_rank_stats(lattice, i, color):
    """Oracle: (rho, length) of element i within its component of one color."""
    lo, hi = lattice._component_bounds[color is BETA]
    return lattice.elements[i].bit_count() - lo[i], hi[i] - lo[i]


def reference_weight_via_decomposition(lattice, i, dec):
    """Oracle: the sum of piece-lattice weights of element i's intersections."""
    total = (0, 0)
    for sub, j in reference_piece_elements(lattice, i, dec):
        w = sub.weights[j]
        total = (total[0] + w[0], total[1] + w[1])
    return total


def reference_piece_rank_stats(lattice, i, dec, color):
    """Oracle: (sum of piece rho, sum of piece lengths) of element i, one color."""
    rho = length = 0
    for sub, j in reference_piece_elements(lattice, i, dec):
        r, n = reference_rank_stats(sub, j, color)
        rho, length = rho + r, length + n
    return rho, length


def battery_grids(algebra):
    """The grids of every built poset at weights up to (3,3) with a+b >= 2, in both orders."""
    for order in ("beta_alpha", "alpha_beta"):
        for lam in itertools.product(range(4), repeat=2):
            if sum(lam) >= 2:
                yield semistandard_poset(algebra, order, lam).grid


class TestColumnsMatchReference:
    """The whole-lattice statistics equal the per-element oracles."""

    @staticmethod
    def assert_matches_reference(grid):
        lat, dec = order_ideals(grid), decompose(grid)
        projection = projection_columns(lat, dec)
        elements = range(len(lat))
        assert weight_via_decomposition(lat, projection) == Weights(*columns(
            reference_weight_via_decomposition(lat, i, dec) for i in elements))
        for color in (ALPHA, BETA):
            assert lat.rank_stats(color) == columns(
                reference_rank_stats(lat, i, color) for i in elements)
            assert piece_rank_stats(lat, projection, color) == columns(
                reference_piece_rank_stats(lat, i, dec, color) for i in elements)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_battery_lattices(self, algebra):
        for grid in battery_grids(algebra):
            self.assert_matches_reference(grid)

    def test_random_grids(self, rng):
        for p in _random_grids(rng):
            self.assert_matches_reference(p)


class TestPieceProjection:
    """The projection columns give the vertex-set projection."""

    @staticmethod
    def assert_matches_reference(grid):
        lat, dec = order_ideals(grid), decompose(grid)
        reference = [reference_piece_elements(lat, i, dec) for i in range(len(lat))]
        assert [(sub, list(column)) for sub, column in projection_columns(lat, dec)] == [
            (sub, [pieces[k][1] for pieces in reference]) for k, sub in enumerate(dec.lattices)]

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_battery_lattices(self, algebra):
        for grid in battery_grids(algebra):
            self.assert_matches_reference(grid)

    def test_random_grids(self, rng):
        for p in _random_grids(rng):
            self.assert_matches_reference(p)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_every_weight_to_44(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(5), repeat=2):
                sp = semistandard_poset(algebra, order, lam)
                assert_projection_matches_masks(order_ideals(sp), sp.decomposition)

    @pytest.mark.parametrize("order", ["beta_alpha", "alpha_beta"])
    def test_g2_66(self, order):
        sp = semistandard_poset(Algebra.G2, order, (6, 6))
        projection = assert_projection_matches_masks(order_ideals(sp), sp.decomposition)
        assert {type(column) for _, column in projection} == {bytes}

    def test_fixtures(self):
        grids = [p for p in map(load_fixture, FIXTURE_NAMES) if isinstance(p, GridPoset)]
        assert len(grids) == 2
        for p in grids:
            assert_projection_matches_masks(order_ideals(p), decompose(p))

    def test_random_valid_grids(self, rng):
        counts = set()
        for p in random_valid_grids(rng, 300):
            dec = decompose(p)
            counts.add(min(len(dec), 2))
            assert_projection_matches_masks(order_ideals(p), dec)
        assert counts == {1, 2}

    def test_one_chain_of_300_vertices(self):
        """A1+A1 (300,0) is one chain of 300 one-vertex pieces, so each
        height takes two bytes; every piece column is still bytes."""
        sp = semistandard_poset(Algebra.A1A1, "beta_alpha", (300, 0))
        lat = order_ideals(sp)
        assert [len(run) for run in _runs(lat.vertex_order, lat.base.lower_covers)] == [300]
        projection = assert_projection_matches_masks(lat, sp.decomposition)
        assert {type(column) for _, column in projection} == {bytes}
        assert weight_via_decomposition(lat, projection) == lat.weights

    def test_a_piece_of_more_than_256_elements(self):
        """Two chains of 150 stacked into one run of 300 are indecomposable,
        with 301 ideals: heights, keys and column take two bytes an element."""
        p = two_chains(150, 0)
        lat, dec = order_ideals(p), decompose(p)
        assert len(dec) == 1 and len(lat) == 301
        ((_, column),) = assert_projection_matches_masks(lat, dec)
        assert column.itemsize == 2
        assert weight_via_decomposition(lat, [(dec.lattices[0], column)]) == lat.weights

    def test_keys_wider_than_their_piece_lattice(self):
        """Two chains of 16 joined at a_1 are two runs, so as one piece they
        have 17 * 17 = 289 keys, past a byte, and 49 ideals, within one: the
        keys take two bytes and the column one."""
        p = two_chains(16, 1)
        lat = order_ideals(p)
        assert [len(run) for run in _runs(lat.vertex_order, lat.base.lower_covers)] == [16, 16]
        dec = Decomposition((p,), (None,), p.total_order)
        ((_, column),) = assert_projection_matches_masks(lat, dec)
        assert len(lat) == 49 and type(column) is bytes

    def test_a_piece_in_two_segments_of_a_run_is_refused(self):
        sp = semistandard_poset(Algebra.A1A1, "beta_alpha", (3, 0))
        grid, (low, mid, high) = sp.grid, sp.grid.total_order[::-1]
        dec = Decomposition((grid.restrict({low, high}), grid.restrict({mid})), (None, None),
                            grid.total_order)
        with pytest.raises(ValueError, match="two segments"):
            projection_columns(order_ideals(sp), dec)

    def test_decomposition_of_another_grid_is_refused(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (2, 2)))
        dec = decompose(semistandard_poset(Algebra.C2, "beta_alpha", (2, 2)).grid)
        with pytest.raises(ValueError, match="another vertex order"):
            projection_columns(lat, dec)


def reference_piece_sums(lattice, projection):
    """Oracle: the per-piece loops the packed sums replaced, one pass per
    piece and column, each piece reading its own lattice's weights and
    rank_stats: ((m_a, m_b), (rho, length) of alpha, of beta)."""
    zero = [0] * len(lattice)
    ma, mb, stats = zero, zero, []
    for piece, column in projection:
        ma = list(map(add, ma, (piece.weights[j][0] for j in column)))
        mb = list(map(add, mb, (piece.weights[j][1] for j in column)))
    for color in (ALPHA, BETA):
        rho = length = zero
        for piece, column in projection:
            piece_rho, piece_length = piece.rank_stats(color)
            rho = list(map(add, rho, map(piece_rho.__getitem__, column)))
            length = list(map(add, length, map(piece_length.__getitem__, column)))
        stats.append((rho, length))
    return Weights(ma, mb), stats


def assert_packed_sums_match(lattice, dec):
    projection = projection_columns(lattice, dec)
    weights, stats = reference_piece_sums(lattice, projection)
    assert weight_via_decomposition(lattice, projection) == weights
    for color, expected in zip((ALPHA, BETA), stats):
        assert piece_rank_stats(lattice, projection, color) == expected
    # a plain list is summed the same way, with nothing kept
    assert weight_via_decomposition(lattice, list(projection)) == weights
    assert piece_rank_stats(lattice, list(projection), BETA) == stats[1]


class TestPackedPieceSums:
    """weight_via_decomposition and piece_rank_stats read one packed sum per
    projection and equal the per-piece loops."""

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                sp = semistandard_poset(algebra, order, lam)
                lat = order_ideals(sp)
                assert len(sp.decomposition) == sum(lam)  # 0 and 1 pieces included
                assert_packed_sums_match(lat, sp.decomposition)
                assert weight_via_decomposition(
                    lat, projection_columns(lat, sp.decomposition)) == lat.weights

    @pytest.mark.parametrize("order", ["beta_alpha", "alpha_beta"])
    def test_g2_44(self, order):
        sp = semistandard_poset(Algebra.G2, order, (4, 4))
        assert_packed_sums_match(order_ideals(sp), sp.decomposition)

    def test_random_valid_grids(self, rng):
        counts = set()
        for p in random_valid_grids(rng, 300):
            dec = decompose(p)
            counts.add(min(len(dec), 2))
            assert_packed_sums_match(order_ideals(p), dec)
        assert counts == {1, 2}

    def test_no_piece_gives_distinct_zero_columns(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)))
        w = weight_via_decomposition(lat, [])
        assert w.alpha == w.beta == [0] * len(lat) and w.alpha is not w.beta
        rho, length = piece_rank_stats(lat, [], ALPHA)
        assert rho == length == [0] * len(lat) and rho is not length

    def test_fresh_columns_on_every_call(self):
        sp = semistandard_poset(Algebra.G2, "beta_alpha", (2, 1))
        lat = order_ideals(sp)
        projection = projection_columns(lat, sp.decomposition)
        rho, length = piece_rank_stats(lat, projection, ALPHA)
        expected = list(rho)
        rho[-1] += 1  # as piece_rank_stats_off_by_one does
        again = piece_rank_stats(lat, projection, ALPHA)
        assert again[0] == expected and again[0] is not rho and again[1] is not length
        # the weight columns are views of the packed sums, which no reader can change
        w, v = weight_via_decomposition(lat, projection), weight_via_decomposition(lat, projection)
        assert w == v
        for column in w.alpha, w.beta:
            with pytest.raises(TypeError):
                column[-1] += 1

    def test_each_piece_is_added_once_per_projection(self, monkeypatch):
        sp = semistandard_poset(Algebra.C2, "alpha_beta", (2, 3))
        lat = order_ideals(sp)
        projection = projection_columns(lat, sp.decomposition)

        def refuse(self, color):
            raise AssertionError("a piece lattice's rank_stats was read")

        monkeypatch.setattr(IdealLattice, "rank_stats", refuse)
        weight_via_decomposition(lat, projection)
        packed = projection.packed
        for color in (ALPHA, BETA):
            piece_rank_stats(lat, projection, color)
        assert projection.packed is packed

    def test_equal_values_share_one_int(self):
        sp = semistandard_poset(Algebra.G2, "beta_alpha", (3, 3))
        lat = order_ideals(sp)
        projection = projection_columns(lat, sp.decomposition)
        w = weight_via_decomposition(lat, projection)
        for column in (w.alpha, w.beta, *piece_rank_stats(lat, projection, BETA)):
            assert len({id(x) for x in column}) == len(set(column))

    def test_a_sum_past_its_field_raises(self):
        """A1+A1 (8,0): eight one-vertex pieces, so n = 8, and each
        element's alpha length is 1 per piece.  A sum may reach 2n, no
        more: one piece's lengths raised by 8 sum to 16, raised by 9 they
        raise.  Raised by 248 they would pass a byte and carry."""
        sp = semistandard_poset(Algebra.A1A1, "beta_alpha", (8, 0))
        lat = order_ideals(sp)
        projection = projection_columns(lat, sp.decomposition)
        assert piece_rank_stats(lat, projection, ALPHA)[1] == [8] * len(lat)
        (piece, column), *rest = projection
        (lo, hi), beta_bounds = piece._component_bounds
        long = replace(piece)
        vars(long).update(weights=piece.weights)
        for extra in 8, 9, 248:
            vars(long)["_component_bounds"] = ((lo, [h + extra for h in hi]), beta_bounds)
            if extra == 8:
                assert piece_rank_stats(lat, [(long, column), *rest], ALPHA)[1] == [16] * len(lat)
            else:
                with pytest.raises(OverflowError, match="do not fit"):
                    piece_rank_stats(lat, [(long, column), *rest], ALPHA)

    @pytest.mark.parametrize("pad, size", [(0, 1), (100, 1), (150, 2), (1200, 2), (40_000, 4)])
    def test_wider_fields(self, pad, size):
        """A piece whose vertex order is padded widens every field: 2n needs
        two bytes from n = 128 and four from n = 32,768.  The sums still
        equal the per-piece loops."""
        sp = semistandard_poset(Algebra.G2, "alpha_beta", (1, 1))
        lat = order_ideals(sp)
        (piece, column), *rest = projection_columns(lat, sp.decomposition)
        wide = replace(piece, vertex_order=piece.vertex_order + tuple(range(100, 100 + pad)))
        vars(wide).update(weights=piece.weights, _component_bounds=piece._component_bounds)
        projection = Projection([(wide, column), *rest])
        assert {view.itemsize for view in projection.packed[0]} == {size}
        weights, stats = reference_piece_sums(lat, projection)
        assert weight_via_decomposition(lat, projection) == weights == lat.weights
        for color, expected in zip((ALPHA, BETA), stats):
            assert piece_rank_stats(lat, projection, color) == expected

    def test_a_piece_with_its_own_weights_has_its_own_table(self):
        """Pieces of one label share a table only while they share weights
        and bounds: the second of two C2 (0,1) pieces, given weights of its
        own, is summed with them."""
        sp = semistandard_poset(Algebra.C2, "beta_alpha", (0, 2))
        lat = order_ideals(sp)
        first, (piece, column) = projection_columns(lat, sp.decomposition)
        assert piece.weights is first[0].weights
        changed = replace(piece)
        alpha = list(piece.weights.alpha)
        alpha[-1] += 1
        vars(changed).update(weights=Weights(alpha, piece.weights.beta, piece.weights.offset),
                             _component_bounds=piece._component_bounds)
        projection = Projection([first, (changed, column)])
        assert weight_via_decomposition(lat, projection) == reference_piece_sums(lat, projection)[0]
        assert weight_via_decomposition(lat, projection) != lat.weights

    def test_a_weight_below_its_field_raises(self):
        sp = semistandard_poset(Algebra.A2, "beta_alpha", (1, 1))
        lat = order_ideals(sp)
        (piece, column), *rest = projection_columns(lat, sp.decomposition)
        low = replace(piece)
        # raw -1 is the weight -n - 1, one below the field
        vars(low).update(weights=Weights([-1, *piece.weights.alpha[1:]], piece.weights.beta,
                                         piece.weights.offset),
                         _component_bounds=piece._component_bounds)
        with pytest.raises(OverflowError, match="below"):
            weight_via_decomposition(lat, [(low, column), *rest])


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
                for v in element_vertices(lat, i):
                    r = rows[color[v]]
                    total = (total[0] + r[0], total[1] + r[1])
                assert total == lat.weights[i]
