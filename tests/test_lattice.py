import itertools
from array import array
import os
import subprocess
import sys

import pytest

from conftest import (brute_force_ideals, diamond_coloring_check, element_vertices,
                      random_colored_poset)
from ranktwo.algebras import ALPHA, BETA, Algebra, cartan_matrix
from ranktwo.build import fundamental_poset, semistandard_poset
from ranktwo.fixtures import FIXTURE_NAMES, load_fixture
from ranktwo.grid import GridPoset, decompose, total_order, validate_grid
from ranktwo.lattice import (TooManyIdeals, Weights, check_structure, join_irreducible_poset,
                             order_ideals, piece_rank_stats, projection_columns,
                             structure_rows, weight_via_decomposition)
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
            assert {element_vertices(lat, i) for i in range(len(lat))} == \
                brute_force_ideals(base)

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
        # masks it has reached overflow the bound (about 1.3 MB traced at
        # its peak), not after collecting every cover of the block (18 MB)
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
        assert [mask.bit_count() for mask in lat.elements] == list(range(n + 1))

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
    out = []
    for i, mask in enumerate(lat.elements):
        for b, v in enumerate(lat.vertex_order):
            if not (mask >> b) & 1 and mask | (1 << b) in lat.index_of:
                out.append((i, lat.index_of[mask | (1 << b)], color[v]))
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


def _random_grids(rng):
    """40 random posets under arbitrary chain indices, so that some "chains"
    hold incomparable vertices."""
    for _ in range(40):
        base = random_colored_poset(rng, rng.randint(1, 10))
        yield GridPoset(base, tuple((v, rng.randint(1, 4)) for v in base.ids))


def assert_walk_matches_reference(lat):
    """The covers walk and the weights leave the lattice-wide index unbuilt,
    and the walk gives the reference's covers."""
    covers = lat.covers
    lat.weights
    assert "index_of" not in vars(lat)
    assert tuple(covers) == reference_covers(lat)


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

    def test_component_bounds_are_4_byte_columns(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (2, 1)))
        lat.weights
        for lo, hi in lat._component_bounds:
            assert all(type(c) is array and c.typecode == "I" and c.itemsize == 4
                       and len(c) == len(lat) for c in (lo, hi))
        for color in (ALPHA, BETA):
            rho, length = lat.rank_stats(color)
            assert type(rho) is list and type(length) is list

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
    """Weights hold two integer columns and read as (m_a, m_b) pairs."""

    @staticmethod
    def _lattice():
        return order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (2, 1)))

    def test_pair_indexing(self):
        lat = self._lattice()
        w = lat.weights
        assert w[lat.top] == (2, 1) and type(w[lat.top]) is tuple
        assert w[0] == lowest_weight(Algebra.C2, (2, 1))
        assert all(w[i] == (w.alpha[i], w.beta[i]) for i in range(len(lat)))

    def test_columns_are_int_lists(self):
        w = self._lattice().weights
        assert type(w.alpha) is list and type(w.beta) is list
        assert all(type(x) is int for x in w.alpha + w.beta)

    def test_iteration_yields_pairs(self):
        w = self._lattice().weights
        pairs = list(w)
        assert all(type(p) is tuple and len(p) == 2 for p in pairs)
        assert pairs == [w[i] for i in range(len(w))]

    def test_len(self):
        lat = self._lattice()
        assert len(lat.weights) == len(lat.weights.alpha) == len(lat.weights.beta) == len(lat)

    def test_equality_compares_columns(self):
        w = self._lattice().weights
        assert w == Weights(w.alpha[:], w.beta[:])
        for k in (0, len(w) // 2, len(w) - 1):
            for column in ("alpha", "beta"):
                alpha, beta = w.alpha[:], w.beta[:]
                (alpha if column == "alpha" else beta)[k] += 1
                assert w != Weights(alpha, beta), (k, column)
        assert w != tuple(w) and w != list(w)


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
    """The lattice core holds no tuple per element or per cover, 4-byte
    cover indices and component bounds, and shared weight ints: 46,656
    ideals and 196,700 covers grow the peak by at most 7 MB (5.6-5.8 MB
    measured on Python 3.10-3.12; 9.0-9.1 MB with one int object per
    element index in list cover columns and a scan before the covers walk,
    11.9-12.1 MB with two int objects per index and the bounds as lists,
    16.6-17.0 MB with a tuple per weight as well)."""
    import ranktwo

    src = os.path.dirname(os.path.dirname(ranktwo.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _PIPELINE_GROWTH], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) <= 7 * 1024


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
        out.append((sub, sub.index_of[mask]))
    return out


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
        assert projection_columns(lat, dec) == [
            (sub, [pieces[k][1] for pieces in reference]) for k, sub in enumerate(dec.lattices)]

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_battery_lattices(self, algebra):
        for grid in battery_grids(algebra):
            self.assert_matches_reference(grid)

    def test_random_grids(self, rng):
        for p in _random_grids(rng):
            self.assert_matches_reference(p)

    def test_decomposition_of_another_grid_is_refused(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (2, 2)))
        dec = decompose(semistandard_poset(Algebra.C2, "beta_alpha", (2, 2)).grid)
        with pytest.raises(ValueError, match="another vertex order"):
            projection_columns(lat, dec)


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
