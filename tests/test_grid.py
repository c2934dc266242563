import itertools

import pytest

import goldens
import ranktwo.grid
import ranktwo.lattice
from conftest import (brute_force_ideals, minimal_elements, random_colored_poset,
                      transitive_reduction)
from ranktwo.algebras import ALPHA, BETA, Algebra
from ranktwo.build import fundamental_fixtures, semistandard_poset
from ranktwo.fixtures import FIXTURE_NAMES, load_fixture
from ranktwo.grid import (Decomposition, GridPoset, decompose,
                          has_max_property, total_order, triangle_dual,
                          validate_grid)
from ranktwo.lattice import order_ideals
from ranktwo.poset import vertex_color_isomorphism


def grid(colors, covers, chain):
    return GridPoset.build(colors, covers, chain)


# the six connected three-element grid posets, colored by chain parity
THREE_ELEMENT_GRIDS = [
    grid({0: ALPHA, 1: BETA, 2: ALPHA}, [(0, 1), (1, 2)], {0: 3, 1: 2, 2: 1}),
    grid({0: BETA, 1: BETA, 2: ALPHA}, [(0, 1), (1, 2)], {0: 2, 1: 2, 2: 1}),
    grid({0: BETA, 1: ALPHA, 2: ALPHA}, [(0, 1), (1, 2)], {0: 2, 1: 1, 2: 1}),
    grid({0: ALPHA, 1: ALPHA, 2: ALPHA}, [(0, 1), (1, 2)], {0: 1, 1: 1, 2: 1}),
    grid({0: ALPHA, 1: ALPHA, 2: BETA}, [(0, 1), (2, 1)], {0: 1, 1: 1, 2: 2}),
    grid({0: ALPHA, 1: BETA, 2: BETA}, [(1, 0), (1, 2)], {0: 1, 1: 2, 2: 2}),
]


class TestValidateGrid:
    @pytest.mark.parametrize("p", THREE_ELEMENT_GRIDS)
    def test_three_element_grids_valid(self, p):
        assert validate_grid(p) == []

    def test_chain_jump(self):
        p = grid({0: ALPHA, 1: BETA}, [(0, 1)], {0: 3, 1: 1})
        assert any("jumps" in v for v in validate_grid(p))

    def test_example_fixture_valid(self):
        assert validate_grid(load_fixture("two_color_example")) == []

    def test_non_chain_fiber(self):
        p = grid({0: ALPHA, 1: ALPHA}, [], {0: 1, 1: 1})
        assert any("not a chain" in v for v in validate_grid(p))

    def test_mixed_chain_colors(self):
        p = grid({0: ALPHA, 1: BETA}, [(0, 1)], {0: 1, 1: 1})
        assert any("mixes colors" in v for v in validate_grid(p))

    def test_adjacent_chains_same_color(self):
        p = grid({0: ALPHA, 1: ALPHA}, [(0, 1)], {0: 2, 1: 1})
        assert any("share color" in v for v in validate_grid(p))

    def test_figure_posets_valid(self):
        for p in (goldens.A2_22, goldens.C2_22, goldens.G2_22, goldens.C2_11):
            assert validate_grid(p) == []


class TestTotalOrder:
    def test_single_chain_top_to_bottom(self):
        p = grid({0: ALPHA, 1: ALPHA, 2: ALPHA}, [(0, 1), (1, 2)], {0: 1, 1: 1, 2: 1})
        assert total_order(p) == (2, 1, 0)

    def test_golden_numbering_a2(self):
        assert total_order(goldens.A2_22) == tuple(range(1, 9))

    def test_golden_numbering_g2(self):
        assert total_order(goldens.G2_22) == tuple(range(1, 33))

    def test_golden_numbering_c2(self):
        assert total_order(goldens.C2_22) == tuple(range(1, 15))


class TestMaxProperty:
    def test_built_posets(self):
        for algebra in Algebra:
            for order in ("beta_alpha", "alpha_beta"):
                p = semistandard_poset(algebra, order, (2, 2)).grid
                assert has_max_property(p)

    def test_empty(self):
        assert has_max_property(grid({}, [], {}))

    def test_same_colored_maxima(self):
        p = grid({0: ALPHA, 1: ALPHA}, [], {0: 1, 1: 2})
        assert not has_max_property(p)

    def test_maximal_on_fourth_chain(self):
        # maxima have distinct colors but one of them sits on chain four
        p = grid({1: ALPHA, 2: BETA, 3: ALPHA, 4: BETA, 5: BETA},
                 [(2, 1), (3, 2), (4, 3), (4, 5)],
                 {1: 1, 2: 2, 3: 3, 4: 4, 5: 4})
        assert validate_grid(p) == []
        assert not has_max_property(p)

    def test_component_reordering(self):
        # passes only with the singleton component re-indexed first
        p = grid({0: ALPHA, 1: BETA, 2: ALPHA},
                 [(0, 1)], {0: 2, 1: 1, 2: 3})
        assert has_max_property(p)

    def test_dual_keeps_max_property_at_2_2(self):
        p = semistandard_poset(Algebra.G2, "beta_alpha", (2, 2)).grid
        assert has_max_property(p.dual())

    def test_dual_is_valid_grid(self):
        p = semistandard_poset(Algebra.C2, "beta_alpha", (2, 1)).grid
        assert validate_grid(p.dual()) == []


def reference_max_property(p: GridPoset) -> bool:
    """The max property by its definition: for some order of the components,
    the chains re-indexed contiguously in that order, the maximal elements
    have pairwise distinct colors and sit on chains 1 and 2."""
    maxima, color, chain = p.base.maximal_elements, p.base.color_of, p.chain_of
    if len({color[v] for v in maxima}) < len(maxima):
        return False
    for comps in itertools.permutations(p.base.components):
        index, used = {}, 0
        for comp in comps:
            old = sorted({chain[v] for v in comp})
            index.update((v, used + old.index(chain[v]) + 1) for v in comp)
            used += len(old)
        if all(index[v] <= 2 for v in maxima):
            return True
    return False


def test_max_property_matches_its_definition(rng):
    grids = random_valid_grids(rng, 2000) + BUILT_GRIDS
    grids += [g.dual() for g in grids] + [grid({}, [], {})]
    two = {True: 0, False: 0}
    for g in grids:
        assert has_max_property(g) == reference_max_property(g), g
        if len(g.base.components) == 2:
            two[has_max_property(g)] += 1
    assert min(two.values()) > 0, two


class TestDecompose:
    def test_nonsplitting_fixture(self):
        p = load_fixture("nonsplitting_grid")
        dec = decompose(p)
        assert [sorted(piece.base.ids) for piece in dec.pieces] == [
            [1, 3, 4, 5, 6, 10], [2, 7, 8, 9, 11]]
        assert vertex_color_isomorphism(
            dec.pieces[0].base, goldens.NONSPLITTING_PIECE_1.base) is not None
        assert vertex_color_isomorphism(
            dec.pieces[1].base, goldens.NONSPLITTING_PIECE_2.base) is not None
        assert dec.labels == (None, None)

    def test_c2_22(self):
        dec = decompose(semistandard_poset(Algebra.C2, "beta_alpha", (2, 2)).grid)
        assert dec.labels == ("c2(0,1)", "c2(0,1)", "c2(1,0)", "c2(1,0)")

    def test_alpha_beta_order(self):
        dec = decompose(semistandard_poset(Algebra.G2, "alpha_beta", (1, 2)).grid)
        assert dec.labels == ("g2(1,0)", "g2(0,1)", "g2(0,1)")

    def test_fundamental_indecomposable(self):
        from ranktwo.build import fundamental_poset

        dec = decompose(fundamental_poset(Algebra.G2, "beta_fund"))
        assert len(dec) == 1 and dec.labels == ("g2(0,1)",)

    def test_reconcatenation_identity(self):
        p = semistandard_poset(Algebra.C2, "beta_alpha", (2, 2)).grid
        dec = decompose(p)
        ids = [v for piece in dec.pieces for v in piece.base.ids]
        assert sorted(ids) == sorted(p.base.ids)
        piece_covers = set().union(*(piece.base.covers for piece in dec.pieces))
        assert piece_covers <= p.base.covers
        # prefixes are order ideals
        seen = set()
        for piece in dec.pieces:
            seen |= set(piece.base.ids)
            assert all(p.base.below[v] <= seen for v in seen)

    def test_inter_piece_covers_stay_on_one_chain(self):
        p = semistandard_poset(Algebra.G2, "beta_alpha", (2, 2)).grid
        dec = decompose(p)
        member = {}
        for k, piece in enumerate(dec.pieces):
            for v in piece.base.ids:
                member[v] = k
        chain = p.chain_of
        for u, v in p.base.covers:
            if member[u] != member[v]:
                assert member[u] + 1 == member[v]
                assert chain[u] == chain[v]

    def test_associative_refinement(self):
        p = semistandard_poset(Algebra.A2, "beta_alpha", (1, 2)).grid
        dec = decompose(p)
        assert dec.labels == ("a2(0,1)", "a2(0,1)", "a2(1,0)")
        # decomposing the complement of the first piece refines identically
        rest = p.restrict(set(p.base.ids) - set(dec.pieces[0].base.ids))
        tail = decompose(rest)
        assert [sorted(q.base.ids) for q in tail.pieces] == [
            sorted(q.base.ids) for q in dec.pieces[1:]]


def extremes_split(p: GridPoset, part: frozenset[int]) -> bool:
    """Split test on vertex sets: extremes of the two validated restricted posets."""
    chain = p.chain_of
    p1 = p.base.restrict(part)
    p2 = p.base.restrict(set(p.base.ids) - part)
    max1 = [chain[v] for v in p1.maximal_elements]
    max2 = [chain[v] for v in p2.maximal_elements]
    min1 = [chain[v] for v in minimal_elements(p1)]
    min2 = [chain[v] for v in minimal_elements(p2)]
    return (max(max1, default=0) <= min(max2, default=10**9)
            and max(min1, default=0) <= min(min2, default=10**9))


def restrict_split(part: int, rest: int, lower, upper, chain) -> bool:
    """Reference split test in `_splits_validly`'s mask signature: the poset on
    bit indices that `lower` describes, restricted to `part | rest`, split by
    `extremes_split`."""
    n = len(chain)

    def bits(mask):
        return frozenset(b for b in range(n) if mask >> b & 1)

    covers = [(u, v) for v in range(n) for u in bits(lower[v])]
    assert sorted(covers) == sorted((u, w) for u in range(n) for w in bits(upper[u]))
    g = GridPoset.build({b: ALPHA for b in range(n)}, covers, dict(enumerate(chain)))
    return extremes_split(g.restrict(bits(part | rest)), bits(part))


def _reference_first_piece(p: GridPoset) -> frozenset[int] | None:
    """Smallest nonempty proper order ideal that splits off validly; the
    ideals of each size grow from the layer below and are sorted by their
    positions in p's total order."""
    position = {v: i for i, v in enumerate(total_order(p))}
    lower = p.base.lower_covers
    layer = [frozenset()]
    for _ in range(len(p) - 1):
        grown = {ideal | {v} for ideal in layer for v in p.base.ids
                 if v not in ideal and all(u in ideal for u in lower[v])}
        layer = sorted(grown, key=lambda s: sorted(position[v] for v in s))
        for ideal in layer:
            if extremes_split(p, ideal):
                return ideal
    return None


def reference_decompose(p: GridPoset) -> Decomposition:
    """The layered frozenset search: split the smallest valid ideal off the
    remainder, restrict, and repeat; label pieces by fixture isomorphism."""
    pieces = []
    remainder = p
    while len(remainder):
        part = _reference_first_piece(remainder)
        if part is None:
            pieces.append(remainder)
            break
        pieces.append(remainder.restrict(part))
        remainder = remainder.restrict(set(remainder.base.ids) - part)
    labels = []
    for piece in pieces:
        names = [name for name, fund in fundamental_fixtures().items()
                 if vertex_color_isomorphism(piece.base, fund.base) is not None]
        labels.append(names[0] if names else None)
    return Decomposition(tuple(pieces), tuple(labels), total_order(p))


BUILT_GRIDS = [semistandard_poset(algebra, order, lam).grid
               for algebra in Algebra
               for order in ("beta_alpha", "alpha_beta")
               for lam in itertools.product(range(4), repeat=2)]


def reference_total_order(p):
    """Oracle: the grid total order as first written, each chain's members
    sorted by how many of them the poset's `below` sets hold below each,
    then reversed."""
    out = []
    for c in sorted({c for _, c in p.chains}):
        members = [v for v, cc in p.chains if cc == c]
        below = p.base.below
        out.extend(reversed(sorted(members, key=lambda v: len(below[v] & set(members)))))
    return tuple(out)


class TestTotalOrderMatchesReference:
    """`GridPoset.total_order` equals the oracle on every kind of grid,
    including grids whose chains hold incomparable vertices."""

    @staticmethod
    def assert_matches_reference(grids):
        for p in grids:
            assert p.total_order == total_order(p) == reference_total_order(p), p

    def test_built_grids(self):
        self.assert_matches_reference(BUILT_GRIDS)

    def test_random_valid_grids(self, rng):
        self.assert_matches_reference(random_valid_grids(rng, 300))

    def test_invalid_random_grids(self, rng):
        grids = _random_grids(rng)
        assert sum(bool(validate_grid(p)) for p in grids) >= 10
        self.assert_matches_reference(grids)

    def test_fixtures(self):
        grids = [p for p in map(load_fixture, FIXTURE_NAMES) if isinstance(p, GridPoset)]
        assert len(grids) == 2
        self.assert_matches_reference(grids)

    def test_made_once_and_shared_without_below(self):
        sp = semistandard_poset(Algebra.G2, "beta_alpha", (2, 1))
        order = sp.grid.total_order
        assert total_order(sp.grid) is order
        assert order_ideals(sp).vertex_order is order and sp.decomposition.order is order
        assert "below" not in vars(sp.grid.base)


def random_chain_grid(rng) -> GridPoset:
    """A random grid on up to four chains of one color each: consecutive
    members of a chain are related, and some members of chain c + 1 lie
    below members of chain c, so every cover stays on a chain or steps one
    chain down.  The colors may still break the two-color axioms."""
    chain, relations, members, n = {}, set(), [], 0
    for c in range(1, rng.randint(1, 4) + 1):
        size = rng.randint(1, 3)
        members.append(list(range(n, n + size)))
        chain.update((v, c) for v in range(n, n + size))
        relations.update(zip(range(n, n + size - 1), range(n + 1, n + size)))
        n += size
    for low_chain, high_chain in zip(members[1:], members):
        for u in low_chain:
            for v in high_chain:
                if rng.random() < 0.3:
                    relations.add((u, v))
    color = {c: rng.choice((ALPHA, BETA)) for c in set(chain.values())}
    return grid({v: color[c] for v, c in chain.items()},
                transitive_reduction(n, relations), chain)


def random_valid_grids(rng, count: int) -> list[GridPoset]:
    out = []
    while len(out) < count:
        p = random_chain_grid(rng)
        if not validate_grid(p):
            out.append(p)
    return out


class TestDecomposeMatchesReference:
    @staticmethod
    def assert_same(grids):
        for g in grids:
            assert validate_grid(g) == [], g
            assert decompose(g) == reference_decompose(g), g

    def test_built_posets(self):
        assert len(BUILT_GRIDS) == 128
        self.assert_same(BUILT_GRIDS)

    def test_valid_fixtures(self):
        fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
        valid = [p for p in fixtures if isinstance(p, GridPoset) and not validate_grid(p)]
        assert len(valid) == 2
        self.assert_same(valid)

    def test_random_valid_grids(self, rng):
        grids = random_valid_grids(rng, 1500)
        assert sum(len(decompose(g)) > 1 for g in grids) > 500
        self.assert_same(grids)


def _piece_shape(piece, order):
    """A piece's colors and covers, its vertices taken by position in order."""
    color = piece.base.color_of
    at = {v: k for k, v in enumerate(v for v in order if v in color)}
    return (tuple(color[v] for v in at),
            frozenset((at[u], at[v]) for u, v in piece.base.covers))


def test_decompose_searches_each_piece_shape_once(monkeypatch):
    """Over two sweeps of every built lattice up to (3,3) and of a grid
    whose two pieces no fixture matches, each piece shape is searched
    against the fixtures at most once, from an emptied cache, and gets
    the label of a search per piece: None for a shape no fixture matches."""
    fixtures, probes = fundamental_fixtures(), []

    def recording(p, q):
        probes.append((p, q))
        return vertex_color_isomorphism(p, q)

    ranktwo.grid._fixture_label.cache_clear()
    monkeypatch.setattr(ranktwo.grid, "vertex_color_isomorphism", recording)
    lattices = [order_ideals(semistandard_poset(algebra, order, lam))
                for algebra in Algebra
                for order in ("beta_alpha", "alpha_beta")
                for lam in itertools.product(range(4), repeat=2)]
    lattices.append(order_ideals(load_fixture("nonsplitting_grid")))
    shapes, unmatched = set(), set()
    for sweep in range(2):
        for lat in lattices:
            dec = decompose(lat)
            labels = tuple(next((name for name, fund in fixtures.items()
                                 if vertex_color_isomorphism(piece.base, fund.base) is not None),
                                None)
                           for piece in dec.pieces)
            assert dec.labels == labels, (sweep, lat.poset)
            for piece, label in zip(dec.pieces, labels):
                shapes.add(_piece_shape(piece, dec.order))
                if label is None:
                    unmatched.add(_piece_shape(piece, dec.order))
        if sweep == 0:
            first_sweep = len(probes)
    assert len(probes) == first_sweep  # the second sweep searched nothing
    searched = {id(p): p for p, _ in probes}.values()
    searched_shapes = [(tuple(c for _, c in p.vertices), p.covers) for p in searched]
    assert len(searched_shapes) == len(set(searched_shapes)) == len(shapes)
    assert set(searched_shapes) == shapes
    assert len({(id(p), id(q)) for p, q in probes}) == len(probes)
    # the nonsplitting grid's two chains: each tried on every fixture, once
    assert len(unmatched) == 2
    assert len([p for p, _ in probes
                if (tuple(c for _, c in p.vertices), p.covers) in unmatched]) == 2 * len(fixtures)


class TestDecomposeContract:
    def test_tie_goes_to_the_least_mask(self):
        # two incomparable vertices on one chain: either splits off first
        p = grid({0: ALPHA, 1: ALPHA}, [], {0: 1, 1: 1})
        dec = decompose(p)
        assert dec.order == (1, 0)
        assert [piece.base.ids for piece in dec.pieces] == [(1,), (0,)]

    def test_empty(self):
        assert decompose(grid({}, [], {})).pieces == ()

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_enumerated_lattice_gives_the_same_pieces(self, algebra, monkeypatch):
        lattices = [order_ideals(semistandard_poset(algebra, order, lam))
                    for order in ("beta_alpha", "alpha_beta")
                    for lam in itertools.product(range(3), repeat=2)]
        expected = [decompose(lat.poset) for lat in lattices]

        def refuse(*args, **kwargs):
            raise AssertionError("decompose enumerated the ideals again")

        monkeypatch.setattr(ranktwo.lattice, "order_ideals", refuse)
        assert [decompose(lat) for lat in lattices] == expected
        with pytest.raises(AssertionError, match="again"):
            decompose(lattices[0].poset)  # the refusal is live

    def test_lattice_of_a_plain_poset_is_refused(self):
        lat = order_ideals(grid({0: ALPHA, 1: BETA}, [(0, 1)], {0: 2, 1: 1}).base)
        with pytest.raises(ValueError, match="grid poset"):
            decompose(lat)

    def test_random_invalid_grids(self, rng):
        checked = 0
        while checked < 300:
            base = random_colored_poset(rng, rng.randint(1, 9))
            p = GridPoset(base, tuple((v, rng.randint(1, 4)) for v in base.ids))
            if not validate_grid(p):
                continue
            checked += 1
            dec = decompose(p)
            pieces = [frozenset(piece.base.ids) for piece in dec.pieces]
            assert sorted(v for piece in pieces for v in piece) == sorted(base.ids)
            ideals = brute_force_ideals(base)
            bit = {v: 1 << b for b, v in enumerate(dec.order)}
            union = frozenset()
            for k, piece in enumerate(pieces):
                rest = p.restrict(set(base.ids) - union)
                splits = [s for s in brute_force_ideals(rest.base)
                          if 0 < len(s) < len(rest) and extremes_split(rest, s)]
                if k + 1 < len(pieces):
                    # ties go to the least mask over the decomposition's order
                    least = [s for s in splits if len(s) == min(map(len, splits))]
                    assert piece == min(least, key=lambda s: sum(bit[v] for v in s))
                else:
                    assert piece == frozenset(rest.base.ids) and not splits
                union |= piece
                assert union in ideals


def _random_grids(rng):
    """Random posets under random chain functions, and random order ideals
    of built semistandard posets."""
    out = []
    for _ in range(25):
        base = random_colored_poset(rng, rng.randint(1, 7))
        out.append(GridPoset(base, tuple((v, rng.randint(1, 4)) for v in base.ids)))
    for algebra in Algebra:
        p = semistandard_poset(algebra, "beta_alpha", (2, 1)).grid
        below = p.base.below
        for _ in range(4):
            top = rng.sample(p.base.ids, 2)
            out.append(p.restrict(set(top).union(*(below[v] for v in top))))
    return out


class TestDecomposeMatchesRestrictSplit:
    @staticmethod
    def assert_same_as_reference(monkeypatch, grids):
        fast = [decompose(g) for g in grids]
        with monkeypatch.context() as m:
            m.setattr(ranktwo.grid, "_splits_validly", restrict_split)
            reference = [decompose(g) for g in grids]
        for g, dec, ref in zip(grids, fast, reference):
            assert dec.pieces == ref.pieces, g
            assert dec.labels == ref.labels, g

    def test_battery_grids(self, monkeypatch):
        grids = [semistandard_poset(algebra, order, lam).grid
                 for algebra in Algebra
                 for order in ("beta_alpha", "alpha_beta")
                 for lam in itertools.product(range(4), repeat=2) if sum(lam) >= 2]
        assert len(grids) == 104
        self.assert_same_as_reference(monkeypatch, grids)

    def test_random_grids(self, monkeypatch, rng):
        self.assert_same_as_reference(monkeypatch, _random_grids(rng))


class TestSplitScanMatchesRestrictSplit:
    """The split scan itself equals the reference on random disjoint (part,
    rest) pairs over each grid's total order, not only through decompose's
    pieces: with an empty part and an empty rest, so both defaults, 0 and
    10**9, are read, and with parts that are not ideals."""

    @staticmethod
    def assert_same(grids, rng):
        outcomes, not_ideals = set(), 0
        for g in grids:
            order = total_order(g)
            bit = {v: 1 << b for b, v in enumerate(order)}
            lower = [sum(bit[u] for u in g.base.lower_covers[v]) for v in order]
            upper = [sum(bit[w] for w in g.base.upper_covers[v]) for v in order]
            chain = [g.chain_of[v] for v in order]
            full = (1 << len(order)) - 1
            pairs = [(0, full), (full, 0), (0, 0)]
            for _ in range(8):
                side = [rng.randrange(3) for _ in order]  # part, rest or neither
                pairs.append(tuple(sum(1 << b for b, s in enumerate(side) if s == k)
                                   for k in (0, 1)))
            for part, rest in pairs:
                got = ranktwo.grid._splits_validly(part, rest, lower, upper, chain)
                assert got == restrict_split(part, rest, lower, upper, chain), (g, part, rest)
                outcomes.add(got)
                not_ideals += any(lower[b] & ~part for b in range(len(order)) if part >> b & 1)
        assert outcomes == {True, False} and not_ideals > 100

    def test_battery_grids(self, rng):
        grids = [semistandard_poset(algebra, order, lam).grid
                 for algebra in Algebra
                 for order in ("beta_alpha", "alpha_beta")
                 for lam in itertools.product(range(4), repeat=2) if sum(lam) >= 2]
        assert len(grids) == 104
        self.assert_same(grids, rng)

    def test_random_grids(self, rng):
        self.assert_same(_random_grids(rng), rng)


def carry_mask(mask, image_bit):
    """The union of image_bit[b] over the set bits b of mask, walking only
    the bits that are set."""
    out = 0
    while mask:
        low = mask & -mask
        out |= image_bit[low.bit_length() - 1]
        mask ^= low
    return out


def reference_carry(mask, image_bit):
    """The mask carried by testing every bit position."""
    return sum(g for b, g in enumerate(image_bit) if mask >> b & 1)


class TestCarryMask:
    """Carrying every mask along the first lower covers, and walking each
    mask's set bits, both carry it as testing every bit does."""

    @staticmethod
    def assert_first_lower_is_first_cover(lat):
        first, added = lat.first_lower
        into = {}
        for i, j, _ in lat.covers:
            into.setdefault(j, i)
        assert list(first) == [-1] + [into[j] for j in range(1, len(lat))]
        assert added[0] == -1
        assert [lat.elements[i] | 1 << b for i, b in zip(first[1:], added[1:])] \
            == list(lat.elements[1:])

    @classmethod
    def assert_carries_like_reference(cls, lat, image_bit):
        reference = [reference_carry(mask, image_bit) for mask in lat.elements]
        assert [carry_mask(mask, image_bit) for mask in lat.elements] == reference
        assert lat.carry(image_bit) == reference
        cls.assert_first_lower_is_first_cover(lat)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_duality_maps(self, algebra):
        for lam in itertools.product(range(4), repeat=2):
            lat_ba, lat_ab = (order_ideals(semistandard_poset(algebra, order, lam))
                              for order in ("beta_alpha", "alpha_beta"))
            phi = vertex_color_isomorphism(lat_ab.base, triangle_dual(lat_ba.poset, algebra).base)
            psi = {w: v for v, w in phi.items()}
            for source, target, f in ((lat_ab, lat_ba, phi), (lat_ba, lat_ab, psi)):
                bit = {v: 1 << b for b, v in enumerate(target.vertex_order)}
                self.assert_carries_like_reference(
                    source, [bit[f[v]] for v in source.vertex_order])

    @classmethod
    def assert_projections_like_reference(cls, dec):
        bit = {v: 1 << b for b, v in enumerate(dec.order)}
        for sub, masks in zip(dec.lattices, dec.masks):
            to_global = [bit[v] for v in sub.vertex_order]
            assert masks == tuple(reference_carry(m, to_global) for m in sub.elements)
            cls.assert_carries_like_reference(sub, to_global)

    def test_builder_decompositions(self):
        for algebra in Algebra:
            for order in ("beta_alpha", "alpha_beta"):
                for lam in itertools.product(range(4), repeat=2):
                    dec = semistandard_poset(algebra, order, lam).decomposition
                    self.assert_projections_like_reference(dec)

    def test_random_grids(self, rng):
        for p in _random_grids(rng):
            self.assert_projections_like_reference(decompose(p))


class TestTriangleDual:
    def test_involution(self):
        p = semistandard_poset(Algebra.C2, "beta_alpha", (2, 1)).grid
        assert triangle_dual(triangle_dual(p, Algebra.C2), Algebra.C2).base == p.base

    def test_a2_fundamental_selfdual(self):
        from ranktwo.build import fundamental_poset

        p = fundamental_poset(Algebra.A2, "alpha_fund")
        assert vertex_color_isomorphism(triangle_dual(p, Algebra.A2).base, p.base) is not None

    @pytest.mark.parametrize("algebra", list(Algebra))
    @pytest.mark.parametrize("lam", [(1, 1), (2, 1), (2, 2)])
    def test_relates_the_two_orders(self, algebra, lam):
        pba = semistandard_poset(algebra, "beta_alpha", lam).grid
        pab = semistandard_poset(algebra, "alpha_beta", lam).grid
        assert vertex_color_isomorphism(triangle_dual(pba, algebra).base, pab.base) is not None

    def test_dual_stays_a_valid_grid(self):
        pba = semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)).grid
        td = triangle_dual(pba, Algebra.C2)
        assert validate_grid(td) == []

    def test_builder_matches_golden_poset(self):
        pba = semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)).grid
        phi = vertex_color_isomorphism(pba.base, goldens.C2_11.base)
        assert phi is not None
        assert all(goldens.C2_11.chain_of[phi[v]] == pba.chain_of[v]
                   for v in pba.base.ids)
