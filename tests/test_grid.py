import itertools

import pytest

import goldens
import ranktwo.grid
from conftest import random_colored_poset
from ranktwo.algebras import ALPHA, BETA, Algebra
from ranktwo.build import semistandard_poset
from ranktwo.fixtures import load_fixture
from ranktwo.grid import (GridPoset, decompose, has_max_property, total_order,
                          triangle_dual, validate_grid)
from ranktwo.poset import are_vertex_color_isomorphic, vertex_color_isomorphism


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


class TestDecompose:
    def test_nonsplitting_fixture(self):
        p = load_fixture("nonsplitting_grid")
        dec = decompose(p)
        assert [sorted(piece.base.ids) for piece in dec.pieces] == [
            [1, 3, 4, 5, 6, 10], [2, 7, 8, 9, 11]]
        assert are_vertex_color_isomorphic(
            dec.pieces[0].base, goldens.NONSPLITTING_PIECE_1.base)
        assert are_vertex_color_isomorphic(
            dec.pieces[1].base, goldens.NONSPLITTING_PIECE_2.base)
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


def restrict_split(p: GridPoset, part: frozenset[int]) -> bool:
    """Reference split test: extremes of the two validated restricted posets."""
    chain = p.chain_of
    p1 = p.base.restrict(part)
    p2 = p.base.restrict(set(p.base.ids) - part)
    max1 = [chain[v] for v in p1.maximal_elements]
    max2 = [chain[v] for v in p2.maximal_elements]
    min1 = [chain[v] for v in p1.minimal_elements]
    min2 = [chain[v] for v in p2.minimal_elements]
    return (max(max1, default=0) <= min(max2, default=10**9)
            and max(min1, default=0) <= min(min2, default=10**9))


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


class TestTriangleDual:
    def test_involution(self):
        p = semistandard_poset(Algebra.C2, "beta_alpha", (2, 1)).grid
        assert triangle_dual(triangle_dual(p, Algebra.C2), Algebra.C2).base == p.base

    def test_a2_fundamental_selfdual(self):
        from ranktwo.build import fundamental_poset

        p = fundamental_poset(Algebra.A2, "alpha_fund")
        assert are_vertex_color_isomorphic(triangle_dual(p, Algebra.A2).base, p.base)

    @pytest.mark.parametrize("algebra", list(Algebra))
    @pytest.mark.parametrize("lam", [(1, 1), (2, 1), (2, 2)])
    def test_relates_the_two_orders(self, algebra, lam):
        pba = semistandard_poset(algebra, "beta_alpha", lam).grid
        pab = semistandard_poset(algebra, "alpha_beta", lam).grid
        assert are_vertex_color_isomorphic(triangle_dual(pba, algebra).base, pab.base)

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
