import itertools

import pytest

import goldens
from ranktwo.algebras import ALPHA, BETA, Algebra
from ranktwo.build import (fundamental_fixtures, fundamental_poset,
                           semistandard_poset, semistandard_poset_oracle)
from ranktwo.grid import decompose, has_max_property, total_order, validate_grid
from ranktwo.lattice import order_ideals
from ranktwo.poset import vertex_color_isomorphism

VERTEX_COUNTS = {
    (Algebra.A1A1, "alpha_fund"): 1, (Algebra.A1A1, "beta_fund"): 1,
    (Algebra.A2, "alpha_fund"): 2, (Algebra.A2, "beta_fund"): 2,
    (Algebra.C2, "alpha_fund"): 3, (Algebra.C2, "beta_fund"): 4,
    (Algebra.G2, "alpha_fund"): 6, (Algebra.G2, "beta_fund"): 10,
}
IDEAL_COUNTS = {
    (Algebra.A1A1, "alpha_fund"): 2, (Algebra.A1A1, "beta_fund"): 2,
    (Algebra.A2, "alpha_fund"): 3, (Algebra.A2, "beta_fund"): 3,
    (Algebra.C2, "alpha_fund"): 4, (Algebra.C2, "beta_fund"): 5,
    (Algebra.G2, "alpha_fund"): 7, (Algebra.G2, "beta_fund"): 14,
}


def chain_colors(p):
    """Bottom-to-top color word when the poset is a chain, else None."""
    base = p.base
    order = base.linear_extension
    if any(len(base.upper_covers[v]) > 1 or len(base.lower_covers[v]) > 1
           for v in base.ids):
        return None
    if len(base.covers) != len(base) - 1:
        return None
    return tuple(base.color_of[v] for v in order)


class TestFundamentalPosets:
    @pytest.mark.parametrize("key", sorted(VERTEX_COUNTS, key=repr))
    def test_sizes(self, key):
        p = fundamental_poset(*key)
        assert len(p) == VERTEX_COUNTS[key]
        assert len(order_ideals(p)) == IDEAL_COUNTS[key]
        assert validate_grid(p) == []

    def test_chain_color_words(self):
        A, B = ALPHA, BETA
        assert chain_colors(fundamental_poset(Algebra.A2, "alpha_fund")) == (B, A)
        assert chain_colors(fundamental_poset(Algebra.A2, "beta_fund")) == (A, B)
        assert chain_colors(fundamental_poset(Algebra.C2, "alpha_fund")) == (A, B, A)
        assert chain_colors(fundamental_poset(Algebra.C2, "beta_fund")) == (B, A, A, B)
        assert chain_colors(fundamental_poset(Algebra.G2, "alpha_fund")) == (A, B, A, A, B, A)
        assert chain_colors(fundamental_poset(Algebra.A1A1, "alpha_fund")) == (A,)

    def test_g2_second_fundamental_is_not_a_chain(self):
        p = fundamental_poset(Algebra.G2, "beta_fund")
        assert chain_colors(p) is None
        assert len(p) == 10

    def test_g2_second_fundamental_ideal_count_from_columns(self):
        # independent count: two-entry columns over 1..7, minus the forbidden seven
        from ranktwo.tableaux import allowed_columns

        assert len(allowed_columns(Algebra.G2, 2)) == 21 - 7
        assert len(order_ideals(fundamental_poset(Algebra.G2, "beta_fund"))) == 14

    def test_max_property_and_indecomposable(self):
        for key in VERTEX_COUNTS:
            p = fundamental_poset(*key)
            assert has_max_property(p)
            if len(p):
                assert len(decompose(p)) == 1

    def test_fixtures_are_read_only(self):
        fixtures = fundamental_fixtures()
        with pytest.raises(TypeError):
            del fixtures["c2(1,0)"]
        with pytest.raises(TypeError):
            fixtures["c2(1,0)"] = fundamental_poset(Algebra.C2, "beta_fund")
        assert not hasattr(fixtures, "pop")
        # decompose labels its pieces from the shared fixtures
        dec = decompose(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)).grid)
        assert dec.labels == ("c2(0,1)", "c2(1,0)")
        assert fundamental_fixtures()["c2(1,0)"] is fundamental_poset(Algebra.C2, "alpha_fund")


class TestSemistandardPosets:
    def test_empty_weight(self):
        sp = semistandard_poset(Algebra.G2, "beta_alpha", (0, 0))
        assert len(sp.grid) == 0
        assert len(order_ideals(sp)) == 1

    def test_fundamental_weights_reduce_to_fixtures(self):
        for algebra in Algebra:
            for order in ("beta_alpha", "alpha_beta"):
                one = semistandard_poset(algebra, order, (1, 0)).grid
                assert vertex_color_isomorphism(
                    one.base, fundamental_poset(algebra, "alpha_fund").base) is not None
                other = semistandard_poset(algebra, order, (0, 1)).grid
                assert vertex_color_isomorphism(
                    other.base, fundamental_poset(algebra, "beta_fund").base) is not None

    @pytest.mark.parametrize("algebra,golden", [
        (Algebra.A2, "A2_22"), (Algebra.C2, "C2_22"), (Algebra.G2, "G2_22")])
    def test_matches_golden_posets(self, algebra, golden):
        fig = getattr(goldens, golden)
        built = semistandard_poset(algebra, "beta_alpha", (2, 2)).grid
        phi = vertex_color_isomorphism(built.base, fig.base)
        assert phi is not None
        assert all(fig.chain_of[phi[v]] == built.chain_of[v] for v in built.base.ids)
        # the golden numbering is the grid total order of the built poset
        assert total_order(fig) == tuple(range(1, len(fig) + 1))

    def test_c2_11_matches_golden_poset(self):
        built = semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)).grid
        phi = vertex_color_isomorphism(built.base, goldens.C2_11.base)
        assert phi is not None
        assert all(goldens.C2_11.chain_of[phi[v]] == built.chain_of[v]
                   for v in built.base.ids)

    def test_decomposition_into_pieces(self):
        sp = semistandard_poset(Algebra.C2, "beta_alpha", (2, 2))
        dec = decompose(sp.grid)
        assert dec.labels == ("c2(0,1)",) * 2 + ("c2(1,0)",) * 2
        sp = semistandard_poset(Algebra.C2, "alpha_beta", (2, 2))
        dec = decompose(sp.grid)
        assert dec.labels == ("c2(1,0)",) * 2 + ("c2(0,1)",) * 2

    def test_all_built_posets_are_valid_grids_with_max_property(self):
        for algebra in Algebra:
            for order in ("beta_alpha", "alpha_beta"):
                for a, b in itertools.product(range(4), repeat=2):
                    grid = semistandard_poset(algebra, order, (a, b)).grid
                    assert validate_grid(grid) == []
                    assert has_max_property(grid)

    def test_piece_spans_partition_ids(self):
        dec = semistandard_poset(Algebra.G2, "beta_alpha", (3, 2)).decomposition
        ids = [v for piece in dec.pieces for v in piece.base.ids]
        assert ids == list(range(len(ids))) and len(ids) == 2 * 10 + 3 * 6
        assert dec.labels == ("g2(0,1)",) * 2 + ("g2(1,0)",) * 3

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_piece_spans_match_the_built_poset(self, algebra):
        """The builder's decomposition is the searched one, its pieces span
        consecutive ids, and each piece, renumbered locally, is its
        fundamental poset with the fixture's lattice element for element."""
        fixtures = fundamental_fixtures()
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                sp = semistandard_poset(algebra, order, lam)
                dec = sp.decomposition
                assert decompose(sp.grid) == dec, (order, lam)
                ids = [v for piece in dec.pieces for v in piece.base.ids]
                assert ids == list(range(len(sp.grid))), (order, lam)
                for piece, sub, label in zip(dec.pieces, dec.lattices, dec.labels):
                    fund = fixtures[label]
                    local = {g: i for i, g in enumerate(piece.base.ids)}
                    assert piece.base.relabel(local) == fund.base, (order, lam)
                    assert sub.elements == order_ideals(fund).elements, (order, lam)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            semistandard_poset(Algebra.A2, "beta_alpha", (-1, 0))
        with pytest.raises(ValueError):
            semistandard_poset(Algebra.A2, "beta_alpha", (0, -1))


class TestOracle:
    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_matches_builder(self, algebra):
        for a, b in itertools.product(range(3), repeat=2):
            built = semistandard_poset(algebra, "beta_alpha", (a, b)).grid.base
            oracle = semistandard_poset_oracle(algebra, (a, b))
            assert vertex_color_isomorphism(built, oracle) is not None, (algebra, a, b)

    def test_c2_11_oracle_shape(self):
        oracle = semistandard_poset_oracle(Algebra.C2, (1, 1))
        assert len(oracle) == 7
        assert vertex_color_isomorphism(oracle, goldens.C2_11.base) is not None

    def test_a2_fundamental_oracle(self):
        oracle = semistandard_poset_oracle(Algebra.A2, (1, 0))
        assert vertex_color_isomorphism(
            oracle, fundamental_poset(Algebra.A2, "alpha_fund").base) is not None

    def test_g2_second_fundamental_oracle(self):
        oracle = semistandard_poset_oracle(Algebra.G2, (0, 1))
        assert vertex_color_isomorphism(
            oracle, fundamental_poset(Algebra.G2, "beta_fund").base) is not None
