import itertools
from fractions import Fraction

import pytest

from ranktwo.algebras import ALPHA, BETA, CARTAN, Algebra, cartan_matrix
from ranktwo.build import semistandard_poset
from ranktwo.fixtures import load_fixture
from ranktwo.lattice import IdealLattice, check_structure, order_ideals
from ranktwo.poset import RankFunction
from ranktwo.verify import RHO_SUM_LITERAL, quasi_gaussian_product
from ranktwo.weyl import (LaurentPoly2, QPoly, alternating_sum,
                          character_from_lattice, rgf_from_lattice, rgf_product,
                          simple_reflection, verify_weyl_character, weyl_group)


# Positive roots in fundamental-weight coordinates.
POSITIVE_ROOTS = {
    Algebra.A1A1: ((2, 0), (0, 2)),
    Algebra.A2: ((2, -1), (-1, 2), (1, 1)),
    Algebra.C2: ((2, -1), (-2, 2), (0, 1), (2, 0)),
    Algebra.G2: ((2, -1), (-3, 2), (-1, 1), (1, 0), (3, -1), (0, 1)),
}


def lattice(algebra, lam, order="beta_alpha"):
    return order_ideals(semistandard_poset(algebra, order, lam))


def is_weyl_invariant(algebra: Algebra, poly: LaurentPoly2) -> bool:
    """Each simple reflection, applied to every exponent pair, fixes poly."""
    for color in (ALPHA, BETA):
        moved: dict[tuple[int, int], int] = {}
        for key, c in poly.coeffs.items():
            k2 = simple_reflection(algebra, color, key)
            moved[k2] = moved.get(k2, 0) + c
        if LaurentPoly2(moved) != poly:
            return False
    return True


def rho_check_pairing(algebra: Algebra, mu) -> Fraction:
    """<mu, rho^vee>: the coefficient sum when mu is written in simple roots."""
    (p, q) = mu
    (a, b), (c, d) = CARTAN[algebra]
    det = a * d - b * c
    # mu = x*alpha + y*beta  =>  (x, y) = mu . inverse(CARTAN)
    x = Fraction(p * d - q * c, det)
    y = Fraction(-p * b + q * a, det)
    return x + y


def natural_rank(lattice: IdealLattice, algebra: Algebra) -> RankFunction:
    """Rank from the weight pairing with the dual Weyl vector.

    Requires the lattice to satisfy the structure condition for the
    algebra's Cartan matrix; otherwise the pairing values cannot form a
    rank function and a ValueError is raised.
    """
    if not check_structure(lattice, cartan_matrix(algebra)):
        raise ValueError("lattice violates the structure condition")
    pairings = [rho_check_pairing(algebra, w) for w in lattice.weights]
    top = max(pairings, default=Fraction(0))
    length = 2 * top
    if length.denominator != 1:
        raise ValueError("non-integer length; not a splitting-poset weight set")
    values = {}
    for i, p in enumerate(pairings):
        r = top + p
        if r.denominator != 1:
            raise ValueError("non-integer rank value")
        values[i] = int(r)
    length = int(length)
    if set(values.values()) != set(range(length + 1)):
        raise ValueError("pairing values do not fill 0..l")
    for i, j, _ in lattice.covers:
        if values[i] + 1 != values[j]:
            raise ValueError("pairing is not a rank function")
    return RankFunction(tuple(sorted(values.items())), length)


class TestWeylGroup:
    def test_reflection_example(self):
        assert simple_reflection(Algebra.A2, ALPHA, (1, 0)) == (-1, 1)
        assert simple_reflection(Algebra.A2, BETA, (1, 0)) == (1, 0)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_reflections_are_involutions(self, algebra):
        for mu in itertools.product(range(-3, 4), repeat=2):
            for color in (ALPHA, BETA):
                once = simple_reflection(algebra, color, mu)
                assert simple_reflection(algebra, color, once) == mu

    def test_orders(self):
        sizes = {Algebra.A1A1: 4, Algebra.A2: 6, Algebra.C2: 8, Algebra.G2: 12}
        for algebra, n in sizes.items():
            assert len(weyl_group(algebra)) == n

    def test_positive_root_counts(self):
        counts = {Algebra.A1A1: 2, Algebra.A2: 3, Algebra.C2: 4, Algebra.G2: 6}
        for algebra, n in counts.items():
            assert len(POSITIVE_ROOTS[algebra]) == n


class TestAlternatingSums:
    @pytest.mark.parametrize("algebra", [Algebra.A2, Algebra.C2, Algebra.G2])
    def test_literal_expansions(self, algebra):
        assert alternating_sum(algebra, (1, 1)) == RHO_SUM_LITERAL[algebra]

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_product_over_positive_roots(self, algebra):
        prod = LaurentPoly2.monomial(1, 1)
        for (p, q) in POSITIVE_ROOTS[algebra]:
            prod = prod * (LaurentPoly2.monomial(0, 0) - LaurentPoly2.monomial(-p, -q))
        assert prod == alternating_sum(algebra, (1, 1))

    def test_wall_weight_vanishes(self):
        # (0,1) is fixed by one reflection, so the signed orbit sum cancels
        assert alternating_sum(Algebra.A2, (0, 1)) == LaurentPoly2.zero()

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (2, 1), (3, 3)])
    def test_numerator_literals(self, a, b):
        def terms_a2(a, b):
            return {(a + 1, b + 1): 1, (-(a + 1), a + b + 2): -1,
                    (a + b + 2, -(b + 1)): -1, (-(a + b + 2), a + 1): 1,
                    (b + 1, -(a + b + 2)): 1, (-(b + 1), -(a + 1)): -1}

        def terms_c2(a, b):
            return {(a + 1, b + 1): 1, (-(a + 1), a + b + 2): -1,
                    (a + 2 * b + 3, -(b + 1)): -1, (-(a + 2 * b + 3), a + b + 2): 1,
                    (a + 2 * b + 3, -(a + b + 2)): 1, (-(a + 2 * b + 3), b + 1): -1,
                    (a + 1, -(a + b + 2)): -1, (-(a + 1), -(b + 1)): 1}

        def terms_g2(a, b):
            return {(a + 1, b + 1): 1, (-(a + 1), a + b + 2): -1,
                    (a + 3 * b + 4, -(b + 1)): -1,
                    (-(a + 3 * b + 4), a + 2 * b + 3): 1,
                    (2 * a + 3 * b + 5, -(a + b + 2)): 1,
                    (-(2 * a + 3 * b + 5), a + 2 * b + 3): -1,
                    (2 * a + 3 * b + 5, -(a + 2 * b + 3)): -1,
                    (-(2 * a + 3 * b + 5), a + b + 2): 1,
                    (a + 3 * b + 4, -(a + 2 * b + 3)): 1,
                    (-(a + 3 * b + 4), b + 1): -1,
                    (a + 1, -(a + b + 2)): -1, (-(a + 1), -(b + 1)): 1}

        for algebra, terms in ((Algebra.A2, terms_a2), (Algebra.C2, terms_c2),
                               (Algebra.G2, terms_g2)):
            assert alternating_sum(algebra, (a + 1, b + 1)) == LaurentPoly2(terms(a, b))


class TestCharacters:
    def test_first_fundamental_character(self):
        chi = character_from_lattice(lattice(Algebra.A2, (1, 0)))
        assert chi == LaurentPoly2({(1, 0): 1, (-1, 1): 1, (0, -1): 1})

    def test_trivial_character(self):
        assert character_from_lattice(lattice(Algebra.G2, (0, 0))) == LaurentPoly2.monomial(0, 0)

    def test_g2_second_fundamental_multiplicities(self):
        chi = character_from_lattice(lattice(Algebra.G2, (0, 1)))
        assert sum(chi.coeffs.values()) == 14
        assert chi.coeffs[(0, 0)] == 2

    def test_verify_adjoint(self):
        chi = character_from_lattice(lattice(Algebra.A2, (1, 1)))
        assert sum(chi.coeffs.values()) == 8
        assert verify_weyl_character(Algebra.A2, (1, 1), chi)

    def test_verify_g2_22(self):
        chi = character_from_lattice(lattice(Algebra.G2, (2, 2)))
        assert verify_weyl_character(Algebra.G2, (2, 2), chi)

    def test_trivial_verifies(self):
        assert verify_weyl_character(Algebra.C2, (0, 0), LaurentPoly2.monomial(0, 0))

    def test_wrong_character_fails(self):
        assert not verify_weyl_character(Algebra.C2, (1, 0), LaurentPoly2.monomial(0, 0))

    def test_invariance(self):
        for algebra in Algebra:
            chi = character_from_lattice(lattice(algebra, (2, 1)))
            assert is_weyl_invariant(algebra, chi)

    def test_both_orders_same_character(self):
        for algebra in Algebra:
            for lam in [(1, 1), (2, 1)]:
                assert character_from_lattice(lattice(algebra, lam)) == \
                    character_from_lattice(lattice(algebra, lam, "alpha_beta"))


class TestRankGeneratingFunctions:
    def test_g2_22(self):
        closed = rgf_product(Algebra.G2, (2, 2))
        assert sum(closed.coeffs) == 729
        assert closed == rgf_from_lattice(lattice(Algebra.G2, (2, 2)))

    def test_c2_11_total(self):
        assert sum(rgf_product(Algebra.C2, (1, 1)).coeffs) == 16

    def test_empty_weight(self):
        assert rgf_product(Algebra.A2, (0, 0)) == QPoly.one()

    def test_a1a1_product_form(self):
        lam = (2, 3)
        lat = lattice(Algebra.A1A1, lam)
        assert rgf_from_lattice(lat) == rgf_product(Algebra.A1A1, lam)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_palindromic_unimodal(self, algebra):
        for lam in [(1, 0), (1, 1), (3, 2)]:
            closed = rgf_product(algebra, lam)
            assert closed.is_palindromic()
            assert closed.is_unimodal()

    @pytest.mark.parametrize("algebra", list(Algebra))
    @pytest.mark.parametrize("lam", [(-2, 0), (0, -1)])
    def test_negative_weight_rejected(self, algebra, lam):
        with pytest.raises(ValueError, match="nonnegative"):
            rgf_product(algebra, lam)

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            QPoly((1, 1, 1)).divide_exact(QPoly((1, 1)))

    @pytest.mark.parametrize("m", range(5))
    def test_quasi_gaussian_family(self, m):
        lat = lattice(Algebra.G2, (0, m))
        assert rgf_from_lattice(lat) == quasi_gaussian_product(m)


class TestNaturalRank:
    def test_g2_22_length(self):
        nr = natural_rank(lattice(Algebra.G2, (2, 2)), Algebra.G2)
        assert nr.length == 32

    def test_empty_weight_length(self):
        nr = natural_rank(lattice(Algebra.C2, (0, 0)), Algebra.C2)
        assert nr.length == 0

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_equals_cardinality(self, algebra):
        for lam in [(1, 0), (1, 1), (2, 2)]:
            lat = lattice(algebra, lam)
            nr = natural_rank(lat, algebra)
            assert nr.ranks == tuple((i, lat.size_of(i)) for i in range(len(lat)))

    def test_rejects_nonsplitting_lattice(self):
        lat = order_ideals(load_fixture("nonsplitting_grid"))
        for algebra in Algebra:
            with pytest.raises(ValueError):
                natural_rank(lat, algebra)
