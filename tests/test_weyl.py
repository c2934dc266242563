import itertools
import math
from fractions import Fraction

import pytest

from conftest import random_colored_poset
from ranktwo.algebras import ALPHA, BETA, CARTAN, Algebra, cartan_matrix
from ranktwo.build import semistandard_poset
from ranktwo.fixtures import FIXTURE_NAMES, load_fixture
from ranktwo.lattice import IdealLattice, check_structure, order_ideals
from ranktwo.poset import RankFunction
from ranktwo.verify import RHO_SUM_LITERAL, quasi_gaussian_product
from ranktwo.weyl import (LaurentPoly2, QPoly, alternating_sum,
                          character_from_lattice, q_product, rgf_from_lattice,
                          rgf_product, simple_reflection, verify_weyl_character)


# Positive roots in fundamental-weight coordinates.
POSITIVE_ROOTS = {
    Algebra.A1A1: ((2, 0), (0, 2)),
    Algebra.A2: ((2, -1), (-1, 2), (1, 1)),
    Algebra.C2: ((2, -1), (-2, 2), (0, 1), (2, 0)),
    Algebra.G2: ((2, -1), (-3, 2), (-1, 1), (1, 0), (3, -1), (0, 1)),
}


def lattice(algebra, lam, order="beta_alpha"):
    return order_ideals(semistandard_poset(algebra, order, lam))


def _apply(m, w):
    # weights are row vectors
    (a, b), (c, d) = m
    p, q = w
    return (p * a + q * c, p * b + q * d)


def reference_weyl_group(algebra: Algebra):
    """The Weyl group as sorted (matrix, determinant) pairs: the closure of
    the two simple reflections' matrices under multiplication."""
    gens = [tuple(simple_reflection(algebra, color, e) for e in ((1, 0), (0, 1)))
            for color in (ALPHA, BETA)]
    identity = ((1, 0), (0, 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = (_apply(g, m[0]), _apply(g, m[1]))  # m times g
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return sorted((m, m[0][0] * m[1][1] - m[0][1] * m[1][0]) for m in seen)


def reference_alternating_sum(algebra: Algebra, mu) -> LaurentPoly2:
    """Oracle: the literal sum over W of det(w) e^(w mu), one monomial per
    group element."""
    out = LaurentPoly2.zero()
    for m, det in reference_weyl_group(algebra):
        out = out + LaurentPoly2.monomial(*_apply(m, mu), det)
    return out


def reference_rank_counts(lattice: IdealLattice) -> QPoly:
    """Oracle: the number of elements of each popcount, counted mask by mask."""
    counts: dict[int, int] = {}
    for r in map(int.bit_count, lattice.elements):
        counts[r] = counts.get(r, 0) + 1
    top = max(counts) if counts else 0
    return QPoly(tuple(counts.get(r, 0) for r in range(top + 1)))


def _one_minus_q_power(n: int) -> QPoly:
    cs = [0] * (n + 1)
    cs[0] = 1
    cs[n] -= 1
    return QPoly(cs)


def _multiply(left: QPoly, right: QPoly) -> QPoly:
    if not left.coeffs or not right.coeffs:
        return QPoly()
    out = [0] * (len(left.coeffs) + len(right.coeffs) - 1)
    for i, a in enumerate(left.coeffs):
        if a:
            for j, b in enumerate(right.coeffs):
                out[i + j] += a * b
    return QPoly(out)


def _divide_exact(num: QPoly, den: QPoly) -> QPoly:
    """Synthetic division; a nonzero remainder raises."""
    if not den.coeffs:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(num.coeffs)
    div = den.coeffs
    if len(rem) < len(div):
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return QPoly()
    out = [0] * (len(rem) - len(div) + 1)
    for k in range(len(out) - 1, -1, -1):
        if rem[k + len(div) - 1] % div[-1]:
            raise ArithmeticError("inexact polynomial division")
        c = rem[k + len(div) - 1] // div[-1]
        out[k] = c
        if c:
            for j, b in enumerate(div):
                rem[k + j] -= c * b
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return QPoly(out)


def reference_q_product(nums, dens) -> QPoly:
    """Oracle: the dense product of the factors 1 - q^n over nums, then
    synthetic division by each 1 - q^d over dens."""
    out = QPoly((1,))
    for n in nums:
        out = _multiply(out, _one_minus_q_power(n))
    for d in dens:
        out = _divide_exact(out, _one_minus_q_power(d))
    return out


def positive_coroots(algebra: Algebra):
    """The positive coroots in simple-coroot coordinates, reached from the
    simple coroots by simple reflections.  CARTAN[algebra][i][j] is
    <alpha_i, alpha_j^vee>, so s_i(y) = y - <alpha_i, y> alpha_i^vee."""
    cartan = CARTAN[algebra]
    seen = {(1, 0), (0, 1)}
    walk = list(seen)
    for y in walk:
        for i in (0, 1):
            v = list(y)
            v[i] -= y[0] * cartan[i][0] + y[1] * cartan[i][1]
            v = tuple(v)
            if v not in seen:
                seen.add(v)
                walk.append(v)
    return sorted(y for y in seen if min(y) >= 0)


def coroot_factors(algebra: Algebra, lam):
    """Corollary 5.4's exponents: <lam+rho, beta^vee> over <rho, beta^vee>
    for the positive coroots beta^vee."""
    a, b = lam
    coroots = positive_coroots(algebra)
    return ([(a + 1) * x + (b + 1) * y for x, y in coroots],
            [x + y for x, y in coroots])


def assert_matches_reference(nums, dens) -> bool:
    """q_product equals the oracle or raises its error; True if exact."""
    try:
        expected = reference_q_product(nums, dens)
    except ArithmeticError as err:
        with pytest.raises(ArithmeticError) as raised:
            q_product(nums, dens)
        assert raised.type is type(err), (nums, dens)
        return False
    assert q_product(nums, dens) == expected, (nums, dens)
    return True


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
        # rho is regular: its signed orbit sum has one term per group element
        sizes = {Algebra.A1A1: 4, Algebra.A2: 6, Algebra.C2: 8, Algebra.G2: 12}
        for algebra, n in sizes.items():
            assert len(reference_weyl_group(algebra)) == n
            assert len(alternating_sum(algebra, (1, 1)).coeffs) == n

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

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_orbit_walk_matches_the_sum_over_the_group(self, algebra):
        walls = 0
        for mu in itertools.product(range(-6, 7), repeat=2):
            expected = reference_alternating_sum(algebra, mu)
            assert alternating_sum(algebra, mu) == expected, mu
            walls += not expected
        # the zero sums are the weights on one of the 2, 3, 4 or 6 walls
        # through the origin, those fixed by a reflection in W
        assert walls == {Algebra.A1A1: 25, Algebra.A2: 37, Algebra.C2: 43,
                         Algebra.G2: 51}[algebra]

    def test_list_weight(self):
        for algebra in Algebra:
            assert alternating_sum(algebra, [2, 1]) == alternating_sum(algebra, (2, 1))
            assert alternating_sum(algebra, [0, 1]) == LaurentPoly2.zero()

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
        assert rgf_product(Algebra.A2, (0, 0)) == QPoly((1,))

    def test_a1a1_product_form(self):
        lam = (2, 3)
        lat = lattice(Algebra.A1A1, lam)
        assert rgf_from_lattice(lat) == rgf_product(Algebra.A1A1, lam)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_palindromic_unimodal(self, algebra):
        for lam in itertools.product(range(31), repeat=2):
            nums, dens = coroot_factors(algebra, lam)
            closed = rgf_product(algebra, lam)
            # the Weyl dimension formula, cleared of its denominator
            assert sum(closed.coeffs) * math.prod(dens) == math.prod(nums), lam
            assert closed.is_palindromic() and closed.is_unimodal(), lam

    @pytest.mark.parametrize("algebra", list(Algebra))
    @pytest.mark.parametrize("lam", [(-2, 0), (0, -1)])
    def test_negative_weight_rejected(self, algebra, lam):
        with pytest.raises(ValueError, match="nonnegative"):
            rgf_product(algebra, lam)

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError, match="inexact"):
            q_product((3,), (2,))

    @pytest.mark.parametrize("d", [0, -1])
    def test_zero_denominator_factor_raises(self, d):
        # 1 - q^0 is the zero polynomial; without the guard the upward pass
        # would double every coefficient
        with pytest.raises(ZeroDivisionError):
            q_product((2, 3), (1, d))

    @pytest.mark.parametrize("m", range(5))
    def test_quasi_gaussian_family(self, m):
        lat = lattice(Algebra.G2, (0, m))
        assert rgf_from_lattice(lat) == quasi_gaussian_product(m)


class TestQProductMatchesReference:
    """q_product's two coefficient passes against dense multiplication and
    synthetic division."""

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_algebra_factor_lists(self, algebra):
        for lam in itertools.product(range(13), repeat=2):
            assert assert_matches_reference(*coroot_factors(algebra, lam))

    @pytest.mark.parametrize("m", range(21))
    def test_quasi_gaussian_factor_lists(self, m):
        nums, dens = (m + 1, m + 2, 2 * m + 3, 3 * m + 4, 3 * m + 5), (1, 2, 3, 4, 5)
        assert quasi_gaussian_product(m) == reference_q_product(nums, dens)

    def test_random_factor_lists(self, rng):
        exact = 0
        for _ in range(2000):
            nums = [rng.randint(0, 9) for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.5:  # each d divides its own n: exact
                dens = [rng.choice([d for d in range(1, n + 1) if n % d == 0])
                        for n in nums if n and rng.random() < 0.7]
                rng.shuffle(dens)
            else:
                dens = [rng.randint(1, 9) for _ in range(rng.randint(0, 4))]
            exact += assert_matches_reference(nums, dens)
        assert 1000 < exact < 1900, exact


class TestCorootFactors:
    """rgf_product's literal factor lists against the coroots that the
    Cartan matrices generate."""

    def test_g2_coroots(self):
        assert positive_coroots(Algebra.G2) == [(0, 1), (1, 0), (1, 1), (1, 2),
                                                (1, 3), (2, 3)]

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_positive_coroot_counts(self, algebra):
        assert len(positive_coroots(algebra)) == len(POSITIVE_ROOTS[algebra])

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_rgf_product_is_the_coroot_product(self, algebra):
        for lam in itertools.product(range(7), repeat=2):
            assert rgf_product(algebra, lam) == reference_q_product(
                *coroot_factors(algebra, lam)), lam


class TestPolynomialValues:
    def test_unhashable(self):
        # both are mutable values compared by their coefficients
        for poly in (LaurentPoly2(), QPoly()):
            with pytest.raises(TypeError):
                hash(poly)


class TestRankCountsMatchReference:
    """rgf_from_lattice, read off the size blocks, against a count per mask."""

    @staticmethod
    def _assert_counts(lat):
        assert rgf_from_lattice(lat) == reference_rank_counts(lat)
        assert sum(lat.rank_sizes) == len(lat)

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_built_lattices(self, algebra):
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                self._assert_counts(lattice(algebra, lam, order))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        self._assert_counts(order_ideals(load_fixture(name)))

    def test_random_posets(self, rng):
        for _ in range(40):
            self._assert_counts(order_ideals(random_colored_poset(rng, rng.randint(1, 10))))


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
            assert nr.ranks == tuple(enumerate(map(int.bit_count, lat.elements)))

    def test_rejects_nonsplitting_lattice(self):
        lat = order_ideals(load_fixture("nonsplitting_grid"))
        for algebra in Algebra:
            with pytest.raises(ValueError):
                natural_rank(lat, algebra)
