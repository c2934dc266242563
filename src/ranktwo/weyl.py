"""Exact Weyl-character machinery for the rank-two algebras.

The group ring of the weight lattice is modelled by two-variable integer
Laurent polynomials with x and y standing for the exponentials of the two
fundamental weights.  Characters of the ideal lattices are verified
against the alternating-sum quotient, each alternating sum a signed walk
of one Weyl orbit, and rank generating functions, the lattices' counts
per size, against their closed products: quotients of factors 1 - q^n,
each factor applied by one pass over a single coefficient list.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from .algebras import (ALPHA, BETA, Algebra, Color, Weight, nonnegative_weight,
                       simple_root)
from .lattice import IdealLattice

RHO: Weight = (1, 1)


class LaurentPoly2:
    """Sparse integer Laurent polynomial in x, y with exact arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[tuple[int, int], int] = {}
        if coeffs:
            for key, c in dict(coeffs).items():
                if c:
                    self.coeffs[key] = c

    @staticmethod
    def monomial(i: int, j: int, c: int = 1) -> "LaurentPoly2":
        return LaurentPoly2({(i, j): c})

    @staticmethod
    def zero() -> "LaurentPoly2":
        return LaurentPoly2()

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return LaurentPoly2(out)

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) - c
        return LaurentPoly2(out)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly2(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly2) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def terms(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.coeffs.items())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*x^{i}*y^{j}" for (i, j), c in self.terms())

    __repr__ = __str__


class QPoly:
    """Dense integer polynomial in q, its coefficients from the constant up."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def is_unimodal(self) -> bool:
        cs = self.coeffs
        peak = cs.index(max(cs)) if cs else 0
        return all(cs[i] <= cs[i + 1] for i in range(peak)) and all(
            cs[i] >= cs[i + 1] for i in range(peak, len(cs) - 1))

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coeffs) if self.coeffs else "0"

    __repr__ = __str__


# --- Weyl group -------------------------------------------------------------


def simple_reflection(algebra: Algebra, color: Color, mu: Weight) -> Weight:
    """s_gamma(mu) = mu - <mu, gamma-coordinate> * gamma."""
    p, q = mu
    root = simple_root(algebra, color)
    coeff = p if color is ALPHA else q
    return (p - coeff * root[0], q - coeff * root[1])


def alternating_sum(algebra: Algebra, mu: Weight) -> LaurentPoly2:
    """A_mu, the sum over W of det(w) e^(w mu), by one walk of mu's orbit.

    Each weight the walk reaches gets the opposite sign of the one it came
    from, as a simple reflection has determinant -1.  For regular mu, w mu
    determines w and so gets det(w).  A singular mu has a dominant orbit
    point fixed by a simple reflection, so its stabilizer holds equally many
    elements of each determinant and every term cancels (Humphreys,
    Introduction to Lie Algebras, 10.3): the walk returns zero at the first
    reflection that lands on a weight already of its own sign.
    """
    sign = {tuple(mu): 1}
    walk = list(sign)
    for w in walk:  # breadth first: walk grows by each weight reached
        for color in (ALPHA, BETA):
            v = simple_reflection(algebra, color, w)
            if v not in sign:
                sign[v] = -sign[w]
                walk.append(v)
            elif sign[v] == sign[w]:
                return LaurentPoly2.zero()
    return LaurentPoly2(sign)


def character_from_lattice(lattice: IdealLattice) -> LaurentPoly2:
    w = lattice.weights  # counted as raw pairs, then the few distinct ones shifted back
    return LaurentPoly2({(a - w.offset, b - w.offset): c
                         for (a, b), c in Counter(zip(w.alpha, w.beta)).items()})


def verify_weyl_character(algebra: Algebra, lam: Weight, chi: LaurentPoly2) -> bool:
    """A_rho * chi == A_(rho+lambda), exactly."""
    a, b = lam
    numerator = alternating_sum(algebra, (RHO[0] + a, RHO[1] + b))
    return alternating_sum(algebra, RHO) * chi == numerator


# --- Rank generating functions ----------------------------------------------


def rgf_from_lattice(lattice: IdealLattice) -> QPoly:
    """The number of elements of each size, read off the size blocks."""
    return QPoly(lattice.rank_sizes)


def q_product(nums: Iterable[int], dens: Iterable[int]) -> QPoly:
    """The product of (1 - q^n) over nums divided by that of (1 - q^d) over
    dens.  Multiplying is the downward pass c[k] -= c[k-n]; dividing is the
    upward pass c[k] += c[k-d], the quotient's power series, which is exact
    iff its top d coefficients are zero; if not, ArithmeticError."""
    c = [1]
    for n in nums:
        c.extend([0] * n)
        for k in range(len(c) - 1, n - 1, -1):
            c[k] -= c[k - n]
    for d in dens:
        if d < 1:
            raise ZeroDivisionError(f"division by 1 - q^{d}")
        for k in range(d, len(c)):
            c[k] += c[k - d]
        if any(c[-d:]):
            raise ArithmeticError("inexact polynomial division")
        del c[-d:]
    return QPoly(c)


def rgf_product(algebra: Algebra, lam: Weight) -> QPoly:
    """Closed product form, expanded by q_product.

    Numerator exponents are the pairings of lam+rho with the positive
    coroots, denominator exponents those of rho.
    """
    a, b = nonnegative_weight(lam)
    if algebra is Algebra.A1A1:
        nums, dens = [a + 1, b + 1], [1, 1]
    elif algebra is Algebra.A2:
        nums, dens = [a + 1, b + 1, a + b + 2], [1, 1, 2]
    elif algebra is Algebra.C2:
        nums, dens = [a + 1, b + 1, a + b + 2, a + 2 * b + 3], [1, 1, 2, 3]
    else:
        nums = [a + 1, b + 1, a + b + 2, a + 2 * b + 3, a + 3 * b + 4,
                2 * a + 3 * b + 5]
        dens = [1, 1, 2, 3, 4, 5]
    return q_product(nums, dens)

