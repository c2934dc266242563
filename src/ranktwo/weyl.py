"""Exact Weyl-character machinery for the rank-two algebras.

The group ring of the weight lattice is modelled by two-variable integer
Laurent polynomials with x and y standing for the exponentials of the two
fundamental weights.  Characters of the ideal lattices are verified
against the alternating-sum quotient, each alternating sum a signed walk
of one Weyl orbit, and rank generating functions, the lattices' counts
per size, against their closed product forms.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

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

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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
    """Dense integer polynomial in q; division is exact or an error."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def one() -> "QPoly":
        return QPoly((1,))

    @staticmethod
    def one_minus_q_power(n: int) -> "QPoly":
        cs = [0] * (n + 1)
        cs[0] = 1
        cs[n] -= 1
        return QPoly(cs)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divide_exact(self, other: "QPoly") -> "QPoly":
        """Synthetic division; a nonzero remainder raises."""
        if not other.coeffs:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
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
    return LaurentPoly2(Counter(lattice.weights))


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
    dens, expanded by exact division."""
    out = QPoly.one()
    for n in nums:
        out = out * QPoly.one_minus_q_power(n)
    for d in dens:
        out = out.divide_exact(QPoly.one_minus_q_power(d))
    return out


def rgf_product(algebra: Algebra, lam: Weight) -> QPoly:
    """Closed product form, expanded by exact division.

    Numerator exponents are the pairings of lam+rho with the positive
    roots scaled to the denominator exponents of the same quotient.
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

