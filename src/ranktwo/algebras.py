"""Rank-two algebra data: colors, Cartan matrices, simple roots, weights.

The two colors correspond to the two simple roots; alpha is always the
short one.  Weights live in fundamental-weight coordinates, so a weight is
just an integer pair (m_alpha, m_beta) and the simple roots are the rows
of the Cartan matrix.
"""

from __future__ import annotations

import enum


class Color(enum.Enum):
    ALPHA = "a"
    BETA = "b"

    # members are singletons compared by identity; Enum's own __hash__ is a
    # Python-level hash of the name
    __hash__ = object.__hash__

    def __lt__(self, other: "Color") -> bool:
        # alpha < beta, fixed for canonical serialization
        return self is Color.ALPHA and other is Color.BETA

    def __repr__(self) -> str:
        return f"Color.{self.name}"


ALPHA = Color.ALPHA
BETA = Color.BETA

SWAP = {ALPHA: BETA, BETA: ALPHA}
IDENTITY = {ALPHA: ALPHA, BETA: BETA}

Weight = tuple[int, int]


def nonnegative_weight(lam: Weight, error: type[ValueError] = ValueError) -> Weight:
    """lam itself, or `error` if a coordinate is negative."""
    a, b = lam
    if a < 0 or b < 0:
        raise error("weight coordinates must be nonnegative")
    return lam


class Algebra(enum.Enum):
    A1A1 = "a1a1"
    A2 = "a2"
    C2 = "c2"
    G2 = "g2"

    __hash__ = object.__hash__  # as for Color

    @property
    def is_simple(self) -> bool:
        return self is not Algebra.A1A1

    def __repr__(self) -> str:
        return f"Algebra.{self.name}"


# Cartan matrices; row ALPHA first, row BETA second.
CARTAN: dict[Algebra, tuple[Weight, Weight]] = {
    Algebra.A1A1: ((2, 0), (0, 2)),
    Algebra.A2: ((2, -1), (-1, 2)),
    Algebra.C2: ((2, -1), (-2, 2)),
    Algebra.G2: ((2, -1), (-3, 2)),
}


def cartan_matrix(algebra: Algebra) -> tuple[Weight, Weight]:
    return CARTAN[algebra]


def simple_root(algebra: Algebra, color: Color) -> Weight:
    rows = CARTAN[algebra]
    return rows[0] if color is ALPHA else rows[1]


# Dynkin-diagram symmetry induced by the longest Weyl element: only the
# A2 diagram has a nontrivial one among the rank-two cases.
def sigma0(algebra: Algebra) -> dict[Color, Color]:
    return SWAP if algebra is Algebra.A2 else IDENTITY


def parse_algebra(text: str) -> Algebra:
    try:
        return Algebra(text.lower())
    except ValueError:
        raise ValueError(f"unknown algebra {text!r}; expected one of a1a1, a2, c2, g2")
