"""Fundamental posets for the rank-two algebras and the semistandard-poset
builders that concatenate them.

Each fundamental poset is stored as a literal fixture: vertices in a fixed
bottom-to-top linear extension, each carrying a chain index and a color,
plus the cover list.  A semistandard poset is a stack of such pieces: the
pieces of the second weight type sit one chain to the right, every global
chain is the concatenation of the per-piece chain segments in piece order,
and consecutive segments of one chain are joined by a single cover.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property, lru_cache
from types import MappingProxyType

from .algebras import ALPHA, BETA, Algebra, Color, Weight, nonnegative_weight
from .grid import Decomposition, GridPoset
from .record import record
TYPE_CHECKING = False  # as typing's, without importing typing
if TYPE_CHECKING:
    from typing import Literal
    from .lattice import IdealLattice
    Order = Literal["beta_alpha", "alpha_beta"]
    Which = Literal["alpha_fund", "beta_fund"]


# (chain, color) per local vertex, bottom to top, plus covers (lo, hi).
_A = ALPHA
_B = BETA
_FUNDAMENTALS: dict[tuple[Algebra, Which], tuple[tuple[tuple[int, Color], ...], tuple[tuple[int, int], ...]]] = {
    (Algebra.A1A1, "alpha_fund"): (((1, _A),), ()),
    (Algebra.A1A1, "beta_fund"): (((1, _B),), ()),
    (Algebra.A2, "alpha_fund"): (((2, _B), (1, _A)), ((0, 1),)),
    (Algebra.A2, "beta_fund"): (((2, _A), (1, _B)), ((0, 1),)),
    (Algebra.C2, "alpha_fund"): (((3, _A), (2, _B), (1, _A)), ((0, 1), (1, 2))),
    (Algebra.C2, "beta_fund"): (((3, _B), (2, _A), (2, _A), (1, _B)),
                                ((0, 1), (1, 2), (2, 3))),
    (Algebra.G2, "alpha_fund"): (((5, _A), (4, _B), (3, _A), (3, _A), (2, _B), (1, _A)),
                                 ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))),
    # The 10-vertex poset: chains sized 1,3,2,3,1 top to bottom; the two
    # middle beta vertices each sit between alpha neighbours one chain away.
    (Algebra.G2, "beta_fund"): (
        ((5, _B), (4, _A), (4, _A), (4, _A), (3, _B), (3, _B),
         (2, _A), (2, _A), (2, _A), (1, _B)),
        ((0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5),
         (4, 6), (5, 7), (6, 7), (7, 8), (8, 9)),
    ),
}


@lru_cache(maxsize=None)
def fundamental_poset(algebra: Algebra, which: Which) -> GridPoset:
    """One of the eight fundamental grid posets."""
    verts, covers = _FUNDAMENTALS[(algebra, which)]
    colors = {i: c for i, (_, c) in enumerate(verts)}
    chain = {i: ch for i, (ch, _) in enumerate(verts)}
    return GridPoset.build(colors, covers, chain)


def _label(algebra: Algebra, which: Which) -> str:
    return f"{algebra.value}{'(1,0)' if which == 'alpha_fund' else '(0,1)'}"


@lru_cache(maxsize=None)
def fundamental_fixtures() -> Mapping[str, GridPoset]:
    """The eight fundamental posets by label, read-only: every caller shares it."""
    return MappingProxyType({_label(*key): fundamental_poset(*key) for key in _FUNDAMENTALS})


@lru_cache(maxsize=None)
def fundamental_lattice(algebra: Algebra, which: Which) -> IdealLattice:
    """The lattice of order ideals of one fundamental poset, walked once per
    process: every caller shares it and its columns, so each is read-only."""
    from .lattice import order_ideals  # deferred: lattice imports build

    return order_ideals(fundamental_poset(algebra, which))


@record
class SemistandardPoset:
    """A built semistandard poset together with its piece structure."""

    grid: GridPoset
    algebra: Algebra
    order: Order
    weight: Weight

    @cached_property
    def kinds(self) -> tuple[Which, ...]:
        """The fundamental poset of each piece, in concatenation order."""
        return tuple(kind for kind, _ in _piece_sequence(self.algebra, self.order, self.weight))

    @cached_property
    def decomposition(self) -> Decomposition:
        """The concatenated pieces, one id range each, labelled with no search.
        Each piece is its fundamental poset with ids shifted by its offset,
        and chain indices by its constant, built from the fixture alone, not
        read off the grid; the shift keeps the total order, so its lattice is
        the fundamental lattice shifted (`IdealLattice.shifted`)."""
        pieces, lattices, pos = [], [], 0
        for kind, chain_offset in _piece_sequence(self.algebra, self.order, self.weight):
            fund = fundamental_lattice(self.algebra, kind)
            grid = fund.poset
            pieces.append(GridPoset(grid.base.shifted(pos),
                                    tuple((v + pos, c + chain_offset) for v, c in grid.chains)))
            lattices.append(fund.shifted(pieces[-1], pos))
            pos += len(fund.vertex_order)
        return Decomposition(tuple(pieces), tuple(_label(self.algebra, k) for k in self.kinds),
                             self.grid.total_order, tuple(lattices))


def _piece_sequence(algebra: Algebra, order: Order, lam: Weight) -> list[tuple[Which, int]]:
    """(kind, chain offset) per piece, in concatenation order; the second
    kind's offset is 1 only after pieces of the first, so chains are onto 1..m."""
    a, b = nonnegative_weight(lam)
    if order == "beta_alpha":
        return [("beta_fund", 0)] * b + [("alpha_fund", int(b > 0))] * a
    if order == "alpha_beta":
        return [("alpha_fund", 0)] * a + [("beta_fund", int(a > 0))] * b
    raise ValueError(f"order must be beta_alpha or alpha_beta, got {order!r}")


def semistandard_poset(algebra: Algebra, order: Order, lam: Weight) -> SemistandardPoset:
    """Concatenate b copies of one fundamental poset and a of the other.

    Piece vertices get consecutive global ids in concatenation order, each
    piece numbered bottom to top as in its fixture.
    """
    colors: dict[int, Color] = {}
    chain: dict[int, int] = {}
    covers: set[tuple[int, int]] = set()
    segments: dict[int, list[int]] = {}  # global chain -> vertex ids bottom to top
    for kind, offset in _piece_sequence(algebra, order, lam):
        verts, piece_covers = _FUNDAMENTALS[(algebra, kind)]
        pos = len(colors)
        for local, (ch, col) in enumerate(verts):
            colors[pos + local] = col
            chain[pos + local] = ch + offset
            segments.setdefault(ch + offset, []).append(pos + local)
        # same-chain piece covers reappear as consecutive segment pairs
        covers.update((pos + lo, pos + hi) for lo, hi in piece_covers
                      if verts[lo][0] != verts[hi][0])
    for seg in segments.values():
        covers.update(zip(seg, seg[1:]))
    grid = GridPoset.build(colors, covers, chain)
    return SemistandardPoset(grid, algebra, order, lam)


def semistandard_poset_oracle(algebra: Algebra, lam: Weight):
    """Independent construction path for differential testing.

    For the simple algebras the lattice is rebuilt from tableaux and the
    poset of its join-irreducibles is extracted, with each join-irreducible
    colored by the color of its unique lower cover.  For A1+A1 the lattice
    is the colored product of two chains.
    """
    from .lattice import join_irreducible_poset
    from .poset import EdgeColoredPoset, product

    if algebra is Algebra.A1A1:
        a, b = lam
        alpha_chain = EdgeColoredPoset(
            tuple(range(a + 1)), frozenset((i, i + 1, ALPHA) for i in range(a)))
        beta_chain = EdgeColoredPoset(
            tuple(range(b + 1)), frozenset((i, i + 1, BETA) for i in range(b)))
        lattice = product(beta_chain, alpha_chain)
    else:
        from .tableaux import tableau_lattice

        lattice = tableau_lattice(algebra, lam).edge_poset
    return join_irreducible_poset(lattice)
