"""Semistandard tableaux for the simple rank-two algebras, the
ideal <-> tableau bijection, the tableau-native lattice, and the
correspondence with Littelmann's column-block tableaux.

Shapes are pairs (a, b): b columns of length two followed by a columns of
length one.  A column is a tuple of one or two strictly increasing entries.

Admissibility asks only about single columns and adjacent column pairs.
Per algebra, two frozensets built on first use from the predicates hold the
admissible columns and the admissible (left, right) pairs, and
is_semistandard reads a tableau by membership in them; only a tableau of
the wrong lengths or with a column outside the table goes through
check_shape, for its ShapeError.  More per-algebra tables, also built
on first use, serve the hot loops, each of which fetches them once:
- each admissible column's one-entry decrements that land on an admissible
  column, with the color of the new edge (tableau_lattice);
- each column's weight and each admissible block's Littelmann numerator,
  summed from per-entry weights (tableauwt, wt_lit);
- the admissible (left, right) block pairs (enumerate_littelmann).
Every caller shares a cached table, so each is read-only.

A TableauLattice holds its covers as a frozenset of (i, j, color); the
generic EdgeColoredPoset, whose validation keeps one reach mask per
tableau, is built only on demand, through `edge_poset`.

The bijection reads a beta-alpha lattice through its builder pieces, one per
column, as whole-lattice columns.  The tableaux read each piece's column of
`lattice.projection_columns` through its column table: the one projection,
whose other readers are additivity's `weight_via_decomposition` and
`piece_rank_stats`.  The ideals OR their columns' piece masks position by
position; no vertex set is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import or_
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, TypeVar

from .algebras import ALPHA, BETA, Algebra, Color, Weight, nonnegative_weight
from .build import SemistandardPoset, fundamental_poset
from .lattice import IdealLattice, order_ideals, projection_columns
from .poset import EdgeColoredPoset, edge_color_isomorphism

Column = tuple[int, ...]
Tableau = tuple[Column, ...]
Block = tuple[Column, ...]
LittelmannTableau = tuple[Block, ...]
T = TypeVar("T")


class ShapeError(ValueError):
    """Malformed shape or alphabet, as opposed to a mere admissibility failure."""


ALPHABET_SIZE = {Algebra.A2: 3, Algebra.C2: 4, Algebra.G2: 7}

_FORBIDDEN_G2 = {(2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)}

# forbidden successors, keyed by the left column
_SUCCESSOR_FORBIDDEN_G2: dict[Column, frozenset[Column]] = {
    (4,): frozenset({(4,)}),
    (1, 4): frozenset({(1,), (1, 4), (1, 5), (1, 6), (1, 7)}),
    (1, 5): frozenset({(1,), (1, 5), (1, 6), (1, 7)}),
    (1, 6): frozenset({(1,), (2,), (1, 6), (1, 7), (2, 6), (2, 7)}),
    (2, 6): frozenset({(2,), (2, 6), (2, 7)}),
    (1, 7): frozenset({(1,), (2,), (3,), (4,), (1, 7), (2, 7), (3, 7), (4, 7)}),
    (2, 7): frozenset({(2,), (3,), (4,), (2, 7), (3, 7), (4, 7)}),
    (3, 7): frozenset({(3,), (4,), (3, 7), (4, 7)}),
    (4, 7): frozenset({(4,), (4, 7)}),
}

# decrementing an entry to this value colors the new edge
EDGE_COLOR_OF_VALUE: dict[Algebra, dict[int, Color]] = {
    Algebra.A2: {1: ALPHA, 2: BETA},
    Algebra.C2: {1: ALPHA, 2: BETA, 3: ALPHA},
    Algebra.G2: {1: ALPHA, 2: BETA, 3: ALPHA, 4: ALPHA, 5: BETA, 6: ALPHA},
}


def _require_simple(algebra: Algebra) -> None:
    if not algebra.is_simple:
        raise ValueError("tableaux are defined for the simple algebras only")


# Weight of one entry in fundamental-weight coordinates: a tableau weighs
# the sum of its entries (G2's middle entry 4 weighs nothing).
_ENTRY_WEIGHT: dict[Algebra, dict[int, Weight]] = {
    Algebra.A2: {1: (1, 0), 2: (-1, 1), 3: (0, -1)},
    Algebra.C2: {1: (1, 0), 2: (-1, 1), 3: (1, -1), 4: (-1, 0)},
    Algebra.G2: {1: (1, 0), 2: (-1, 1), 3: (2, -1), 4: (0, 0), 5: (-2, 1),
                 6: (1, -1), 7: (-1, 0)},
}

# The same for the entries of Littelmann blocks, and the block length that
# divides their sum (a G2 block has six columns over six entries).
_BLOCK_ENTRY_WEIGHT: dict[Algebra, dict[int, Weight]] = {
    Algebra.A2: _ENTRY_WEIGHT[Algebra.A2],
    Algebra.C2: _ENTRY_WEIGHT[Algebra.C2],
    Algebra.G2: {1: (1, 0), 2: (-1, 1), 3: (2, -1), 4: (-2, 1), 5: (1, -1),
                 6: (-1, 0)},
}
_BLOCK_LENGTH = {Algebra.A2: 1, Algebra.C2: 2, Algebra.G2: 6}


def _total(table: Mapping, items) -> Weight:
    """Sum of table[item] over the items; ShapeError for an item outside it."""
    x = y = 0
    for item in items:
        try:
            p, q = table[item]
        except KeyError:
            raise ShapeError(f"{item} is not over the alphabet") from None
        x += p
        y += q
    return x, y


def tableauwt(algebra: Algebra, t: Tableau) -> Weight:
    """Weight of a tableau: the sum of its columns' weights."""
    return _total(_column_weights(algebra), t)


def check_shape(algebra: Algebra, lam: Weight, t: Tableau) -> None:
    """Raise ShapeError unless t has shape lam over the right alphabet."""
    _require_simple(algebra)
    a, b = nonnegative_weight(lam, ShapeError)
    if len(t) != a + b:
        raise ShapeError(f"expected {a + b} columns, got {len(t)}")
    top = ALPHABET_SIZE[algebra]
    for i, column in enumerate(t):
        want = 2 if i < b else 1
        if len(column) != want:
            raise ShapeError(f"column {i + 1} must have {want} entries")
        if any(not (1 <= e <= top) for e in column):
            raise ShapeError(f"column {i + 1} has entries outside 1..{top}")
        if len(column) == 2 and column[0] >= column[1]:
            raise ShapeError(f"column {i + 1} does not strictly increase")


def _row_compatible(left: Column, right: Column) -> bool:
    return all(left[r] <= right[r] for r in range(min(len(left), len(right))))


def _pair_admissible(algebra: Algebra, left: Column, right: Column) -> bool:
    if not _row_compatible(left, right):
        return False
    if algebra is Algebra.C2 and left == (2, 3) and right == (2, 3):
        return False
    if algebra is Algebra.G2 and right in _SUCCESSOR_FORBIDDEN_G2.get(left, ()):
        return False
    return True


def _column_admissible(algebra: Algebra, column: Column) -> bool:
    if algebra is Algebra.C2 and column == (1, 4):
        return False
    if algebra is Algebra.G2 and column in _FORBIDDEN_G2:
        return False
    return True


def allowed_columns(algebra: Algebra, length: int) -> tuple[Column, ...]:
    top = ALPHABET_SIZE[algebra]
    return tuple(c for c in itertools.combinations(range(1, top + 1), length)
                 if _column_admissible(algebra, c))


@lru_cache(maxsize=None)
def _tables(algebra: Algebra) -> tuple[frozenset[Column], frozenset[tuple[Column, Column]]]:
    """The admissible columns, and the admissible adjacent (left, right)
    column pairs, of one simple algebra, built from the predicates."""
    _require_simple(algebra)
    columns = frozenset(allowed_columns(algebra, 1) + allowed_columns(algebra, 2))
    pairs = frozenset((left, right) for left in columns for right in columns
                      if _pair_admissible(algebra, left, right))
    return columns, pairs


@lru_cache(maxsize=None)
def _decrement_table(algebra: Algebra) -> Mapping[Column, tuple[tuple[Column, Color], ...]]:
    """Per admissible column, the admissible columns that lowering one of
    its entries by one gives, in entry order, each with the color of the
    new edge."""
    columns, _ = _tables(algebra)
    color_of = EDGE_COLOR_OF_VALUE[algebra]
    lowered = {column: [(column[:j] + (e - 1,) + column[j + 1:], color_of[e - 1])
                        for j, e in enumerate(column) if e > 1]
               for column in columns}
    return MappingProxyType({column: tuple((new, color) for new, color in pairs if new in columns)
                             for column, pairs in lowered.items()})


def _by_column(entry_weight: Mapping[int, Weight]) -> Mapping[Column, Weight]:
    """Every well-formed column over entry_weight's alphabet, weighed."""
    return MappingProxyType({c: _total(entry_weight, c) for n in (1, 2)
                             for c in itertools.combinations(sorted(entry_weight), n)})


@lru_cache(maxsize=None)
def _column_weights(algebra: Algebra) -> Mapping[Column, Weight]:
    """The weight of every well-formed column, inadmissible ones too."""
    _require_simple(algebra)
    return _by_column(_ENTRY_WEIGHT[algebra])


@lru_cache(maxsize=None)
def _block_weights(algebra: Algebra) -> tuple[Mapping[Column, Weight], Mapping[Block, Weight], int]:
    """Littelmann numerators per well-formed block column and per
    admissible block, and the block length that divides them."""
    _require_simple(algebra)
    columns = _by_column(_BLOCK_ENTRY_WEIGHT[algebra])
    blocks = admissible_blocks(algebra, 1) + admissible_blocks(algebra, 2)
    return (columns, MappingProxyType({block: _total(columns, block) for block in blocks}),
            _BLOCK_LENGTH[algebra])


@lru_cache(maxsize=None)
def _block_pairs(algebra: Algebra) -> frozenset[tuple[Block, Block]]:
    """The (left, right) pairs of admissible blocks whose facing columns,
    left's last and right's first, are row compatible."""
    _require_simple(algebra)
    blocks = admissible_blocks(algebra, 1) + admissible_blocks(algebra, 2)
    return frozenset((left, right) for left in blocks for right in blocks
                     if _row_compatible(left[-1], right[0]))


def is_semistandard(algebra: Algebra, lam: Weight, t: Tableau) -> bool:
    """Admissibility within the fixed shape (ShapeError if malformed).

    The shape's column lengths, then membership in the algebra's column and
    pair tables.  Wrong lengths or a column outside the table send t to
    check_shape, which raises ShapeError if t is malformed; else a column
    is inadmissible.
    """
    columns, pairs = _tables(algebra)
    a, b = nonnegative_weight(lam, ShapeError)
    # lengths as a list: tuple(map(...)) shrinks a guessed-size tuple, and
    # each one freed would stock CPython's tuple free list (128 KB when full)
    if (len(t) == a + b and list(map(len, t)) == [2] * b + [1] * a
            and columns.issuperset(t)):
        return pairs.issuperset(zip(t, t[1:]))
    check_shape(algebra, lam, t)
    return False


def _sequences(options: Sequence[Sequence[T]],
               compatible: Callable[[T, T], bool]) -> tuple[tuple[T, ...], ...]:
    """Every sequence taking one item from each options[i] in which each
    consecutive pair is compatible, sorted lexicographically."""
    seqs: list[tuple[T, ...]] = [()]
    for items in options:
        seqs = [s + (x,) for s in seqs for x in items if not s or compatible(s[-1], x)]
    return tuple(sorted(seqs))


def enumerate_tableaux(algebra: Algebra, lam: Weight) -> tuple[Tableau, ...]:
    """All admissible tableaux of the given shape, sorted lexicographically."""
    _, pairs = _tables(algebra)
    a, b = nonnegative_weight(lam)
    options = [allowed_columns(algebra, 2)] * b + [allowed_columns(algebra, 1)] * a
    return _sequences(options, lambda left, right: (left, right) in pairs)


# --- tableau-native lattice ---------------------------------------------------


@dataclass(frozen=True)
class TableauLattice:
    """The reverse-componentwise order on admissible tableaux, by its covers
    (i, j, color): tableau j is tableau i with one entry lowered by one."""

    algebra: Algebra
    weight: Weight
    tableaux: tuple[Tableau, ...]
    covers: frozenset[tuple[int, int, Color]]

    def __len__(self) -> int:
        return len(self.tableaux)

    @cached_property
    def edge_poset(self) -> EdgeColoredPoset:
        """The covers as a validated generic poset, built on demand."""
        return EdgeColoredPoset(tuple(range(len(self.tableaux))), self.covers)


def _windows(lam: Weight) -> list[tuple[int, Weight]]:
    """Per column i of shape lam, where its window t[i-1:i+2] starts and
    the window's own shape."""
    a, b = lam
    n = a + b
    out = []
    for i in range(n):
        lo, hi = max(i - 1, 0), min(i + 2, n)
        ones = hi - max(lo, b) if hi > b else 0
        out.append((lo, (ones, hi - lo - ones)))
    return out


def _decrements(algebra: Algebra, t: Tableau, lowered: Mapping, windows: list):
    """Tableaux covering t-as-lattice-element: one entry lowered by one.

    `lowered` is the algebra's decrement table, so every candidate's changed
    column is admissible, and `windows` is _windows of t's shape.  t is
    admissible, and admissibility asks only about single columns and
    adjacent pairs, so a candidate is checked on the changed column and its
    neighbours, t[i-1:i+2], under that window's own shape.
    """
    for i, (lo, shape) in enumerate(windows):
        left, right = t[lo:i], t[i + 1:i + 2]
        for new_col, color in lowered[t[i]]:
            if is_semistandard(algebra, shape, left + (new_col,) + right):
                yield t[:i] + (new_col,) + t[i + 1:], color


def tableau_lattice(algebra: Algebra, lam: Weight) -> TableauLattice:
    lowered = _decrement_table(algebra)
    tabs = enumerate_tableaux(algebra, lam)
    index = {t: i for i, t in enumerate(tabs)}
    windows = _windows(lam)
    covers = frozenset((index[t], index[upper], color) for t in tabs
                       for upper, color in _decrements(algebra, t, lowered, windows))
    return TableauLattice(algebra, lam, tabs, covers)


# --- per-column dictionary between fundamental ideals and columns ------------


@lru_cache(maxsize=None)
def _piece_column_maps(algebra: Algebra, which: str) -> tuple[tuple[Column, ...], dict]:
    """(column per fundamental-lattice element, column -> element) for one piece type.

    The dictionary is the unique edge-colored isomorphism between the
    fundamental ideal lattice and the one-column tableau lattice.
    """
    lam = (1, 0) if which == "alpha_fund" else (0, 1)
    fund = order_ideals(fundamental_poset(algebra, which))
    tl = tableau_lattice(algebra, lam)
    iso = edge_color_isomorphism(fund.edge_poset, tl.edge_poset)
    if iso is None:
        raise RuntimeError("fundamental lattice does not match its column lattice")
    columns = tuple(tl.tableaux[iso[i]][0] for i in range(len(fund)))
    return columns, {column: k for k, column in enumerate(columns)}


def _column_maps(lattice: IdealLattice) -> tuple[SemistandardPoset, list[tuple]]:
    """A beta-alpha lattice's built poset and its pieces' column maps, in column order."""
    sp = lattice.built
    if sp is None or sp.order != "beta_alpha":
        raise ValueError("tableaux are defined on beta-alpha semistandard lattices")
    _require_simple(sp.algebra)
    a, b = sp.weight
    return sp, ([_piece_column_maps(sp.algebra, "beta_fund")] * b
                + [_piece_column_maps(sp.algebra, "alpha_fund")] * a)


def tableau_of_ideal(lattice: IdealLattice) -> list[Tableau]:
    """Every element's tableau: per builder piece, its projection column
    read through the piece's column table; the columns zipped."""
    sp, maps = _column_maps(lattice)
    columns = [list(map(column_of.__getitem__, index)) for (_, index), (column_of, _) in
               zip(projection_columns(lattice, sp.decomposition), maps)]
    return list(zip(*columns)) if columns else [()]


def ideal_of_tableau(lattice: IdealLattice, tableaux: Sequence[Tableau]) -> list[int]:
    """The index in `lattice` of the order ideal labelled by each admissible
    tableau: per position, the ideal ORs its column's piece mask."""
    sp, maps = _column_maps(lattice)
    for t in tableaux:
        if not is_semistandard(sp.algebra, sp.weight, t):
            raise ValueError(f"tableau {tableau_text(t)} is not admissible for this shape")
    masks = [0] * len(tableaux)
    for position, (_, _, piece_masks), (_, element_of) in zip(
            zip(*tableaux), sp.decomposition.projections, maps):
        masks = list(map(or_, masks, (piece_masks[element_of[c]] for c in position)))
    return list(map(lattice.index_of.__getitem__, masks))


# --- Littelmann column blocks -------------------------------------------------


def _rep(col: Column, k: int) -> Block:
    return (col,) * k


_BLOCKS_SINGLE: dict[Algebra, dict[Column, Block]] = {
    Algebra.A2: {(v,): ((v,),) for v in (1, 2, 3)},
    Algebra.C2: {(v,): _rep((v,), 2) for v in (1, 2, 3, 4)},
    Algebra.G2: {
        (1,): _rep((1,), 6),
        (2,): _rep((2,), 6),
        (3,): _rep((3,), 6),
        (4,): _rep((3,), 3) + _rep((4,), 3),
        (5,): _rep((4,), 6),
        (6,): _rep((5,), 6),
        (7,): _rep((6,), 6),
    },
}

_BLOCKS_DOUBLE: dict[Algebra, dict[Column, Block]] = {
    Algebra.A2: {c: (c,) for c in ((1, 2), (1, 3), (2, 3))},
    Algebra.C2: {
        (1, 2): _rep((1, 2), 2),
        (1, 3): _rep((1, 3), 2),
        (2, 3): ((1, 3), (2, 4)),
        (2, 4): _rep((2, 4), 2),
        (3, 4): _rep((3, 4), 2),
    },
    Algebra.G2: {
        (1, 2): _rep((1, 2), 6),
        (1, 3): _rep((1, 3), 6),
        (1, 4): _rep((1, 3), 4) + _rep((2, 4), 2),
        (1, 5): _rep((1, 3), 2) + _rep((2, 4), 4),
        (2, 5): _rep((2, 4), 6),
        (1, 6): _rep((1, 3), 2) + ((2, 4),) + _rep((3, 5), 3),
        (2, 6): _rep((2, 4), 3) + _rep((3, 5), 3),
        (1, 7): _rep((1, 3), 2) + ((2, 4), (3, 5)) + _rep((4, 6), 2),
        (3, 6): _rep((3, 5), 6),
        (2, 7): _rep((2, 4), 3) + ((3, 5),) + _rep((4, 6), 2),
        (3, 7): _rep((3, 5), 4) + _rep((4, 6), 2),
        (4, 7): _rep((3, 5), 2) + _rep((4, 6), 4),
        (5, 7): _rep((4, 6), 6),
        (6, 7): _rep((5, 6), 6),
    },
}


def admissible_blocks(algebra: Algebra, rows: int) -> tuple[Block, ...]:
    table = _BLOCKS_DOUBLE[algebra] if rows == 2 else _BLOCKS_SINGLE[algebra]
    return tuple(sorted(table.values()))


def to_littelmann(algebra: Algebra, t: Tableau) -> LittelmannTableau:
    """Replace every column by its admissible block."""
    _require_simple(algebra)
    single, double = _BLOCKS_SINGLE[algebra], _BLOCKS_DOUBLE[algebra]
    blocks = []
    for column in t:
        table = double if len(column) == 2 else single
        if column not in table:
            raise ValueError(f"column {column} has no admissible block")
        blocks.append(table[column])
    return tuple(blocks)


def wt_lit(algebra: Algebra, u: LittelmannTableau) -> Weight:
    """Normalized weight of a block tableau; always integral on admissible input.

    Each block's numerator comes from the block table, or column by column
    for a block that is not admissible; the total is divided once.
    """
    column_num, block_num, length = _block_weights(algebra)
    x = y = 0
    for block in u:
        num = block_num.get(block)
        p, q = _total(column_num, block) if num is None else num
        x += p
        y += q
    (qx, rx), (qy, ry) = divmod(x, length), divmod(y, length)
    if rx or ry:
        raise ArithmeticError(f"non-integral block-tableau weight {(x, y)} / {length}")
    return (qx, qy)


def enumerate_littelmann(algebra: Algebra, lam: Weight) -> tuple[LittelmannTableau, ...]:
    """All semistandard block tableaux built from admissible blocks."""
    pairs = _block_pairs(algebra)
    a, b = nonnegative_weight(lam)
    options = [admissible_blocks(algebra, 2)] * b + [admissible_blocks(algebra, 1)] * a
    return _sequences(options, lambda left, right: (left, right) in pairs)


def tableau_text(t: Tableau) -> str:
    """Canonical whitespace-free text, e.g. [1,2][1]."""
    return "".join("[" + ",".join(str(e) for e in column) + "]" for column in t)


def littelmann_text(u: LittelmannTableau) -> str:
    return "|".join(tableau_text(block) for block in u)

