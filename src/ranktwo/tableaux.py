"""Semistandard tableaux for the simple rank-two algebras, the
ideal <-> tableau bijection, the tableau-native lattice, and the
correspondence with Littelmann's column-block tableaux.

Shapes are pairs (a, b): b columns of length two followed by a columns of
length one.  A column is a tuple of one or two strictly increasing entries.

Admissibility asks only about single columns and adjacent column pairs.
Per algebra, three frozensets built on first use from the predicates hold
the admissible columns of length one, those of length two and the
admissible (left, right) pairs, and is_semistandard reads a tableau by
membership in them; only a tableau of the wrong lengths or with a column
outside the table goes through check_shape, for its ShapeError.

Everything else runs on integer codes.  `column_table` numbers each
algebra's admissible columns in sorted order, and a tableau is the
mixed-radix integer of its column ids, first column most significant, with
radix R the number of columns; so codes sort exactly like the tableaux.
Per column id, the table gives the admissible one-entry decrements with
the beta bit of the new edge, the weight, and the Littelmann block id and
numerator; it also gives the admissible pairs as a matrix on ids, and the
admissible blocks, numbered in sorted order, with their pair matrix.  The
one enumerator, `_sequences`, walks ids through a pair matrix and returns
sorted codes: those of `enumerate_tableaux`, `enumerate_littelmann` and
`tableau_lattice`.  Tuples are decoded (`tableaux_of`, `littelmann_of`)
only for text and for callers that ask for them.  Every caller shares a
cached table, so each is read-only.

A TableauLattice holds the sorted codes and its covers as `lattice.Covers`
columns in (i, j) order.  Lowering column i's id from old to new lowers the
code by (old - new) * R**(n-1-i), so the upper element is one lookup of an
integer.  The generic EdgeColoredPoset, whose validation keeps one reach
mask per tableau, is built only on demand, through `edge_poset`.  The
tableau lattice is built for the one-column dictionaries below and as an
oracle; the bijection is checked without it.

The bijection reads a beta-alpha lattice through its builder pieces, one per
column, as whole-lattice columns.  `tableau_of_ideal` reads each piece's
column of `lattice.projection_columns` through its id table and gives
every element's code: the one projection, whose other readers are
additivity's `weight_via_decomposition` and `piece_rank_stats`, so a
caller that holds it passes it on.  `code_ids` reads the codes' ids once,
one byte column per position, for the two readers that follow.
`ideal_of_tableau` refuses an inadmissible code by its ids (each of its
position's column length, each adjacent pair admissible), so no set of
admissible codes is built, and ORs the codes' piece masks, position by
position, into each code's ideal mask; no vertex set is built.
`column_sums` adds the weight, the block numerator and the block code in
one pass per position, all five fields packed into one exact integer per
element, so they are read out once at the end.  `carries_tableau_covers`
checks that the codes take the lattice's own covers onto the tableau
lattice's, by the digit arithmetic of each cover's code difference, and
`tableau_cover_count` counts the tableau lattice's covers by transfer
matrices over the pair matrix, so neither lists them.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple
from collections.abc import Mapping, Sequence
from functools import cached_property, lru_cache
from operator import add, and_, floordiv, getitem, mod, or_, rshift

from .algebras import ALPHA, BETA, Algebra, Color, Weight, nonnegative_weight
from .build import SemistandardPoset, fundamental_lattice
from .lattice import Covers, IdealLattice, Weights, projection_columns
from .poset import EdgeColoredPoset, edge_color_isomorphism
from .record import record

Column = tuple[int, ...]
Tableau = tuple[Column, ...]
Block = tuple[Column, ...]
LittelmannTableau = tuple[Block, ...]


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
def _tables(algebra: Algebra) -> tuple[frozenset[Column], frozenset[Column],
                                       frozenset[tuple[Column, Column]]]:
    """The admissible columns of length one, those of length two, and the
    admissible adjacent (left, right) column pairs, of one simple algebra,
    built from the predicates."""
    _require_simple(algebra)
    ones, twos = frozenset(allowed_columns(algebra, 1)), frozenset(allowed_columns(algebra, 2))
    pairs = frozenset((left, right) for left in ones | twos for right in ones | twos
                      if _pair_admissible(algebra, left, right))
    return ones, twos, pairs


class ColumnTable(namedtuple("ColumnTable", "columns pair lowered weight block numerator "
                             "blocks block_pair block_length transposed")):
    """One simple algebra's admissible columns and blocks, each numbered in
    sorted order, and what the code paths read per column id, as annotated."""

    __slots__ = ()
    columns: tuple[Column, ...]  # by id
    pair: tuple[bytes, ...]  # pair[left][right] is 1 iff the pair is admissible
    # per id, (new id, beta) for each one-entry decrement onto an admissible
    # column, in entry order, beta the bit of the new edge's color
    lowered: tuple[tuple[tuple[int, int], ...], ...]
    weight: tuple[Weight, ...]  # per id
    block: tuple[int, ...]  # per id, its Littelmann block's id
    numerator: tuple[Weight, ...]  # per id, its block's weight numerator
    blocks: tuple[Block, ...]  # by block id
    # block_pair[left][right] is 1 iff left's last column and right's first
    # are row compatible
    block_pair: tuple[bytes, ...]
    block_length: int  # divides a block tableau's numerator
    transposed: tuple[bytes, ...]  # transposed[right][left] is pair[left][right]

    @property
    def radix(self) -> int:
        return len(self.columns)


def _weigh(entry_weight: Mapping[int, Weight], entries) -> Weight:
    return tuple(map(sum, zip(*map(entry_weight.__getitem__, entries))))


@lru_cache(maxsize=None)
def column_table(algebra: Algebra) -> ColumnTable:
    """The algebra's ColumnTable, built from the predicates and the block
    tables."""
    ones, twos, pairs = _tables(algebra)
    columns = tuple(sorted(ones | twos))
    id_of = {column: k for k, column in enumerate(columns)}
    color_of = EDGE_COLOR_OF_VALUE[algebra]

    def lowered(column):
        for j, e in enumerate(column):
            new = column[:j] + (e - 1,) + column[j + 1:]
            if new in id_of:
                yield id_of[new], int(color_of[e - 1] is BETA)

    blocks = tuple(sorted(admissible_blocks(algebra, 1) + admissible_blocks(algebra, 2)))
    block_of = [(_BLOCKS_DOUBLE if len(c) == 2 else _BLOCKS_SINGLE)[algebra][c] for c in columns]
    entry_weight, block_entry_weight = _ENTRY_WEIGHT[algebra], _BLOCK_ENTRY_WEIGHT[algebra]
    return ColumnTable(
        columns,
        tuple(bytes((left, right) in pairs for right in columns) for left in columns),
        tuple(tuple(lowered(c)) for c in columns),
        tuple(_weigh(entry_weight, c) for c in columns),
        tuple(map(blocks.index, block_of)),
        tuple(_weigh(block_entry_weight, itertools.chain(*block)) for block in block_of),
        blocks,
        tuple(bytes(_row_compatible(left[-1], right[0]) for right in blocks) for left in blocks),
        _BLOCK_LENGTH[algebra],
        tuple(bytes((left, right) in pairs for left in columns) for right in columns))


def is_semistandard(algebra: Algebra, lam: Weight, t: Tableau) -> bool:
    """Admissibility within the fixed shape (ShapeError if malformed).

    Membership of the first b columns in the algebra's table of columns of
    length two and of the rest in that of length one, then of the adjacent
    pairs in its pair table.  A column outside its table sends t to
    check_shape, which raises ShapeError if t is malformed; else a column
    is inadmissible.
    """
    ones, twos, pairs = _tables(algebra)
    a, b = nonnegative_weight(lam, ShapeError)
    if len(t) == a + b and twos.issuperset(t[:b]) and ones.issuperset(t[b:]):
        return pairs.issuperset(zip(t, t[1:]))
    check_shape(algebra, lam, t)
    return False


# --- codes ---------------------------------------------------------------------


def _position_ids(lengths: Sequence[int], lam: Weight) -> list[list[int]]:
    """Per position of shape lam, first to last, the ids that may stand
    there, ascending: lengths[x] is id x's column length (rows for a block)."""
    a, b = nonnegative_weight(lam)
    of_length = {n: [x for x, m in enumerate(lengths) if m == n] for n in (1, 2)}
    return [of_length[2]] * b + [of_length[1]] * a


def _sequences(lengths: Sequence[int], lam: Weight, pair: Sequence[bytes]) -> list[int]:
    """Every sequence of ids of shape lam, each consecutive pair admissible
    by `pair`, as sorted codes.  The ids ascend at each position and each
    sequence extends in order, so the codes come out sorted."""
    options = _position_ids(lengths, lam)
    if not options:
        return [0]
    radix = len(pair)
    codes = list(options[0])
    for items in options[1:]:
        after = [[x for x in items if row[x]] for row in pair]
        codes = [c * radix + x for c in codes for x in after[c % radix]]
    return codes


def code_ids(algebra: Algebra, lam: Weight, codes: Sequence[int]) -> list[bytes]:
    """Per position of shape lam, first to last, each code's column id there,
    one byte each (R <= 21), peeled off the last position first."""
    radix, ids = column_table(algebra).radix, []
    for k in range(lam[0] + lam[1]):
        codes = list(map(floordiv, codes, itertools.repeat(radix))) if k else codes
        ids.insert(0, bytes(map(mod, codes, itertools.repeat(radix))))
    return ids


def _decode(by_id: Sequence, lam: Weight, codes: Sequence[int]) -> list[tuple]:
    radix, n = len(by_id), lam[0] + lam[1]
    places = [radix ** (n - 1 - k) for k in range(n)]
    return [tuple(by_id[c // place % radix] for place in places) for c in codes]


def enumerate_tableaux(algebra: Algebra, lam: Weight) -> list[int]:
    """The codes of all admissible tableaux of the given shape, sorted."""
    table = column_table(algebra)
    return _sequences(list(map(len, table.columns)), lam, table.pair)


def tableaux_of(algebra: Algebra, lam: Weight, codes: Sequence[int]) -> list[Tableau]:
    """The tableaux of shape lam with these codes."""
    return _decode(column_table(algebra).columns, lam, codes)


def column_sums(algebra: Algebra, lam: Weight,
                codes: Sequence[int]) -> tuple[Weights, Weights, list[int]]:
    """Per code of shape lam, from its ids (`code_ids`): its tableau's weight,
    its block tableau's weight numerator, each held as two columns, and the
    block tableau's code.  All five add in one pass per position, one packed
    integer per id: each coordinate raised by the largest absolute value m
    of either of its weight's, in a field of (2nm).bit_length() bits so n of
    them never carry, and the block id times its place on top; kept raised."""
    table, n = column_table(algebra), lam[0] + lam[1]
    fields = [*zip(*table.weight), *zip(*table.numerator)]
    wm, nm = (max(max(map(abs, row)) for row in t) for t in (table.weight, table.numerator))
    offsets = [wm, wm, nm, nm]
    widths = [(2 * n * m).bit_length() for m in offsets]
    *shifts, top = itertools.accumulate(widths, initial=0)
    base = [sum((v + m) << s for v, m, s in zip(row, offsets, shifts)) for row in zip(*fields)]
    totals = [0] * len(codes)
    for k, column in enumerate(code_ids(algebra, lam, codes)):
        at = [p + (b * len(table.blocks) ** (n - 1 - k) << top) for p, b in zip(base, table.block)]
        totals = list(map(add, totals, map(at.__getitem__, column)))
    repeat = itertools.repeat
    wa, wb, na, nb = (list(map(and_, map(rshift, totals, repeat(s)), repeat((1 << w) - 1)))
                      for s, w in zip(shifts, widths))
    return Weights(wa, wb, n * wm), Weights(na, nb, n * nm), list(map(rshift, totals, repeat(top)))


# --- tableau-native lattice ---------------------------------------------------


@record
class TableauLattice:
    """The reverse-componentwise order on admissible tableaux: their sorted
    codes, and the covers (i, j) in (i, j) order, where tableau j is
    tableau i with one entry lowered by one."""

    algebra: Algebra
    weight: Weight
    codes: list[int]
    covers: Covers

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def edge_poset(self) -> EdgeColoredPoset:
        """The covers as a validated generic poset, built on demand."""
        return EdgeColoredPoset(tuple(range(len(self.codes))), frozenset(self.covers))


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


def tableau_lattice(algebra: Algebra, lam: Weight) -> TableauLattice:
    """Each element's decrements from the column table are checked by one
    is_semistandard call on the changed column and its neighbours, t[i-1:i+2],
    under that window's own shape: t is admissible, and admissibility asks
    only about single columns and adjacent pairs.  A decrement at an earlier
    position, or of an earlier entry, lowers the code more, so taking both
    in order gives each element's upper covers in ascending order."""
    table = column_table(algebra)
    codes = enumerate_tableaux(algebra, lam)
    index = {code: k for k, code in enumerate(codes)}
    n, radix, columns = lam[0] + lam[1], table.radix, table.columns
    spans = [(i, lo, min(i + 2, n), shape, radix ** (n - 1 - i))
             for i, (lo, shape) in enumerate(_windows(lam))]
    down = [[(old - new, beta, columns[new]) for new, beta in lowered]
            for old, lowered in enumerate(table.lowered)]
    low, up, beta = array("I"), array("I"), bytearray()
    for k, (code, ids) in enumerate(zip(codes, zip(*code_ids(algebra, lam, codes)))):
        t = tuple(map(columns.__getitem__, ids))
        for i, lo, hi, shape, place in spans:
            for step, b, new_column in down[ids[i]]:
                if is_semistandard(algebra, shape, t[lo:i] + (new_column,) + t[i + 1:hi]):
                    low.append(k)
                    up.append(index[code - step * place])
                    beta.append(b)
    return TableauLattice(algebra, lam, codes, Covers(low, up, bytes(beta)))


# --- the tableau lattice's covers, neither built nor listed ------------------


def _prefix_counts(options: Sequence[Sequence[int]],
                   pair: Sequence[bytes]) -> list[dict[int, int]]:
    """Per position, each id that may stand there -> the number of id
    sequences over the positions up to it, each consecutive pair admissible
    by `pair`, that end in that id."""
    rows = [dict.fromkeys(options[0], 1)] if options else []
    for ids in options[1:]:
        rows.append({x: sum(c for y, c in rows[-1].items() if pair[y][x]) for x in ids})
    return rows


def tableau_cover_count(algebra: Algebra, lam: Weight) -> int:
    """The number of covers of `tableau_lattice(algebra, lam)`, counted by
    transfer matrices (Stanley, EC1 4.7).  F[k][x] counts the admissible
    prefixes ending in id x at position k, B[k][x] the admissible suffixes
    starting there.  A cover lowers column k's id from old to new, each
    admissible between the same neighbours l and r, so the covers at k
    number, summed over the decrements old -> new,
    (sum_l F[k-1][l] pair[l][old] pair[l][new]) *
    (sum_r pair[old][r] pair[new][r] B[k+1][r]), a sum being 1 past an end."""
    table = column_table(algebra)
    pair, transposed = table.pair, table.transposed
    options = _position_ids(list(map(len, table.columns)), lam)
    forward = [{}] + _prefix_counts(options, pair)
    backward = _prefix_counts(options[::-1], transposed)[::-1] + [{}]

    def ways(counts, link, old, new):
        return sum(c for y, c in counts.items() if link[old][y] and link[new][y]) if counts else 1

    return sum(ways(forward[k], transposed, old, new) * ways(backward[k + 1], pair, old, new)
               for k, ids in enumerate(options) for old in ids for new, _ in table.lowered[old])


def carries_tableau_covers(algebra: Algebra, lam: Weight, codes: Sequence[int],
                           covers: Covers) -> bool:
    """Whether sending element k of a lattice to the tableau code codes[k]
    takes its covers (i, j, b), each once and with its color, onto the
    covers of `tableau_lattice(algebra, lam)`, which is not built.  With the
    codes the admissible ones, each once, that map is then an edge-colored
    isomorphism onto the tableau lattice.

    The covers strictly ascend in (i, j), so none repeats.  Each difference
    codes[i] - codes[j] is d * R**(n-1-k) for one position k and 1 <= d < R,
    and column k's id old in codes[i] has the decrement to old - d, of color
    b, in `column_table(algebra).lowered`; old >= d, so nothing borrows and
    the other columns agree.  There are as many covers as
    `tableau_cover_count` gives."""
    table = column_table(algebra)
    radix = table.radix
    # 2 * difference + beta -> (the difference's place, the ids it lowers)
    steps: dict[int, tuple[int, set[int]]] = {}
    for place in (radix ** k for k in range(lam[0] + lam[1])):
        for old, lowered in enumerate(table.lowered):
            for new, beta in lowered:
                steps.setdefault(2 * (old - new) * place + beta, (place, set()))[1].add(old)
    size, last = len(codes), -1
    for i, j, b in zip(covers.lower, covers.upper, covers.beta):
        key = i * size + j
        step = steps.get(2 * (codes[i] - codes[j]) + b)
        if key <= last or step is None or codes[i] // step[0] % radix not in step[1]:
            return False
        last = key
    return len(covers) == tableau_cover_count(algebra, lam)


# --- per-column dictionary between fundamental ideals and column ids ---------


@lru_cache(maxsize=None)
def _piece_column_maps(algebra: Algebra, which: str) -> tuple[int, ...]:
    """The column id of each fundamental-lattice element of one piece type:
    the unique edge-colored isomorphism between the fundamental ideal
    lattice and the one-column tableau lattice."""
    fund = fundamental_lattice(algebra, which)
    tl = tableau_lattice(algebra, (1, 0) if which == "alpha_fund" else (0, 1))
    iso = edge_color_isomorphism(fund.edge_poset, tl.edge_poset)
    if iso is None:
        raise RuntimeError("fundamental lattice does not match its column lattice")
    return tuple(tl.codes[iso[i]] for i in range(len(fund)))  # one column: code = id


def _column_maps(lattice: IdealLattice) -> tuple[SemistandardPoset, list[tuple[int, ...]]]:
    """A beta-alpha lattice's built poset and its pieces' id tables, in column order."""
    sp = lattice.built
    if sp is None or sp.order != "beta_alpha":
        raise ValueError("tableaux are defined on beta-alpha semistandard lattices")
    _require_simple(sp.algebra)
    return sp, [_piece_column_maps(sp.algebra, kind) for kind in sp.kinds]


def tableau_of_ideal(lattice: IdealLattice, projection: list | None = None) -> list[int]:
    """Every element's tableau, as its code: per builder piece, its
    projection column read through the piece's id table and appended as
    the next digit.  `projection` is the lattice's `projection_columns`
    along its builder's decomposition, built here unless given."""
    sp, maps = _column_maps(lattice)
    radix, codes = column_table(sp.algebra).radix, [0] * len(lattice)
    if projection is None:
        projection = projection_columns(lattice, sp.decomposition)
    for (_, index), id_of in zip(projection, maps):
        codes = [c * radix + id_of[i] for c, i in zip(codes, index)]
    return codes


def ideal_of_tableau(lattice: IdealLattice, codes: Sequence[int]) -> list[int]:
    """The mask of the order ideal labelled by each admissible tableau's
    code: per position, the ideal ORs its column id's piece mask.  A ValueError
    names the first code that is not an int in 0 <= code < R**n whose ids
    (`code_ids`) have their positions' column lengths and admissible pairs."""
    sp, maps = _column_maps(lattice)
    table, lam, n = column_table(sp.algebra), sp.weight, len(maps)
    in_range = {int}.issuperset(map(type, codes)) and (
        not codes or min(codes) >= 0 and max(codes) < table.radix ** n)
    ids = code_ids(sp.algebra, lam, codes) if in_range else None
    options = _position_ids(list(map(len, table.columns)), lam)
    if not (in_range and _admissible_ids(sp.algebra, options, ids)):
        raise ValueError(_refusal(sp.algebra, lam, codes, options))
    masks = [0] * len(codes)
    for column, piece_masks, ids_of in zip(ids, sp.decomposition.masks, maps):
        mask_of = dict(zip(ids_of, piece_masks))  # id -> its piece mask
        masks = list(map(or_, masks, map(mask_of.__getitem__, column)))
    return masks


def _admissible_ids(algebra: Algebra, options: Sequence[list[int]],
                    ids: Sequence[bytes]) -> bool:
    """Whether each position's ids are among its options and each adjacent
    pair is admissible, in C-level passes over the byte columns.  What is
    left of a position's ids once its options are deleted is refused.  Then
    each id becomes its rank among its position's options, and a pair of
    ranks (i, j) the byte i * s + j, s the right position's option count (at
    most 14 * 14 pairs, for G2's two-entry columns): read as big-endian
    integers, left * s + right never carries from one byte to the next, so
    one translate refuses every inadmissible pair."""
    if any(x.translate(None, bytes(allowed)) for x, allowed in zip(ids, options)):
        return False
    for left, right, lo, hi in zip(ids, ids[1:], options, options[1:]):
        rank_lo, rank_hi, allowed = _rank_pairs(algebra, tuple(lo), tuple(hi))
        joined = (int.from_bytes(left.translate(rank_lo), "big") * len(hi)
                  + int.from_bytes(right.translate(rank_hi), "big"))
        if joined.to_bytes(len(left), "big").translate(None, allowed):
            return False
    return True


@lru_cache(maxsize=None)
def _rank_pairs(algebra: Algebra, lo: tuple[int, ...],
                hi: tuple[int, ...]) -> tuple[bytes, bytes, bytes]:
    """For ids lo at one position and hi at the next: each id's rank among
    its position's, as two translate tables, and the bytes i * len(hi) + j
    of the admissible pairs of ranks (i, j)."""
    pair = column_table(algebra).pair
    rank_lo, rank_hi = (bytes(items.index(x) if x in items else 0 for x in range(256))
                        for items in (lo, hi))
    return rank_lo, rank_hi, bytes(i * len(hi) + j for i, x in enumerate(lo)
                                   for j, y in enumerate(hi) if pair[x][y])


def _refusal(algebra: Algebra, lam: Weight, codes: Sequence[int],
             options: Sequence[Sequence[int]]) -> str:
    """Why ideal_of_tableau refuses the first code it refuses, found in one
    pass over the codes, each read by its own digits."""
    table, n = column_table(algebra), lam[0] + lam[1]
    places = [table.radix ** (n - 1 - k) for k in range(n)]
    for code in codes:
        if type(code) is not int:
            return f"code {code!r} is a {type(code).__name__}, not an int"
        if not 0 <= code < table.radix ** n:
            return f"code {code!r} is not admissible for this shape"
        row = [code // place % table.radix for place in places]
        if not (all(map(list.__contains__, options, row))
                and all(map(getitem, map(table.pair.__getitem__, row), row[1:]))):
            text = tableau_text(tableaux_of(algebra, lam, [code])[0])
            return f"tableau {text} is not admissible for this shape"


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


def enumerate_littelmann(algebra: Algebra, lam: Weight) -> list[int]:
    """The codes of all semistandard block tableaux built from admissible
    blocks, sorted, over the block ids."""
    table = column_table(algebra)
    return _sequences([len(block[0]) for block in table.blocks], lam, table.block_pair)


def littelmann_of(algebra: Algebra, lam: Weight, codes: Sequence[int]) -> list[LittelmannTableau]:
    """The block tableaux of shape lam with these codes."""
    return _decode(column_table(algebra).blocks, lam, codes)


def tableau_text(t: Tableau) -> str:
    """Canonical whitespace-free text, e.g. [1,2][1]."""
    return "".join("[" + ",".join(str(e) for e in column) + "]" for column in t)


def littelmann_text(u: LittelmannTableau) -> str:
    return "|".join(tableau_text(block) for block in u)

