"""Lattices of order ideals with edge colors inherited from vertex colors,
per-color component statistics, element weights, and the structure condition.

One walk, `order_ideals`, makes the elements and the covers together.
vertex_order splits into runs in which each vertex is a lower cover of the
one before.  An ideal can gain only the highest missing bit of a run, and
does iff that vertex's lower covers are in it: one probe per run (six for
G2 (a,a)).  A cover adds one vertex, so the walk goes up one size block at
a time, each block the sorted set of the masks the one below reached:
elements ascend in (size, mask), covers in (i, j), and only the block being
reached is indexed.  `Covers` is three columns: lower and upper element
indices as `array("I")`, and one byte per cover, 1 for beta; no object is
kept per cover or per element index.  The blocks' lengths are `rank_sizes`.

The statistics are read from those covers.  A one-color cover joins two
elements of one component, so an element's least component size lo is that
of any lower cover of that color and its greatest, hi, that of any upper
one: a pass up the covers sets lo, a pass down sets hi, each on lists then
kept as 4-byte columns.  An element of size s has rho = s - lo, length =
hi - lo and weight coordinate m = 2 rho - length, whole-lattice columns:
`rank_stats(color)` gives rho and length and `weights` the columns m_a and
m_b as a `Weights`; equal coordinates share one int object, and sizes are
read off the size blocks.  Along a decomposition, `projection_columns`
indexes every element's intersection with each piece, for the sums
`piece_rank_stats` and `weight_via_decomposition`, equal to the lattice's
columns, and for `tableaux.tableau_of_ideal`.
The generic `edge_poset` is built only for isomorphism and rank functions.

Every element but the bottom adds one vertex to its first lower cover, the
least i with a cover (i, j): the columns `first_lower` reads off the covers.
`carry` takes every mask into another vertex order along them, one `|` per
element, and a lattice file's element rows grow the same way.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from operator import add, sub

from .algebras import ALPHA, BETA, Color, Weight
from .build import SemistandardPoset
from .grid import Decomposition, GridPoset, total_order
from .poset import EdgeColoredPoset, VertexColoredPoset

# Peak RSS per ideal (Python 3.11): 125-145 B of growth (VmHWM) in the
# library through covers, weights and the character, rgf and structure checks
# (G2 (5,5)-(8,8), which has 531,441 ideals); at G2 (6,6) and (7,7) the process
# peak (getrusage) is 1.8-1.9 KB for `enumerate` writing its file and 2.2-2.4
# KB for `character --verify` and `export` reading one: 0.15, 1.9, 2.4 GB at 10**6.
DEFAULT_MAX_IDEALS = 10**6


class TooManyIdeals(RuntimeError):
    pass


_COLORS = (ALPHA, BETA)  # indexed by a cover's beta byte


class Covers:
    """A lattice's covers in (i, j) order, as columns: cover k goes from
    element lower[k] up to element upper[k] and has color beta iff
    beta[k] is 1.  Iterating gives (i, j, Color)."""

    __slots__ = ("lower", "upper", "beta")

    def __init__(self, lower: Sequence[int], upper: Sequence[int], beta: bytes) -> None:
        self.lower, self.upper, self.beta = lower, upper, beta

    def __len__(self) -> int:
        return len(self.lower)

    def __iter__(self) -> Iterator[tuple[int, int, Color]]:
        return zip(self.lower, self.upper, map(_COLORS.__getitem__, self.beta))

    def shared(self, n: int) -> Iterator[tuple[int, int, int]]:
        """(i, j, beta byte) per cover of an n-element lattice, for readers
        that keep indices: reading a column makes an int per entry, so these
        are read through one list of the n, an int per element."""
        ids = list(range(n))
        return zip(map(ids.__getitem__, self.lower), map(ids.__getitem__, self.upper), self.beta)


class Weights:
    """Every element's weight as two columns: element i has weight
    (alpha[i], beta[i]), its coordinates m_a and m_b.  Indexing gives that
    pair, iterating gives every pair, and == compares the columns."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: list[int], beta: list[int]) -> None:
        self.alpha, self.beta = alpha, beta

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, i: int) -> Weight:
        return self.alpha[i], self.beta[i]

    def __iter__(self) -> Iterator[Weight]:
        return zip(self.alpha, self.beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Weights):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta


@dataclass(frozen=True)
class IdealLattice:
    """All order ideals of a poset, as bitmasks over a fixed vertex order."""

    poset: GridPoset | VertexColoredPoset
    built: SemistandardPoset | None  # the builder output `poset` came from, if any
    vertex_order: tuple[int, ...]
    elements: tuple[int, ...]  # bitmasks, sorted by (size, value)
    # both made by the walk with the elements: per size s, the number of
    # elements of size s, which form one block; and the covers
    rank_sizes: tuple[int, ...] = field(compare=False, repr=False)
    _covers: Covers = field(compare=False, repr=False)

    @cached_property
    def base(self) -> VertexColoredPoset:
        p = self.poset
        return p.base if isinstance(p, GridPoset) else p

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index_of(self) -> dict[int, int]:
        # lookups by mask across the whole lattice; the walk indexes per block
        return {mask: i for i, mask in enumerate(self.elements)}

    @cached_property
    def covers(self) -> Covers:
        # the walk's columns; not a field, because the benchmark wraps this
        # function to time and count the covers (ROADMAP item 1 moves that)
        return self._covers

    @cached_property
    def first_lower(self) -> tuple[list[int], list[int]]:
        """Columns first and added: per element j, its first lower cover,
        the least i with a cover (i, j), and the bit of the one vertex j
        adds to it; -1 in both for the bottom, which covers nothing."""
        elements, cov = self.elements, self.covers
        first = [-1] * len(elements)
        for i, j in zip(reversed(cov.lower), reversed(cov.upper)):
            first[j] = i  # covers ascend in i, so the least i is written last
        return first, [-1] + [(elements[i] ^ mask).bit_length() - 1
                              for i, mask in zip(first[1:], elements[1:])]

    def carry(self, image_bit: Sequence[int]) -> list[int]:
        """Each element's mask carried into another vertex order, where bit
        b becomes image_bit[b]: one `|` per element, onto the carried mask
        of its first lower cover."""
        first, added = self.first_lower
        out = [0]
        for i, b in zip(first[1:], added[1:]):
            out.append(out[i] | image_bit[b])
        return out

    @cached_property
    def edge_poset(self) -> EdgeColoredPoset:
        return EdgeColoredPoset(tuple(range(len(self.elements))), frozenset(self.covers))

    @cached_property
    def _component_bounds(self) -> tuple[tuple[array, array], ...]:
        """Columns lo and hi of each element's component bounds, for alpha
        then beta: index it by `color is BETA`, which hashes no enum."""
        sizes = list(self._per_size(count()))
        alo, ahi, blo, bhi = cols = [sizes, sizes[:], sizes[:], sizes[:]]
        del sizes
        cov = self.covers
        # covers ascend in i: lo[i] is final at (i, j), hi[j] on the way back
        for i, j, b in zip(cov.lower, cov.upper, cov.beta):
            if b:
                blo[j] = blo[i]
            else:
                alo[j] = alo[i]
        for i, j, b in zip(reversed(cov.lower), reversed(cov.upper), reversed(cov.beta)):
            if b:
                bhi[i] = bhi[j]
            else:
                ahi[i] = ahi[j]
        # the passes run on lists, which index faster; the columns are kept
        # at 4 bytes an entry, each list freed as soon as it is converted
        del alo, ahi, blo, bhi
        for k in range(4):
            cols[k] = array("I", cols[k])
        return (cols[0], cols[1]), (cols[2], cols[3])

    def rank_stats(self, color: Color) -> tuple[list[int], list[int]]:
        """Columns rho and length: per element, its place in its component of
        one color and that component's length."""
        lo, hi = self._component_bounds[color is BETA]
        return list(map(sub, self._per_size(count()), lo)), list(map(sub, hi, lo))

    def _per_size(self, values: Iterator[int]) -> Iterator[int]:
        """Per element of size s, the s-th of `values`: one repeat per block."""
        return chain.from_iterable(map(repeat, values, self.rank_sizes))

    @cached_property
    def weights(self) -> Weights:
        # m = 2 rho - length = 2 size - lo - hi, per color.  Each m is read
        # from one table of the values -n..n, so equal weights share one int
        # object (CPython shares only -5..256).  The index is m + n: since
        # 0 <= lo <= size <= hi <= n, m = (size - lo) - (hi - size) lies in
        # -n..n and m + n in 0..2n; a negative index would wrap silently.
        n = len(self.vertex_order)
        table = list(range(-n, n + 1))
        return Weights(*(list(map(table.__getitem__,
                                  map(sub, self._per_size(count(n, 2)), map(add, lo, hi))))
                         for lo, hi in self._component_bounds))

    @cached_property
    def top(self) -> int:
        return len(self.elements) - 1


def order_ideals(p: GridPoset | VertexColoredPoset | SemistandardPoset,
                 max_ideals: int = DEFAULT_MAX_IDEALS) -> IdealLattice:
    """All order ideals of p and their covers, refusing beyond `max_ideals`.

    Vertices are taken in the grid total order (chains ascending, descending
    inside a chain) when available, else in a linear extension; bit b of a
    mask is vertex_order[b].  The chain walk of the module docstring goes
    up one size block at a time: every element of block s is probed once
    per run, and each hit records a cover, its lower index, upper mask and
    beta byte.  Block s + 1 is the sorted set of those upper masks, so the
    elements come out in (size, mask) order and the covers in (i, j) order;
    only that block is indexed, to turn the masks into upper indices.  The
    refusal is exact: it fires as soon as the masks reached take the count
    past `max_ideals`, so a pending block holds at most that many.
    """
    built = p if isinstance(p, SemistandardPoset) else None
    if built is not None:
        p = built.grid
    if not isinstance(p, (GridPoset, VertexColoredPoset)):
        raise ValueError("order ideals need a vertex-colored poset")
    base = p.base if isinstance(p, GridPoset) else p
    order = total_order(p) if isinstance(p, GridPoset) else base.linear_extension
    bit = {v: 1 << b for b, v in enumerate(order)}
    runs = []
    for b, v in enumerate(order):
        if b and v in base.lower_covers[order[b - 1]]:
            runs[-1] |= bit[v]
        else:
            runs.append(bit[v])
    lower = [sum(bit[u] for u in base.lower_covers[v]) for v in order]
    beta = [base.color_of[v] is BETA for v in order]
    if max_ideals < 1:
        raise TooManyIdeals(f"more than {max_ideals} order ideals")
    low, up, col = array("I"), array("I"), bytearray()
    add_low, add_col = low.append, col.append
    blocks, block, start = [], [0], 0  # the bottom, the only element of size 0
    room = max_ideals - 1  # elements the blocks above may still add
    while block:
        blocks.append(block)
        # the next block's masks, each to its rank in the order first reached,
        # and per cover that rank; refused as soon as the masks overflow room
        reached, ranks = {}, array("I")
        add_rank = ranks.append
        for i, mask in enumerate(block, start):
            missing = ~mask
            for run in runs:
                free = run & missing
                if free:
                    b = free.bit_length() - 1
                    if lower[b] & mask == lower[b]:
                        r = reached.setdefault(mask | 1 << b, len(reached))
                        if r == room:  # a new mask, one past the room
                            raise TooManyIdeals(f"more than {max_ideals} order ideals")
                        add_low(i)
                        add_rank(r)
                        add_col(beta[b])
        start += len(block)
        room -= len(reached)
        block = sorted(reached)
        index = dict(zip(block, range(start, start + len(block))))
        at = list(map(index.__getitem__, reached))  # per rank, the element index
        up.extend(map(at.__getitem__, ranks))
    return IdealLattice(p, built, order, tuple(chain.from_iterable(blocks)),
                        tuple(map(len, blocks)), Covers(low, up, bytes(col)))


def structure_rows(lattice: IdealLattice) -> list[Weight | None] | None:
    """The weight shift shared by all covers of each color, alpha then beta,
    with None for a color that has no covers (its row is then free); None
    overall when two covers of one color shift the weight differently.
    Rows are indexed by a cover's beta byte."""
    wa, wb, cov = lattice.weights.alpha, lattice.weights.beta, lattice.covers
    rows: list[Weight | None] = [None, None]
    for b in (0, 1):  # each row from the first cover of its color
        k = cov.beta.find(b)
        if k >= 0:
            i, j = cov.lower[k], cov.upper[k]
            rows[b] = (wa[j] - wa[i], wb[j] - wb[i])
    # each row's two shifts; a color with no covers is never looked up
    ra, rb = ([None if r is None else r[c] for r in rows] for c in (0, 1))
    for i, j, b in zip(cov.lower, cov.upper, cov.beta):
        if wa[j] - wa[i] != ra[b] or wb[j] - wb[i] != rb[b]:
            return None
    return rows


def check_structure(lattice: IdealLattice, matrix: tuple[Weight, Weight]) -> bool:
    """True iff every edge of color c shifts the weight by row c of matrix."""
    rows = structure_rows(lattice)
    return rows is not None and all(r is None or r == m for r, m in zip(rows, matrix))


def projection_columns(lattice: IdealLattice,
                       dec: Decomposition) -> list[tuple[IdealLattice, list[int]]]:
    """Per piece, its lattice and the column of each element's intersection
    with it, as an index in that lattice."""
    if lattice.vertex_order != dec.order:
        raise ValueError("the decomposition is of a grid with another vertex order")
    return [(piece, [index[mask & bits] for mask in lattice.elements])
            for piece, (bits, index, _) in zip(dec.lattices, dec.projections)]


def weight_via_decomposition(lattice: IdealLattice,
                             projection: list[tuple[IdealLattice, list[int]]]) -> Weights:
    """Per element, the sum of the piece-lattice weights of its intersections
    with the pieces; `projection` is projection_columns of the lattice."""
    ma = mb = [0] * len(lattice)
    for piece, column in projection:
        w = piece.weights
        ma = list(map(add, ma, map(w.alpha.__getitem__, column)))
        mb = list(map(add, mb, map(w.beta.__getitem__, column)))
    return Weights(ma, mb)


def piece_rank_stats(lattice: IdealLattice, projection: list[tuple[IdealLattice, list[int]]],
                     color: Color) -> tuple[list[int], list[int]]:
    """Columns rho and length of one color, per element summed over its
    intersections with the pieces; `projection` is projection_columns of
    the lattice."""
    rho = length = [0] * len(lattice)
    for piece, column in projection:
        piece_rho, piece_length = piece.rank_stats(color)
        rho = list(map(add, rho, map(piece_rho.__getitem__, column)))
        length = list(map(add, length, map(piece_length.__getitem__, column)))
    return rho, length


def join_irreducible_poset(ep: EdgeColoredPoset) -> VertexColoredPoset:
    """Poset of join-irreducibles, colored by the single lower-cover color.

    A join-irreducible of a distributive lattice covers exactly one element;
    the induced subposet of join-irreducibles recovers the poset whose order
    ideals the lattice enumerates.  One pass up a linear extension gives each
    element the mask of join-irreducibles at or below it (bit k for irr[k])
    and the union of their strict masks; a join-irreducible v covers the bits
    of its strict mask that no strict mask below v contains.
    """
    lower = ep.lower_covers
    irr: list[int] = []
    colors, covers = {}, []
    below, shadow = {}, {}  # the two masks per element
    for v in ep.linear_extension:
        mask = shade = 0
        for u, _ in lower[v]:
            mask |= below[u]
            shade |= shadow[u]
        if len(lower[v]) == 1:  # mask is v's strict mask
            new = mask & ~shade
            while new:
                low = new & -new
                covers.append((irr[low.bit_length() - 1], v))
                new ^= low
            shade |= mask
            mask |= 1 << len(irr)
            irr.append(v)
            colors[v] = lower[v][0][1]
        below[v], shadow[v] = mask, shade
    return VertexColoredPoset.build(colors, covers)
