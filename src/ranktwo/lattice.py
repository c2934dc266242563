"""Lattices of order ideals with edge colors inherited from vertex colors,
per-color component statistics, element weights, and the structure condition.

Covers come from a chain walk: vertex_order splits into runs in which each
vertex is a lower cover of the one before, chains whose bits descend going
up.  An ideal can gain only the highest missing bit of a run, and does iff
that vertex's lower covers are in it: one probe per run (six for G2 (a,a)).
Elements ascend in (size, mask) and a cover adds one vertex, so every cover
from the block of size s ends in the block of size s + 1: the walk goes one
block at a time and indexes only the next one, never the whole lattice.
It writes the covers as three columns, `Covers`: lower and upper element
indices and one byte per cover, 1 for beta; no object is made per cover,
so the cyclic collector has nothing per cover to track.  Each element
index is one int object, made in the dict of its block and read back from
it when that block is the lower one, so the lower and upper columns share
it: a cover costs two pointers and a byte, an element one int.

The statistics are read from those covers.  A one-color cover joins two
elements of one component, so an element's least component size lo is that
of any lower cover of that color and its greatest, hi, that of any upper
one: a pass up the covers sets lo, a pass down sets hi.  The passes run on
lists; the four bound columns are then kept as `array("I")`, 4 bytes an
entry, since a bound never exceeds the vertex count.  An element of size
s has rho = s - lo, length = hi - lo and weight coordinate m = 2 rho -
length.  Statistics are whole-lattice columns with one entry per element:
`rank_stats(color)` gives rho and length, and `weights` is a `Weights`, the
columns m_a and m_b read as (m_a, m_b) pairs; no tuple is kept per
element.  `rank_sizes` counts the elements of each size off the size
blocks.  Along a decomposition, the one projection, `projection_columns`,
indexes every element's intersection with each piece.  It has three
readers: the sums `piece_rank_stats` and `weight_via_decomposition`, equal
to the lattice's columns by `==` and handed the projection built once per
lattice, and `tableaux.tableau_of_ideal`, a column id per piece.
The generic `edge_poset` is built only for isomorphism and rank functions.

Every element but the bottom adds one vertex to its first lower cover, the
least i with a cover (i, j): the columns `first_lower` reads off the covers.
`carry` takes every mask into another vertex order along them, one `|` per
element, and a lattice file's element rows grow the same way.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from operator import add, sub

from .algebras import ALPHA, BETA, Color, Weight
from .build import SemistandardPoset
from .grid import Decomposition, GridPoset, total_order
from .poset import EdgeColoredPoset, VertexColoredPoset

# Peak RSS growth (getrusage, Python 3.11) per ideal: 202-233 B in the
# library through covers, weights and the character, rgf and structure
# checks (G2 (5,5)-(8,8)); on the file path at G2 (6,6) and (7,7), 1.7-1.9
# KB for `enumerate` writing its file and 2.1-2.4 KB for `character
# --verify` and `export` reading one: 0.23, 1.9 and 2.4 GB at 10**6.  G2
# (8,8) has 531,441 ideals.
DEFAULT_MAX_IDEALS = 10**6


class TooManyIdeals(RuntimeError):
    pass


_COLORS = (ALPHA, BETA)  # indexed by a cover's beta byte


class Covers:
    """A lattice's covers in (i, j) order, as columns: cover k goes from
    element lower[k] up to element upper[k] and has color beta iff
    beta[k] is 1.  Iterating gives (i, j, Color)."""

    __slots__ = ("lower", "upper", "beta")

    def __init__(self, lower: list[int], upper: list[int], beta: bytes) -> None:
        self.lower, self.upper, self.beta = lower, upper, beta

    def __len__(self) -> int:
        return len(self.lower)

    def __iter__(self) -> Iterator[tuple[int, int, Color]]:
        return zip(self.lower, self.upper, map(_COLORS.__getitem__, self.beta))


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

    @cached_property
    def base(self) -> VertexColoredPoset:
        p = self.poset
        return p.base if isinstance(p, GridPoset) else p

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index_of(self) -> dict[int, int]:
        # for lookups by mask across the whole lattice; the covers walk
        # indexes one size block at a time instead
        return {mask: i for i, mask in enumerate(self.elements)}

    @cached_property
    def _block_ends(self) -> list[int]:
        """ends[s]: one past the last element of size s.  Elements ascend in
        size, so those of one size form one block."""
        return [bisect_right(self.elements, s, key=int.bit_count)
                for s in range(len(self.vertex_order) + 1)]

    @cached_property
    def covers(self) -> Covers:
        # the chain walk of the module docstring, one size block at a time:
        # a cover adds one vertex, so it ends in the next block, the only
        # one indexed; runs ascend, so covers are in (element, bit) order
        order, base, elements = self.vertex_order, self.base, self.elements
        bit = {v: 1 << b for b, v in enumerate(order)}
        runs = []
        for b, v in enumerate(order):
            if b and v in base.lower_covers[order[b - 1]]:
                runs[-1] |= bit[v]
            else:
                runs.append(bit[v])
        lower = [sum(bit[u] for u in base.lower_covers[v]) for v in order]
        beta = [base.color_of[v] is BETA for v in order]
        ends = self._block_ends
        low, up, col = [], [], bytearray()
        add_low, add_up, add_col = low.append, up.append, col.append
        # each index is one int object, made in its block's dict: covers up
        # into the block read it there, and so do covers down from it
        index = {0: 0}  # the bottom, the only element of size 0
        for mid, end in zip(ends, ends[1:]):
            below, index = index, dict(zip(elements[mid:end], range(mid, end)))
            for mask, i in below.items():
                for run in runs:
                    free = run & ~mask
                    if free:
                        b = free.bit_length() - 1
                        if lower[b] & mask == lower[b]:
                            add_low(i)
                            add_up(index[mask | 1 << b])
                            add_col(beta[b])
        return Covers(low, up, bytes(col))

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
        sizes = list(map(int.bit_count, self.elements))
        cols = [sizes, sizes[:], sizes[:], sizes[:]]
        alo, ahi, blo, bhi = cols
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
        return list(map(sub, map(int.bit_count, self.elements), lo)), list(map(sub, hi, lo))

    @cached_property
    def rank_sizes(self) -> list[int]:
        """Per size s, the number of elements of size s: its block's length."""
        ends = self._block_ends
        return list(map(sub, ends, [0] + ends[:-1]))

    @cached_property
    def weights(self) -> Weights:
        # m = 2 rho - length = 2 size - lo - hi, per color; 2 size is read
        # off the size blocks, one repeat per block, so no column is built
        # but the result and no method is called per element
        per_size = self.rank_sizes
        return Weights(*(list(map(sub, chain.from_iterable(map(repeat, count(0, 2), per_size)),
                                  map(add, lo, hi)))
                         for lo, hi in self._component_bounds))

    @cached_property
    def top(self) -> int:
        return len(self.elements) - 1


def order_ideals(p: GridPoset | VertexColoredPoset | SemistandardPoset,
                 max_ideals: int = DEFAULT_MAX_IDEALS) -> IdealLattice:
    """Enumerate all order ideals of p, refusing beyond `max_ideals`.

    Vertices are taken in the grid total order (chains ascending, descending
    inside a chain) when available, else in a linear extension; bit b of a
    mask is vertex_order[b].  The scan visits vertices along a linear
    extension and, for each vertex v, extends the list of ideals found so
    far by v added to every ideal that holds all lower covers of v.  The
    count only grows, so the refusal fires exactly when the final count
    would exceed `max_ideals`, before the list grows past twice that.
    """
    built = p if isinstance(p, SemistandardPoset) else None
    if built is not None:
        p = built.grid
    if not isinstance(p, (GridPoset, VertexColoredPoset)):
        raise ValueError("order ideals need a vertex-colored poset")
    base = p.base if isinstance(p, GridPoset) else p
    order = total_order(p) if isinstance(p, GridPoset) else base.linear_extension
    bit = {v: 1 << b for b, v in enumerate(order)}
    ideals = [0]
    for v in base.linear_extension:
        low = 0
        for u in base.lower_covers[v]:
            low |= bit[u]
        ideals += [mask | bit[v] for mask in ideals if mask & low == low]
        if len(ideals) > max_ideals:
            raise TooManyIdeals(f"more than {max_ideals} order ideals")
    ideals.sort()
    ideals.sort(key=int.bit_count)  # stable: (size, mask) order
    return IdealLattice(p, built, order, tuple(ideals))


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
