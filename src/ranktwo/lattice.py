"""Lattices of order ideals with edge colors inherited from vertex colors,
per-color component statistics, element weights, and the structure condition.

One walk, `order_ideals`, makes the elements and the covers together, one
size block at a time: it keeps each ideal as a code of its heights in the
runs of vertex_order, and grows each run by one table lookup.  Elements
ascend in (size, mask), covers in (i, j), and only the block being reached
is indexed.  The walk keeps no code: every element but the bottom is its
first lower cover, the least i with a cover (i, j), plus one vertex, and as
each block is walked in i order, the first i to reach a code is that cover.
`first_lower` gives the two columns, first lower cover and added bit, that
the walk records there, the bits one byte each up to 128 vertices.  `Covers`
is three columns: per element its count of upper covers, and per cover its
upper element index as `array("I")` and one byte, 1 for beta; no object is
kept per cover or per element index.  The blocks' lengths are `rank_sizes`.

The statistics read no cover.  An element's c-component holds the ideals
with its vertices of the other color, so a key of those, one digit a run,
is carried along the first lower covers, and the least and greatest sizes
of a key, lo and hi, are its first and last: on columns of one byte an
entry below 256 vertices, else four.  An element of size s has rho = s - lo,
length = hi - lo and weight coordinate m = 2 rho - length, whole-lattice
columns: `rank_stats(color)` gives rho and length and `weights` the columns
m_a and m_b as a `Weights`, raised by n into 0..2n: bytes while 2n < 256,
else 2 or 4 bytes an entry.  Sizes are read off the size blocks.  Along a
decomposition, `projection_columns` indexes every element's intersection
with each piece, for `tableaux.tableau_of_ideal` and the sums
`piece_rank_stats` and `weight_via_decomposition`, equal to the lattice's:
the projection (`projection.project`) reads byte columns off the elements'
run heights, and sums all six piece statistics one integer per piece.
The generic `edge_poset` is built only for isomorphism and rank functions.

`carry` sums a value per vertex along the first lower covers, one add per
element: the masks in another vertex order, or the run heights; a lattice
file's element rows grow the same way, and `structure_rows` checks the
weights one step per element along them.  `elements`, the masks
themselves, is that carry with every bit kept, made on first use by the
readers that need masks: `grid.decompose`, duality and the tableau suite.
A cover adds one vertex and takes its color, so `carries_covers`,
duality's isomorphism check, reads a map onto the elements by its covers'
mask steps.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, partial
from itertools import accumulate, chain, count, islice, repeat
from operator import add, mul, sub

from .algebras import ALPHA, BETA, Color, Weight, Weights
from .build import SemistandardPoset
from .grid import Decomposition, GridPoset
from .poset import EdgeColoredPoset, VertexColoredPoset
from .record import field, record, replace
TYPE_CHECKING = False  # as typing's, without importing typing
if TYPE_CHECKING:
    from .projection import Projection

# Peak RSS per ideal (Python 3.11): 46-52 B of growth (VmHWM) in the
# library through covers, weights and the character, rgf and structure checks
# (G2 (5,5)-(8,8), which has 531,441 ideals); at G2 (6,6) and (7,7) the process
# peak (getrusage) is 1.4 KB for `enumerate` writing its file and 0.56-0.65 KB
# for `character --verify` and `export` reading one: 0.05, 1.4, 0.65 GB at 10**6.
DEFAULT_MAX_IDEALS = 10**6


class TooManyIdeals(RuntimeError):
    pass


_COLORS = (ALPHA, BETA)  # indexed by a cover's beta byte


class _Growth(dict):
    """Run c's table: from the digits of the runs that decide whether it grows
    to the bit of the vertex it grows by, or None, made on first sight."""

    __slots__ = ("unit", "radix", "run", "needs")

    def __missing__(self, key: int) -> int | None:
        h = key // self.unit % self.radix  # run c's height
        grows = h < len(self.run) and all(key // q % r >= need for q, r, need in self.needs[h])
        b = self[key] = self.run[h] if grows else None
        return b


class Covers:
    """A lattice's covers in (i, j) order, as columns: degree[i] of them go
    up from element i (a byte each below 256 runs: each run grows once), the
    k-th up to upper[k], colored beta iff beta[k] is 1.  Iterated as (i, j, Color)."""

    __slots__ = ("degree", "upper", "beta")

    def __init__(self, degree: Sequence[int], upper: Sequence[int], beta: bytes) -> None:
        self.degree, self.upper, self.beta = degree, upper, beta

    def __len__(self) -> int:
        return len(self.beta)

    def per_cover(self, values: Iterable) -> Iterator:
        """Per cover, its lower end's value: values[i] degree[i] times."""
        return chain.from_iterable(map(repeat, values, self.degree))

    @property
    def lower(self) -> Iterator[int]:
        return self.per_cover(count())

    def __iter__(self) -> Iterator[tuple[int, int, Color]]:
        return zip(self.lower, self.upper, map(_COLORS.__getitem__, self.beta))


@record
class IdealLattice:
    """All order ideals of a poset, as bitmasks over a fixed vertex order,
    kept as each element's first lower cover and added bit.  Equality
    compares the poset and the vertex order, which fix the elements."""

    poset: GridPoset | VertexColoredPoset
    built: SemistandardPoset | None  # the builder output `poset` came from, if any
    vertex_order: tuple[int, ...]
    # all made by the walk: per size s, the number of elements of size s, which
    # form one block; the covers; `first_lower`'s columns; the runs, bits bottom up
    rank_sizes: tuple[int, ...] = field(compare=False, repr=False)
    _covers: Covers = field(compare=False, repr=False)
    _first: array = field(compare=False, repr=False)
    _added: array = field(compare=False, repr=False)
    runs: list[list[int]] = field(compare=False, repr=False)

    @cached_property
    def base(self) -> VertexColoredPoset:
        p = self.poset
        return p.base if isinstance(p, GridPoset) else p

    def __len__(self) -> int:
        return len(self._first)

    @cached_property
    def covers(self) -> Covers:
        # the walk's columns; not a field, because the benchmark wraps this
        # function to time and count the covers (ROADMAP item 1 moves that)
        return self._covers

    @property
    def first_lower(self) -> tuple[array, array]:
        """Columns first and added: per element j, its first lower cover,
        the least i with a cover (i, j), and the bit of the one vertex j
        adds to it; -1 in both for the bottom, which covers nothing."""
        return self._first, self._added

    @cached_property
    def elements(self) -> tuple[int, ...]:
        """The bitmasks, sorted by (size, value), carried along the first
        lower covers with every bit kept: one add per element."""
        return tuple(self.carry([1 << b for b in range(len(self.vertex_order))]))

    def carry(self, image_bit: Sequence[int], out: list | array | None = None) -> Sequence[int]:
        """Each element's sum of image_bit[b] over its bits b, so its mask
        carried into another vertex order where bit b becomes image_bit[b]:
        one add per element onto its first lower cover's, in `out` after 0."""
        out = [0] if out is None else out
        for i, b in islice(zip(self._first, self._added), 1, None):
            out.append(out[i] + image_bit[b])
        return out

    def carries_covers(self, masks: Sequence[int], lower: Sequence[int], upper: Sequence[int],
                       beta: bytes, flip: int = 0) -> bool:
        """Whether sending element k of another lattice to the ideal masks[k]
        takes each of its covers (i, j, b) to a one-vertex step up from
        masks[i] to masks[j] whose vertex is colored beta iff b ^ flip, no
        two covers from one i add one vertex, and the lattices have equally
        many covers.  With masks onto the elements, the map is then
        injective on covers, so an edge-colored isomorphism onto this one."""
        beta_bit = [self.base.color_of[v] is BETA for v in self.vertex_order]
        added = [0] * len(masks)  # per i, the vertices its covers have added
        for i, j, b in zip(lower, upper, beta):
            step = masks[i] ^ masks[j]
            # an empty step would read beta_bit[-1]: index -1 wraps silently
            if (not step or step & (masks[i] | added[i]) or step & (step - 1)
                    or beta_bit[step.bit_length() - 1] != b ^ flip):
                return False
            added[i] |= step
        return len(beta) == len(self.covers)

    @cached_property
    def edge_poset(self) -> EdgeColoredPoset:
        return EdgeColoredPoset(tuple(range(len(self))), frozenset(self.covers))

    @cached_property
    def _component_bounds(self) -> tuple[tuple[Sequence[int], Sequence[int]], ...]:
        """Columns lo and hi of each element's component bounds, for alpha
        then beta: index it by `color is BETA`, which hashes no enum.  A
        bound is a size, at most n: one byte an entry while n < 256, else 4.
        The c-component of I is its fiber under I -> I - c, with bottom the
        ideal I - c generates and top the fiber's union: c-covers keep I - c,
        and adding c-vertices reaches the fiber from its bottom.  I meets each
        run in a bottom segment, so the key, per run the count of vertices in
        I not colored c, fixes I - c."""
        order, color = self.vertex_order, self.base.color_of
        column = bytearray if len(order) < 256 else partial(array, "I")
        sizes, out = column(self._per_size(count())), []
        for c in _COLORS:
            unit, place = [0] * len(order), 1  # per bit, its run's place if not colored c
            for run in self.runs:
                k = 0
                for b in run:
                    if color[order[b]] is not c:
                        unit[b], k = place, k + 1
                place *= k + 1
            keys = self.carry(unit, array("BBHIIQQQQ"[(place - 1).bit_length() + 7 >> 3], [0])
                              if place <= 1 << 64 else None)  # the narrowest that holds a key
            lo_of, hi_of = {}, {}  # per key, its first size from the bottom and from the top
            hi = column(map(hi_of.setdefault, reversed(keys), reversed(sizes)))
            out.append((column(map(lo_of.setdefault, keys, sizes)), hi[::-1]))
        return tuple(out)

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
        # m = 2 rho - length = 2 size - lo - hi, per color, kept raised by n:
        # since 0 <= lo <= size <= hi <= n, m = (size - lo) - (hi - size)
        # lies in -n..n and m + n in 0..2n, one byte an entry while 2n < 256
        n = len(self.vertex_order)
        column = bytes if 2 * n < 256 else partial(array, "H" if 2 * n < 1 << 16 else "I")
        return Weights(*(column(map(sub, self._per_size(count(n, 2)), map(add, lo, hi)))
                         for lo, hi in self._component_bounds), n)

    @cached_property
    def top(self) -> int:
        return len(self) - 1

    def shifted(self, poset: GridPoset, offset: int) -> IdealLattice:
        """The lattice over `poset`, this one's poset with every id moved by
        `offset` and every chain index by a constant, which keeps the vertex
        order: so every element index too, and it shares every column, the
        weights, the component bounds, the planes and the key tables."""
        from .projection import planes  # deferred: only decompositions read it

        out = replace(self, poset=poset, vertex_order=tuple(v + offset for v in self.vertex_order))
        planes(self)  # makes the weights, the bounds and the planes once, for every copy
        vars(out).update({k: vars(self)[k] for k in ("weights", "_component_bounds", "_planes")},
                         _keys=vars(self).setdefault("_keys", {}))  # `project`'s key tables
        return out


def order_ideals(p: GridPoset | VertexColoredPoset | SemistandardPoset,
                 max_ideals: int = DEFAULT_MAX_IDEALS) -> IdealLattice:
    """All order ideals of p and their covers, refusing beyond `max_ideals`.

    Vertices are taken in the grid total order (chains ascending, descending
    inside a chain) when available, else in a linear extension; bit b of a
    mask is vertex_order[b].  Runs are chains of covers contiguous in it,
    going up or down.  An ideal meets run c in a bottom segment (Stanley,
    EC1 3.4) of height h_c; its code, sum h_c R_c with R_c the product of
    len_d + 1 over d < c, sorts as its mask does.  Run c grows, to code +
    R_c, by the bit its table gives for code // R_lo % (R_hi // R_lo), the
    digits of c and of the runs holding lower covers of its vertices.  The
    refusal is exact: it fires as soon as the codes reached pass the bound.
    """
    built = p if isinstance(p, SemistandardPoset) else None
    if built is not None:
        p = built.grid
    if not isinstance(p, (GridPoset, VertexColoredPoset)):
        raise ValueError("order ideals need a vertex-colored poset")
    base = p.base if isinstance(p, GridPoset) else p
    order = p.total_order if isinstance(p, GridPoset) else base.linear_extension
    runs = []  # each as its bits bottom up
    for b, v in enumerate(order):
        run = runs[-1] if runs else [None]
        if run[0] == b - 1 and v in base.lower_covers[order[b - 1]]:
            run.insert(0, b)
        elif run[-1] == b - 1 and order[b - 1] in base.lower_covers[v]:
            run.append(b)
        else:
            runs.append([b])
    place = {order[b]: (c, h) for c, run in enumerate(runs) for h, b in enumerate(run)}
    radix = list(accumulate((len(run) + 1 for run in runs), mul, initial=1))
    probes = []  # per run c: its table, R_lo, R_hi // R_lo and R_c
    for c, run in enumerate(runs):
        # per height, the height each other run d must reach for the vertex there
        needs = [[(d, h + 1) for d, h in map(place.__getitem__, base.lower_covers[order[b]])
                  if d != c] for b in run]
        ds = [c, *(d for need in needs for d, _ in need)]
        lo, hi = min(ds), max(ds) + 1
        grow = _Growth()  # reads digit d of a key as key // (R_d // R_lo) % (len_d + 1)
        grow.unit, grow.radix, grow.run = radix[c] // radix[lo], len(run) + 1, run
        grow.needs = [[(radix[d] // radix[lo], len(runs[d]) + 1, h) for d, h in need]
                      for need in needs]
        probes.append((grow, radix[lo], radix[hi] // radix[lo], radix[c]))
    beta = [base.color_of[v] is BETA for v in order]
    if max_ideals < 1:
        raise TooManyIdeals(f"more than {max_ideals} order ideals")
    deg, up, col = bytearray() if len(runs) < 256 else array("I"), array("I"), bytearray()
    n = len(order)  # added holds the bottom's -1, then bits below n: a byte up to 128
    first, added = array("i", [-1]), array("b" if n <= 128 else "h" if n <= 1 << 15 else "i", [-1])
    add_deg, add_col = deg.append, col.append
    sizes, block, start = [], [0], 0  # the bottom, the only element of size 0
    room = max_ideals - 1  # elements the blocks above may still add
    while block:
        sizes.append(len(block))
        # the next block's k codes, each to its rank in the order first
        # reached, and per cover that rank; per rank, the first i to reach
        # it, which is its least lower cover as i ascends, and the bit it
        # adds.  Refused as soon as a new code would overflow room
        reached, ranks, by_first, by_bit, k = {}, array("I"), [], [], 0
        add_rank, add_first, add_bit = ranks.append, by_first.append, by_bit.append
        for i, code in enumerate(block, start):
            d = 0
            for grow, r_lo, span, r_c in probes:
                b = grow[code // r_lo % span]
                if b is not None:  # the run grows by the vertex at bit b
                    r = reached.setdefault(code + r_c, k)
                    if r == k:  # a new code: k is len(reached) before it
                        if k == room:
                            raise TooManyIdeals(f"more than {max_ideals} order ideals")
                        k += 1
                        add_first(i)
                        add_bit(b)
                    d += 1
                    add_rank(r)
                    add_col(beta[b])
            add_deg(d)
        start += len(block)
        room -= k
        block = sorted(reached)
        rank_of = list(map(reached.__getitem__, block))  # per element, its rank
        first.extend(map(by_first.__getitem__, rank_of))
        added.extend(map(by_bit.__getitem__, rank_of))
        at = [0] * k  # per rank, the element index: rank_of inverted
        for e, r in enumerate(rank_of, start):
            at[r] = e
        up.extend(map(at.__getitem__, ranks))
    return IdealLattice(p, built, order, tuple(sizes), Covers(deg, up, bytes(col)), first, added,
                        runs)


def structure_rows(lattice: IdealLattice) -> list[Weight | None] | None:
    """The weight shift shared by all covers of each color, alpha then beta,
    with None for a color that has no covers (its row is then free); None
    overall when two covers of one color shift the weight differently.
    Rows are indexed by a cover's beta byte.

    Only one cover per element is read: element j > 0 is its first lower
    cover plus the vertex at bit added[j].  If each such step shifts the
    weight by the row of its vertex's color, then by induction up the sizes
    w(j) is w(bottom) plus that row summed over the vertices of j, so every
    cover adding v shifts it by v's row; and each step is a cover.  A row is
    read off the first step adding a vertex of its color, which every vertex
    has, up to the ideal it generates; a color with no covers has no vertex,
    so its row is never read."""
    wa, wb, (first, added) = lattice.weights.alpha, lattice.weights.beta, lattice.first_lower
    is_beta = [lattice.base.color_of[v] is BETA for v in lattice.vertex_order]  # per bit
    rows: list[Weight | None] = [None, None]  # shifts of raw columns: the offset cancels
    for b in {*is_beta}:
        j = next(j for j in range(1, len(added)) if is_beta[added[j]] == b)
        rows[b] = (wa[j] - wa[first[j]], wb[j] - wb[first[j]])
    # per bit of the vertex order, the two shifts of its vertex's color
    ra, rb = ([rows[x][c] for x in is_beta] for c in (0, 1))
    for x, y, i, b in islice(zip(wa, wb, first, added), 1, None):
        if x - wa[i] != ra[b] or y - wb[i] != rb[b]:
            return None
    return rows


def check_structure(lattice: IdealLattice, matrix: tuple[Weight, Weight]) -> bool:
    """True iff every edge of color c shifts the weight by row c of matrix."""
    rows = structure_rows(lattice)
    return rows is not None and all(r is None or r == m for r, m in zip(rows, matrix))


def projection_columns(lattice: IdealLattice, dec: Decomposition) -> Projection:
    """Per piece, its lattice and the column of each element's intersection
    with it, as an index in that lattice, read off the element's height in
    each run of the vertex order (`projection.project`)."""
    from .projection import project  # deferred: only decompositions read it

    if lattice.vertex_order != dec.order:
        raise ValueError("the decomposition is of a grid with another vertex order")
    return project(lattice, lattice.runs, dec.lattices)


def _piece_fields(lattice: IdealLattice, projection: list[tuple[IdealLattice, Sequence[int]]],
                  wanted: tuple[int, int]) -> list[Sequence[int]]:
    from .projection import Projection

    if not projection:  # no piece: every sum is 0
        return [[0] * len(lattice) for _ in wanted]
    if not isinstance(projection, Projection):
        projection = Projection(projection)
    return [projection.packed[0][f] for f in wanted]


def weight_via_decomposition(lattice: IdealLattice,
                             projection: list[tuple[IdealLattice, Sequence[int]]]) -> Weights:
    """Per element, the sum of the piece-lattice weights of its intersections
    with the pieces; `projection` is projection_columns of the lattice.
    The columns are the packed sums, raised by the sum of the pieces' offsets."""
    return Weights(*_piece_fields(lattice, projection, (4, 5)),
                   sum(piece.weights.offset for piece, _ in projection))


def piece_rank_stats(lattice: IdealLattice, projection: list[tuple[IdealLattice, Sequence[int]]],
                     color: Color) -> tuple[list[int], list[int]]:
    """Columns rho and length of one color, per element summed over its
    intersections with the pieces; `projection` is projection_columns of
    the lattice."""
    k = 2 * (color is BETA)
    return tuple(map(list, _piece_fields(lattice, projection, (k, k + 1))))


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
