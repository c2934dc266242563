"""Lattices of order ideals with edge colors inherited from vertex colors,
per-color component statistics, element weights, and the structure condition.

Covers come from a chain walk: vertex_order splits into runs in which each
vertex is a lower cover of the one before, chains whose bits descend going
up.  An ideal can gain only the highest missing bit of a run, and does iff
that vertex's lower covers are in it: one probe per run (six for G2 (a,a)).
The walk writes the covers as three columns, `Covers`: lower and upper
element indices and one byte per cover, 1 for beta; no object is made per
cover, so the cyclic collector has nothing per cover to track.

The statistics are read from those covers.  A one-color cover joins two
elements of one component, so an element's least component size lo is that
of any lower cover of that color and its greatest, hi, that of any upper
one: a pass up the covers sets lo, a pass down sets hi.  An element of size
s has rho = s - lo, length = hi - lo and weight coordinate m = 2 rho -
length.  The generic `edge_poset` is built only for isomorphism and rank
functions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .algebras import ALPHA, BETA, Color, Weight
from .build import SemistandardPoset
from .grid import Decomposition, GridPoset, total_order
from .poset import EdgeColoredPoset, VertexColoredPoset

# Peak RSS (getrusage, Python 3.11) per ideal: about 375 B in the library
# through covers, weights and the character, rgf and structure checks (G2
# (6,6)-(8,8)); on the file path at G2 (6,6) and (7,7), 2.0-2.1 KB for
# `enumerate` writing its file and 2.3-2.5 KB for `character --verify` and
# `export` reading one: 0.38, 2.1 and 2.5 GB at 10**6.  G2 (8,8) has
# 531,441 ideals.
DEFAULT_MAX_IDEALS = 10**6


class TooManyIdeals(RuntimeError):
    pass


_COLORS = (ALPHA, BETA)  # indexed by a cover's beta byte


class Covers:
    """A lattice's covers in (i, j) order, as columns: cover k goes from
    element lower[k] up to element upper[k] and has color beta iff
    beta[k] is 1.  Iterating, reversing or indexing gives (i, j, Color)."""

    __slots__ = ("lower", "upper", "beta")

    def __init__(self, lower: list[int], upper: list[int], beta: bytes) -> None:
        self.lower, self.upper, self.beta = lower, upper, beta

    def __len__(self) -> int:
        return len(self.lower)

    def __iter__(self) -> Iterator[tuple[int, int, Color]]:
        return zip(self.lower, self.upper, map(_COLORS.__getitem__, self.beta))

    def __reversed__(self) -> Iterator[tuple[int, int, Color]]:
        return zip(reversed(self.lower), reversed(self.upper),
                   map(_COLORS.__getitem__, reversed(self.beta)))

    def __getitem__(self, k: int) -> tuple[int, int, Color]:
        return self.lower[k], self.upper[k], _COLORS[self.beta[k]]


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
        return {mask: i for i, mask in enumerate(self.elements)}

    def element_vertices(self, i: int) -> frozenset[int]:
        mask = self.elements[i]
        order = self.vertex_order
        out = []
        while mask:
            low = mask & -mask
            out.append(order[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def size_of(self, i: int) -> int:
        return self.elements[i].bit_count()

    @cached_property
    def covers(self) -> Covers:
        # the chain walk of the module docstring; runs ascend, so covers are
        # in (element, bit) order
        order, base = self.vertex_order, self.base
        bit = {v: 1 << b for b, v in enumerate(order)}
        runs = []
        for b, v in enumerate(order):
            if b and v in base.lower_covers[order[b - 1]]:
                runs[-1] |= bit[v]
            else:
                runs.append(bit[v])
        lower = [sum(bit[u] for u in base.lower_covers[v]) for v in order]
        beta = [base.color_of[v] is BETA for v in order]
        index = self.index_of
        low, up, col = [], [], bytearray()
        add_low, add_up, add_col = low.append, up.append, col.append
        for i, mask in enumerate(self.elements):
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
    def edge_poset(self) -> EdgeColoredPoset:
        return EdgeColoredPoset(tuple(range(len(self.elements))), frozenset(self.covers))

    @cached_property
    def _component_bounds(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Flat lists lo and hi of each element's component bounds, for alpha
        then beta: index it by `color is BETA`, which hashes no enum."""
        sizes = list(map(int.bit_count, self.elements))
        bounds = (sizes, sizes[:]), (sizes[:], sizes[:])
        (alo, ahi), (blo, bhi) = bounds
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
        return bounds

    def rank_stats(self, i: int, color: Color) -> tuple[int, int]:
        """(rho, length) of element i within its component of one color."""
        lo, hi = self._component_bounds[color is BETA]
        return self.size_of(i) - lo[i], hi[i] - lo[i]

    @cached_property
    def weights(self) -> tuple[Weight, ...]:
        (alo, ahi), (blo, bhi) = self._component_bounds
        out = []
        for i, mask in enumerate(self.elements):
            # m = 2 rho - length = 2 size - lo - hi, per color
            twice = 2 * mask.bit_count()
            out.append((twice - alo[i] - ahi[i], twice - blo[i] - bhi[i]))
        return tuple(out)

    def weight(self, i: int) -> Weight:
        return self.weights[i]

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


def check_structure(lattice: IdealLattice, matrix: tuple[Weight, Weight]) -> bool:
    """True iff every edge of color c shifts the weight by row c of matrix."""
    weights, cov = lattice.weights, lattice.covers
    for i, j, b in zip(cov.lower, cov.upper, cov.beta):
        (p1, q1), (p2, q2) = weights[i], weights[j]
        if (p2 - p1, q2 - q1) != matrix[b]:
            return False
    return True


def structure_rows(lattice: IdealLattice) -> list[Weight | None] | None:
    """The weight shift shared by all covers of each color, alpha then beta,
    with None for a color that has no covers (its row is then free); None
    overall when two covers of one color shift the weight differently.
    Rows are indexed by a cover's beta byte."""
    weights, cov = lattice.weights, lattice.covers
    rows: list[Weight | None] = [None, None]
    for i, j, b in zip(cov.lower, cov.upper, cov.beta):
        (p1, q1), (p2, q2) = weights[i], weights[j]
        d = (p2 - p1, q2 - q1)
        if rows[b] is None:
            rows[b] = d
        elif rows[b] != d:
            return None
    return rows


def infer_structure_matrix(lattice: IdealLattice) -> tuple[Weight, Weight] | None:
    """The unique matrix satisfied by the weight shifts, or None.

    None signals either disagreeing shifts within one color class or a
    color with no edges at all (the matrix would not be unique).
    """
    rows = structure_rows(lattice)
    return None if rows is None or None in rows else (rows[0], rows[1])


def _piece_elements(lattice: IdealLattice, i: int,
                    dec: Decomposition) -> list[tuple[IdealLattice, int]]:
    """(piece lattice, index of element i's intersection with that piece) per piece."""
    if lattice.vertex_order != dec.order:
        raise ValueError("the decomposition is of a grid with another vertex order")
    mask = lattice.elements[i]
    return [(sub, index[mask & bits])
            for sub, (bits, index, _) in zip(dec.lattices, dec.projections)]


def weight_via_decomposition(lattice: IdealLattice, i: int,
                             dec: Decomposition) -> Weight:
    """Sum of piece-lattice weights of the intersections with each piece."""
    total = (0, 0)
    for sub, j in _piece_elements(lattice, i, dec):
        w = sub.weight(j)
        total = (total[0] + w[0], total[1] + w[1])
    return total


def piece_rank_stats(lattice: IdealLattice, i: int, dec: Decomposition,
                     color: Color) -> tuple[int, int]:
    """(sum of piece rho, sum of piece lengths) for one color."""
    rho = length = 0
    beta = color is BETA
    for sub, j in _piece_elements(lattice, i, dec):
        lo, hi = sub._component_bounds[beta]
        rho += sub.size_of(j) - lo[j]
        length += hi[j] - lo[j]
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
