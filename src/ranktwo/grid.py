"""Grid posets: chain functions, two-color axioms, max property, and the
decomposition of a grid poset into an order-ideal prefix and its complement.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from functools import cached_property, lru_cache

from .algebras import Algebra, Color, sigma0
from .poset import PosetError, VertexColoredPoset, vertex_color_isomorphism
from .record import field, record
TYPE_CHECKING = False  # as typing's, without importing typing
if TYPE_CHECKING:
    from .lattice import IdealLattice


@record
class GridPoset:
    """A vertex-colored poset with a chain function into [m].

    Chain indices are stored exactly as given, so that violations in the
    input (jumped chains and the like) stay visible to validate_grid.
    """

    base: VertexColoredPoset
    chains: tuple[tuple[int, int], ...]  # (vertex id, chain index), sorted by id

    def __post_init__(self):
        if sorted(v for v, _ in self.chains) != sorted(self.base.ids):
            raise PosetError("chain function must cover exactly the vertex set")

    @staticmethod
    def build(colors: Mapping[int, Color], covers: Iterable[tuple[int, int]],
              chain: Mapping[int, int]) -> "GridPoset":
        base = VertexColoredPoset.build(colors, covers)
        return GridPoset(base, tuple(sorted(chain.items())))

    def __len__(self) -> int:
        return len(self.base)

    @cached_property
    def chain_of(self) -> dict[int, int]:
        return dict(self.chains)

    @cached_property
    def num_chains(self) -> int:
        return max((c for _, c in self.chains), default=0)

    @cached_property
    def total_order(self) -> tuple[int, ...]:
        """Vertices by ascending chain index, descending poset order within a
        chain: each chain's members by how many of them lie below each, read
        off a reach mask over `linear_extension`, most first, ties by id."""
        base, below, chains, out = self.base, {}, {}, []
        bit = {v: 1 << k for k, v in enumerate(base.linear_extension)}
        for v in base.linear_extension:
            below[v] = 0
            for u in base.lower_covers[v]:
                below[v] |= below[u] | bit[u]
        for v, c in self.chains:
            chains.setdefault(c, []).append(v)
        for c in sorted(chains):
            mask = sum(map(bit.__getitem__, chains[c]))
            out += sorted(chains[c], key=lambda v: ((below[v] & mask).bit_count(), v), reverse=True)
        return tuple(out)

    def dual(self) -> "GridPoset":
        m = self.num_chains
        return GridPoset(self.base.dual(), tuple((v, m + 1 - c) for v, c in self.chains))

    def recolor(self, sigma: Mapping[Color, Color]) -> "GridPoset":
        return GridPoset(self.base.recolor(sigma), self.chains)

    def relabel(self, mapping: Mapping[int, int]) -> "GridPoset":
        return GridPoset(self.base.relabel(mapping),
                         tuple(sorted((mapping[v], c) for v, c in self.chains)))

    def restrict(self, keep: Iterable[int]) -> "GridPoset":
        keep = set(keep)
        return GridPoset(self.base.restrict(keep),
                         tuple((v, c) for v, c in self.chains if v in keep))


def validate_grid(p: GridPoset) -> list[str]:
    """Check the chain axioms and the two-color axioms; violations are data."""
    violations: list[str] = []
    base, chain = p.base, p.chain_of
    by_chain: dict[int, list[int]] = {}
    for v, c in p.chains:
        by_chain.setdefault(c, []).append(v)
    for c, members in sorted(by_chain.items()):
        for u, v in itertools.combinations(members, 2):
            if not (base.leq(u, v) or base.leq(v, u)):
                violations.append(f"chain {c} is not a chain: {u} and {v} incomparable")
    for u, v in sorted(base.covers):
        if chain[u] not in (chain[v], chain[v] + 1):
            violations.append(
                f"cover ({u}, {v}) jumps chains {chain[u]} -> {chain[v]}")
    color = base.color_of
    for c, members in sorted(by_chain.items()):
        cols = {color[v] for v in members}
        if len(cols) > 1:
            violations.append(f"chain {c} mixes colors")
    for comp in base.components:
        for u in sorted(comp):
            for v in sorted(comp):
                if chain[u] == chain[v] + 1 and color[u] is color[v]:
                    violations.append(
                        f"adjacent chains {chain[v]}, {chain[u]} share color "
                        f"in one component ({v}, {u})")
    return violations


def total_order(p: GridPoset) -> tuple[int, ...]:
    """Vertices by ascending chain index, descending poset order within a
    chain (`GridPoset.total_order`)."""
    return p.total_order


def has_max_property(p: GridPoset) -> bool:
    """All maximal elements on the first two chains, with pairwise distinct
    colors, for some valid re-indexing of the chain function.

    Components occupy disjoint chain intervals, so a re-indexing only orders
    them.  Two colors allow at most two maxima, and every component has one:
    so one component must have its maxima within two chains of its lowest,
    and of two, one must be a single chain, put first, and the other's
    maximum must sit on its lowest chain.  Three components have three
    maxima, two of one color.
    """
    maxima, color, chain = p.base.maximal_elements, p.base.color_of, p.chain_of
    if len({color[v] for v in maxima}) < len(maxima):
        return False
    spans = []  # per component: its width and its maxima's reach, above its lowest chain
    for comp in p.base.components:
        lo = min(chain[v] for v in comp)
        spans.append((max(chain[v] for v in comp) - lo,
                      max(chain[v] for v in maxima if v in comp) - lo))
    if len(spans) == 2:
        return min(w for w, _ in spans) == 0 and max(r for _, r in spans) == 0
    return all(r <= 1 for _, r in spans)  # one component, or none


@record
class Decomposition:
    """Ordered pieces of a grid poset; each prefix union is an order ideal.

    `decompose` restricts the grid to the pieces it finds, labels them by
    one fixture search per piece shape per process and walks each piece
    lattice on first use.  The builder's decomposition
    (`SemistandardPoset.decomposition`) is made with no search, as its
    fundamental posets and lattices shifted by each piece's id offset, in
    O(piece), the lattices sharing their read-only columns.
    """

    pieces: tuple[GridPoset, ...]
    labels: tuple[str | None, ...]  # fundamental-poset type per piece, if any
    order: tuple[int, ...]  # total_order of the decomposed grid
    # the piece lattices, when the maker of the pieces has them
    _lattices: tuple[IdealLattice, ...] | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.pieces)

    @cached_property
    def lattices(self) -> tuple[IdealLattice, ...]:
        """The lattice of order ideals of each piece."""
        if self._lattices is not None:
            return self._lattices
        from .lattice import order_ideals  # deferred: lattice imports grid

        return tuple(order_ideals(piece) for piece in self.pieces)

    @cached_property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """Per piece lattice, the mask over `order` of each of its elements."""
        bit = {v: 1 << b for b, v in enumerate(self.order)}
        return tuple(tuple(sub.carry([bit[v] for v in sub.vertex_order]))
                     for sub in self.lattices)


def _splits_validly(part: int, rest: int, lower: list[int], upper: list[int],
                    chain: list[int]) -> bool:
    """No maximal element of `part` sits on a higher chain than a maximal
    element of `rest`, and likewise for minimal elements.  Both sides are
    masks over one vertex order; lower, upper and chain give per bit the
    masks of the vertex's lower and upper covers and its chain index.
    Chain indices ascend with the bit, as in `total_order`, so a side's
    highest extreme chain is that of its first extreme vertex from the top
    bit down, and its lowest that of its first from the bottom bit up."""

    def highest(side: int, covers: list[int]) -> int:
        left = side
        while left:
            b = left.bit_length() - 1
            if not covers[b] & side:
                return chain[b]
            left ^= 1 << b
        return 0

    def lowest(side: int, covers: list[int]) -> int:
        left = side
        while left:
            low = left & -left
            b = low.bit_length() - 1
            if not covers[b] & side:
                return chain[b]
            left ^= low
        return 10**9

    return (highest(part, upper) <= lowest(rest, upper)
            and highest(part, lower) <= lowest(rest, lower))


def decompose(p: GridPoset | IdealLattice) -> Decomposition:
    """Maximal decomposition into indecomposable pieces (k = 1 when none).

    The pieces are read off the masks of `order_ideals(p)`, so this raises
    `TooManyIdeals` past its limit; given the lattice already enumerated
    from a grid poset, it reads that lattice's masks and enumerates nothing.
    Each piece is the difference between the union U of the pieces before
    it and the first lattice element in (size, mask) order that strictly
    contains U and whose difference from U splits validly from the rest:
    ties go to the least mask.  The top, with nothing left beside it, always
    splits, so when no smaller element does, what is left is the last piece.
    """
    from .lattice import IdealLattice, order_ideals  # deferred: lattice imports grid

    if isinstance(p, IdealLattice):
        lat, p = p, p.poset
        if not isinstance(p, GridPoset):
            raise ValueError("decompose needs the lattice of a grid poset")
    else:
        lat = order_ideals(p)
    order = lat.vertex_order
    bit = {v: 1 << b for b, v in enumerate(order)}
    lower = [sum(bit[u] for u in p.base.lower_covers[v]) for v in order]
    upper = [sum(bit[w] for w in p.base.upper_covers[v]) for v in order]
    chain = [p.chain_of[v] for v in order]
    full, union, parts = lat.elements[-1], 0, []
    # elements ascend in size, so every later piece lies past the one found
    for mask in lat.elements:
        if (mask != union and mask & union == union
                and _splits_validly(mask ^ union, full ^ mask, lower, upper, chain)):
            parts.append(mask ^ union)
            union = mask
    pieces = tuple(p.restrict(v for b, v in enumerate(order) if part >> b & 1)
                   for part in parts)
    labels = []
    for piece in pieces:
        base = piece.base
        at = {v: k for k, v in enumerate(v for v in order if v in base.color_of)}
        labels.append(_fixture_label(tuple(base.color_of[v] for v in at),
                                     frozenset((at[u], at[v]) for u, v in base.covers)))
    return Decomposition(pieces, tuple(labels), order)


# bounded, since the shapes come from the callers' grids
@lru_cache(maxsize=1024)
def _fixture_label(colors: tuple[Color, ...], covers: frozenset[tuple[int, int]]) -> str | None:
    """The label of the first fundamental fixture isomorphic to the piece
    shape given by its colors and covers over its vertices numbered by
    position in the decomposed order, or None.  Pieces of one shape are
    isomorphic, so each shape is searched once per process."""
    from .build import fundamental_fixtures  # deferred: build imports grid

    base = VertexColoredPoset.build(dict(enumerate(colors)), covers)
    return next((name for name, fund in fundamental_fixtures().items()
                 if vertex_color_isomorphism(base, fund.base) is not None), None)


def triangle_dual(p, algebra: Algebra):
    """Dual recolored by the Dynkin symmetry of the longest Weyl element."""
    return p.dual().recolor(sigma0(algebra))
