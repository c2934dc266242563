"""Grid posets: chain functions, two-color axioms, max property, and the
decomposition of a grid poset into an order-ideal prefix and its complement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .algebras import Algebra, Color, sigma0
from .poset import PosetError, VertexColoredPoset, vertex_color_isomorphism

if TYPE_CHECKING:
    from .lattice import IdealLattice


@dataclass(frozen=True)
class GridPoset:
    """A vertex-colored poset with a chain function into [m].

    Chain indices are stored exactly as given, so that violations in the
    input (jumped chains and the like) stay visible to validate_grid;
    normalized() re-indexes onto a surjective 1..m', which is unique for
    a connected grid poset.
    """

    base: VertexColoredPoset
    chains: tuple[tuple[int, int], ...]  # (vertex id, chain index), sorted by id

    def __post_init__(self):
        if sorted(v for v, _ in self.chains) != sorted(self.base.ids):
            raise PosetError("chain function must cover exactly the vertex set")

    def normalized(self) -> "GridPoset":
        used = sorted({c for _, c in self.chains})
        renum = {c: i + 1 for i, c in enumerate(used)}
        return GridPoset(self.base, tuple((v, renum[c]) for v, c in self.chains))

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

    def chain_members(self, c: int) -> tuple[int, ...]:
        """Elements of one chain, bottom to top."""
        members = [v for v, cc in self.chains if cc == c]
        below = self.base.below
        return tuple(sorted(members, key=lambda v: len(below[v] & set(members))))

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
    """Vertices by ascending chain index, descending poset order within a chain."""
    out: list[int] = []
    for c in sorted({c for _, c in p.chains}):
        out.extend(reversed(p.chain_members(c)))
    return tuple(out)


def _component_intervals(p: GridPoset) -> list[tuple[frozenset[int], int, int]]:
    """(component, lowest chain, highest chain) per connected component."""
    chain = p.chain_of
    out = []
    for comp in p.base.components:
        cs = [chain[v] for v in comp]
        out.append((comp, min(cs), max(cs)))
    return out


def has_max_property(p: GridPoset) -> bool:
    """All maximal elements on the first two chains, with pairwise distinct
    colors, for some valid re-indexing of the chain function.

    Components occupy disjoint chain intervals, so the only freedom beyond
    the canonical surjective re-indexing is the order of the components.
    """
    if len(p) == 0:
        return True
    maxima = p.base.maximal_elements
    color = p.base.color_of
    for u, v in itertools.combinations(maxima, 2):
        if color[u] is color[v]:
            return False
    # Two colors and pairwise-distinct maxima: at most two maximal elements,
    # and every component has at least one, so at most two components.
    comps = _component_intervals(p)
    if len(comps) > 2:
        return False
    chain = p.chain_of

    def local(v: int, comp_lo: int) -> int:
        return chain[v] - comp_lo + 1

    if len(comps) == 1:
        comp, lo, _ = comps[0]
        return all(local(v, lo) <= 2 for v in maxima)
    for first, second in itertools.permutations(comps):
        comp1, lo1, hi1 = first
        comp2, lo2, _ = second
        width1 = hi1 - lo1 + 1
        ok = all(local(v, lo1) <= 2 for v in maxima if v in comp1) and all(
            width1 + local(v, lo2) <= 2 for v in maxima if v in comp2)
        if ok:
            return True
    return False


def carry_mask(mask: int, image_bit: Sequence[int]) -> int:
    """The union of image_bit[b] over the set bits b of mask: a mask over one
    vertex order carried into another, walking only the bits that are set."""
    out = 0
    while mask:
        low = mask & -mask
        out |= image_bit[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(frozen=True)
class Decomposition:
    """Ordered pieces of a grid poset; each prefix union is an order ideal."""

    pieces: tuple[GridPoset, ...]
    labels: tuple[str | None, ...]  # fundamental-poset type per piece, if any
    order: tuple[int, ...]  # total_order of the decomposed grid

    def __len__(self) -> int:
        return len(self.pieces)

    @cached_property
    def lattices(self) -> tuple[IdealLattice, ...]:
        """The lattice of order ideals of each piece."""
        from .lattice import order_ideals  # deferred: lattice imports grid

        return tuple(order_ideals(piece) for piece in self.pieces)

    @cached_property
    def projections(self) -> tuple[tuple[int, dict[int, int], tuple[int, ...]], ...]:
        """Per piece lattice, (bits, index, masks): the piece's bits in `order`,
        the index in the piece lattice keyed by a mask over `order` and-ed
        with bits, so projecting an element is one `&` and one lookup, and
        its inverse, the mask over `order` of each piece-lattice element."""
        bit = {v: 1 << b for b, v in enumerate(self.order)}
        out = []
        for sub in self.lattices:
            to_global = [bit[v] for v in sub.vertex_order]
            masks = tuple(carry_mask(local, to_global) for local in sub.elements)
            out.append((sum(to_global), {m: k for k, m in enumerate(masks)}, masks))
        return tuple(out)


def _splits_validly(part: int, rest: int, lower: list[int], upper: list[int],
                    chain: list[int]) -> bool:
    """No maximal element of `part` sits on a higher chain than a maximal
    element of `rest`, and likewise for minimal elements.  Both sides are
    masks over one vertex order; lower, upper and chain give per bit the
    masks of the vertex's lower and upper covers and its chain index."""

    def extreme_chains(side: int, covers: list[int]) -> list[int]:
        return [c for b, c in enumerate(chain) if side >> b & 1 and not covers[b] & side]

    return (max(extreme_chains(part, upper), default=0)
            <= min(extreme_chains(rest, upper), default=10**9)
            and max(extreme_chains(part, lower), default=0)
            <= min(extreme_chains(rest, lower), default=10**9))


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
    from .build import fundamental_fixtures  # deferred: build imports grid
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
    fixtures = fundamental_fixtures()
    labels = tuple(next((name for name, fund in fixtures.items()
                         if vertex_color_isomorphism(piece.base, fund.base) is not None), None)
                   for piece in pieces)
    return Decomposition(pieces, labels, order)


def triangle_dual(p, algebra: Algebra):
    """Dual recolored by the Dynkin symmetry of the longest Weyl element."""
    return p.dual().recolor(sigma0(algebra))
