"""Colored posets given by Hasse covers.

Two flavours: vertex-colored posets (the P side, whose order ideals get
enumerated; grids take their duals, recolorings, relabellings and
restrictions) and edge-colored posets (the L side, lattices of ideals).
Both are immutable after construction; construction validates acyclicity
and irredundancy of the cover relation, rejecting transitive edges rather
than repairing them.  Beside them: the colored product of two
edge-colored posets, rank functions, and one isomorphism search over
labelled covers for both flavours.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .algebras import Color


class PosetError(ValueError):
    pass


def _check_covers(ids: tuple[int, ...], pairs: Iterable[tuple[int, int]]) -> None:
    """Reject unknown ids, cycles and transitive (redundant) covers."""
    idset = set(ids)
    if len(idset) != len(ids):
        raise PosetError("duplicate vertex ids")
    up: dict[int, list[int]] = {v: [] for v in ids}
    pairs = list(pairs)
    for u, v in pairs:
        if u not in idset or v not in idset:
            raise PosetError(f"cover ({u}, {v}) uses an unknown id")
        if u == v:
            raise PosetError(f"cover ({u}, {u}) is a loop")
        up[u].append(v)
    order = _topological_order(ids, up)
    if order is None:
        raise PosetError("cover relation contains a cycle")
    # reach[v] = bitmask of vertices strictly above v
    pos = {v: i for i, v in enumerate(order)}
    reach = [0] * len(order)
    for v in reversed(order):
        m = 0
        for w in up[v]:
            m |= (1 << pos[w]) | reach[pos[w]]
        reach[pos[v]] = m
    for u, v in pairs:
        two_step = 0
        for w in up[u]:
            two_step |= reach[pos[w]]
        if (two_step >> pos[v]) & 1:
            raise PosetError(f"cover ({u}, {v}) is transitive")


def _topological_order(ids: tuple[int, ...], up: Mapping[int, list[int]]) -> list[int] | None:
    indeg = {v: 0 for v in ids}
    for v in ids:
        for w in up[v]:
            indeg[w] += 1
    stack = sorted((v for v in ids if indeg[v] == 0), reverse=True)
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in sorted(up[v], reverse=True):
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(order) != len(ids):
        return None
    return order


@dataclass(frozen=True)
class VertexColoredPoset:
    """Finite poset with {alpha, beta}-colored vertices, given by covers."""

    vertices: tuple[tuple[int, Color], ...]
    covers: frozenset[tuple[int, int]]

    def __post_init__(self):
        _check_covers(self.ids, self.covers)

    @staticmethod
    def build(colors: Mapping[int, Color], covers: Iterable[tuple[int, int]]) -> "VertexColoredPoset":
        verts = tuple(sorted(colors.items()))
        return VertexColoredPoset(verts, frozenset((u, v) for u, v in covers))

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.vertices)

    @cached_property
    def color_of(self) -> dict[int, Color]:
        return dict(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def upper_covers(self) -> dict[int, tuple[int, ...]]:
        up: dict[int, list[int]] = {v: [] for v in self.ids}
        for u, v in self.covers:
            up[u].append(v)
        return {v: tuple(sorted(ws)) for v, ws in up.items()}

    @cached_property
    def lower_covers(self) -> dict[int, tuple[int, ...]]:
        down: dict[int, list[int]] = {v: [] for v in self.ids}
        for u, v in self.covers:
            down[v].append(u)
        return {v: tuple(sorted(ws)) for v, ws in down.items()}

    @cached_property
    def linear_extension(self) -> tuple[int, ...]:
        return tuple(_topological_order(self.ids, {v: list(ws) for v, ws in self.upper_covers.items()}))

    @cached_property
    def below(self) -> dict[int, frozenset[int]]:
        """Strict down-sets: below[v] = all u with u < v."""
        out: dict[int, set[int]] = {v: set() for v in self.ids}
        for v in self.linear_extension:
            for u in self.lower_covers[v]:
                out[v].add(u)
                out[v] |= out[u]
        return {v: frozenset(s) for v, s in out.items()}

    def leq(self, u: int, v: int) -> bool:
        return u == v or u in self.below[v]

    @cached_property
    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(v for v in self.ids if not self.upper_covers[v])

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        return _components(self.ids, self.covers)

    def dual(self) -> "VertexColoredPoset":
        return VertexColoredPoset(self.vertices, frozenset((v, u) for u, v in self.covers))

    def recolor(self, sigma: Mapping[Color, Color]) -> "VertexColoredPoset":
        verts = tuple((v, sigma[c]) for v, c in self.vertices)
        return VertexColoredPoset(verts, self.covers)

    def relabel(self, mapping: Mapping[int, int]) -> "VertexColoredPoset":
        verts = tuple(sorted((mapping[v], c) for v, c in self.vertices))
        return VertexColoredPoset(verts, frozenset((mapping[u], mapping[v]) for u, v in self.covers))

    def restrict(self, keep: Iterable[int]) -> "VertexColoredPoset":
        """Subposet on `keep` whose covers are the covers of self (grid-subposet sense)."""
        keep = set(keep)
        verts = tuple((v, c) for v, c in self.vertices if v in keep)
        covs = frozenset((u, v) for u, v in self.covers if u in keep and v in keep)
        return VertexColoredPoset(verts, covs)


@dataclass(frozen=True)
class EdgeColoredPoset:
    """Finite poset with {alpha, beta}-colored Hasse edges."""

    elements: tuple[int, ...]
    covers: frozenset[tuple[int, int, Color]]

    def __post_init__(self):
        pairs = [(u, v) for u, v, _ in self.covers]
        if len(set(pairs)) != len(pairs):
            raise PosetError("two colors assigned to one cover")
        _check_covers(self.elements, pairs)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def upper_covers(self) -> dict[int, tuple[tuple[int, Color], ...]]:
        up: dict[int, list[tuple[int, Color]]] = {v: [] for v in self.elements}
        for u, v, c in self.covers:
            up[u].append((v, c))
        return {v: tuple(sorted(ws, key=lambda t: (t[0], t[1].value))) for v, ws in up.items()}

    @cached_property
    def lower_covers(self) -> dict[int, tuple[tuple[int, Color], ...]]:
        down: dict[int, list[tuple[int, Color]]] = {v: [] for v in self.elements}
        for u, v, c in self.covers:
            down[v].append((u, c))
        return {v: tuple(sorted(ws, key=lambda t: (t[0], t[1].value))) for v, ws in down.items()}

    @cached_property
    def linear_extension(self) -> tuple[int, ...]:
        return tuple(_topological_order(
            self.elements, {v: [w for w, _ in ws] for v, ws in self.upper_covers.items()}))


def _components(ids: Iterable[int], pairs: Iterable[tuple[int, int]]) -> tuple[frozenset[int], ...]:
    parent = {v: v for v in ids}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=lambda g: min(g)))


def product(p: EdgeColoredPoset, q: EdgeColoredPoset) -> EdgeColoredPoset:
    """Componentwise product: a cover moves one coordinate along one of its covers."""
    pairs = list(itertools.product(p.elements, q.elements))
    index = {pair: i for i, pair in enumerate(pairs)}
    covers = set()
    for u, v, c in p.covers:
        for w in q.elements:
            covers.add((index[(u, w)], index[(v, w)], c))
    for u, v, c in q.covers:
        for w in p.elements:
            covers.add((index[(w, u)], index[(w, v)], c))
    return EdgeColoredPoset(tuple(range(len(pairs))), frozenset(covers))


@dataclass(frozen=True)
class RankFunction:
    """Surjective rank map onto {0..length}; every cover raises rank by one."""

    ranks: tuple[tuple[int, int], ...]  # (element, rank), sorted by element
    length: int

    def rank_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (self.length + 1)
        for _, r in self.ranks:
            sizes[r] += 1
        return tuple(sizes)


def find_rank_function(p) -> RankFunction | None:
    """Rank function of a (possibly disconnected) poset, or None.

    Ranks are propagated along covers inside each connected component and
    each component is based at zero; the result must be surjective onto
    {0..l} and raise by exactly one along every cover.
    """
    if isinstance(p, VertexColoredPoset):
        ids, pairs = p.ids, [(u, v) for u, v in p.covers]
    else:
        ids, pairs = p.elements, [(u, v) for u, v, _ in p.covers]
    if not ids:
        return None
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in ids}
    for u, v in pairs:
        adj[u].append((v, 1))
        adj[v].append((u, -1))
    rank: dict[int, int] = {}
    for root in ids:
        if root in rank:
            continue
        comp = [root]
        rank[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, d in adj[v]:
                r = rank[v] + d
                if w in rank:
                    if rank[w] != r:
                        return None
                else:
                    rank[w] = r
                    comp.append(w)
                    stack.append(w)
        base = min(rank[v] for v in comp)
        for v in comp:
            rank[v] -= base
    length = max(rank.values())
    present = set(rank.values())
    if present != set(range(length + 1)):
        return None
    return RankFunction(tuple(sorted(rank.items())), length)


# ---------------------------------------------------------------------------
# Isomorphism search over labelled covers, one for both flavours: a vertex
# carries its color and its covers carry "", or a vertex carries "" and each
# cover its color.  All instances in this project are small (well under 1000
# elements).

def _signatures(order, lower, label) -> dict[int, tuple]:
    """Per vertex: its label, depth, and the sorted labels of its lower and
    of its upper covers, keyed in the order of `label`."""
    depth: dict[int, int] = {}
    lows: dict[int, tuple] = {}
    ups: dict[int, list] = {v: [] for v in order}
    for v in order:
        d, labels = 0, []
        for u, c in lower[v]:
            if depth[u] >= d:
                d = depth[u] + 1
            labels.append(c)
            ups[u].append(c)
        depth[v], lows[v] = d, tuple(sorted(labels))
    return {v: (x, depth[v], lows[v], tuple(sorted(ups[v]))) for v, x in label.items()}


def _labelled_isomorphism(p, q) -> dict[int, int] | None:
    """An isomorphism between two (linear extension, lower covers as (u, label)
    pairs, vertex labels) triples, or None.

    Depth-first along p's linear extension, one candidate iterator per
    assigned vertex: a candidate is an unused vertex of q with the same
    signature whose lower covers are the images of v's, with their labels.
    """
    porder, plower, _ = p
    qorder, qlower, _ = q
    psig, qsig = _signatures(*p), _signatures(*q)
    if sorted(psig.values()) != sorted(qsig.values()):
        return None
    if not porder:
        return {}
    buckets: dict[tuple, list[int]] = {}
    for w, sig in qsig.items():
        buckets.setdefault(sig, []).append(w)
    qcovers = {(u, w): c for w in qorder for u, c in qlower[w]}
    mapping: dict[int, int] = {}
    used: set[int] = set()
    candidates = [iter(buckets[psig[porder[0]]])]
    while candidates:
        v = porder[len(candidates) - 1]
        if v in mapping:  # back here after a dead end above: undo v
            used.remove(mapping.pop(v))
        for w in candidates[-1]:
            if w not in used and all(qcovers.get((mapping[u], w)) == c for u, c in plower[v]):
                break
        else:
            candidates.pop()
            continue
        mapping[v] = w
        used.add(w)
        if len(candidates) == len(porder):
            return mapping
        candidates.append(iter(buckets[psig[porder[len(candidates)]]]))
    return None


def vertex_color_isomorphism(p: VertexColoredPoset, q: VertexColoredPoset) -> dict[int, int] | None:
    """An isomorphism p -> q respecting covers and vertex colors, or None."""
    if len(p) != len(q) or len(p.covers) != len(q.covers):
        return None
    return _labelled_isomorphism(*(
        (x.linear_extension, {v: [(u, "") for u in us] for v, us in x.lower_covers.items()},
         x.color_of) for x in (p, q)))


def edge_color_isomorphism(p: EdgeColoredPoset, q: EdgeColoredPoset) -> dict[int, int] | None:
    """An isomorphism p -> q respecting covers and edge colors, or None."""
    if len(p) != len(q) or len(p.covers) != len(q.covers):
        return None
    return _labelled_isomorphism(*(
        (x.linear_extension, x.lower_covers, dict.fromkeys(x.elements, "")) for x in (p, q)))

