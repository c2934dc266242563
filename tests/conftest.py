import itertools

import pytest

from ranktwo.algebras import ALPHA, BETA
from ranktwo.poset import EdgeColoredPoset, VertexColoredPoset


def brute_force_ideals(base: VertexColoredPoset) -> set[frozenset[int]]:
    """Independent oracle: filter all subsets for down-closure (n <= 20)."""
    ids = list(base.ids)
    assert len(ids) <= 20, "brute force oracle is for small posets"
    out = set()
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            s = frozenset(combo)
            if all(u in s for u, v in base.covers if v in s):
                out.add(s)
    return out


def transitive_reduction(n: int, relations: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Cover relation of the partial order generated by `relations` on 0..n-1."""
    reach = {v: set() for v in range(n)}
    changed = True
    while changed:
        changed = False
        for u, v in relations:
            add = {v} | reach[v]
            if not add <= reach[u]:
                reach[u] |= add
                changed = True
    for v in range(n):
        assert v not in reach[v], "generated relation has a cycle"
    covers = set()
    for u in range(n):
        for v in reach[u]:
            if not any(v in reach[w] for w in reach[u] if w != v):
                covers.add((u, v))
    return covers


def minimal_elements(p: VertexColoredPoset) -> tuple[int, ...]:
    return tuple(v for v in p.ids if not p.lower_covers[v])


def diamond_coloring_check(p: EdgeColoredPoset) -> bool:
    """Every diamond must have equal colors on its opposite sides."""
    up = p.upper_covers
    for s in p.elements:
        outs = up[s]
        for (u, cu), (v, cv) in itertools.combinations(outs, 2):
            tops_u = dict(up[u])
            for t, ct in up[v]:
                if t in tops_u:
                    # s->u colored cu, s->v colored cv, u->t, v->t
                    if not (cu == ct and cv == tops_u[t]):
                        return False
    return True


def random_colored_poset(rng, n: int) -> VertexColoredPoset:
    relations = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                relations.add((u, v))
    covers = transitive_reduction(n, relations)
    colors = {v: (ALPHA if rng.random() < 0.5 else BETA) for v in range(n)}
    return VertexColoredPoset.build(colors, covers)


@pytest.fixture
def rng():
    import random

    return random.Random(20070428)
