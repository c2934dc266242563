import itertools
from array import array

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


def element_vertices(lat, i: int) -> frozenset[int]:
    """The vertex set of lattice element i, read bit by bit off its mask."""
    mask = lat.elements[i]
    return frozenset(v for b, v in enumerate(lat.vertex_order) if mask >> b & 1)


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


# --- the tableau case's covers, changed where only that case reads them -------


def beta_flipped(lower, upper, beta):
    """The first cover's color flipped."""
    beta[:1] = bytes(b ^ 1 for b in beta[:1])
    return lower, upper, beta


def cover_dropped(lower, upper, beta):
    """The first cover dropped."""
    return lower[1:], upper[1:], beta[1:]


def cover_copied(lower, upper, beta):
    """The second cover replaced by a copy of the first: each cover is
    still a tableau cover, and there are as many as before."""
    if len(lower) > 1:
        for column in (lower, upper, beta):
            column[1] = column[0]
    return lower, upper, beta


def covers_of(n, lower, upper, beta):
    """`lattice.Covers` over n elements from the columns lower, upper and
    beta, lower ascending as every mutation here keeps it: element i's
    degree is its count in lower."""
    from ranktwo.lattice import Covers

    assert list(lower) == sorted(lower), "a cover column of lower ends ascends"
    degree = [0] * n
    for i in lower:
        degree[i] += 1
    return Covers(bytes(degree), array("I", upper), bytes(beta))


def tamper_tableau_case_covers(monkeypatch, change, weight=None):
    """Make the verifier's tableau case read its beta-alpha lattice's covers
    as change(lower, upper, beta) gives them from two lists and a bytearray,
    at every weight or at `weight` only.  The lattice keeps its own covers,
    so no other criterion, and no later reader, sees the change."""
    from ranktwo import verify

    tableau_case = verify.Verifier._tableau_case

    def tampered(self, algebra, lam):
        if weight is not None and lam != weight:
            return tableau_case(self, algebra, lam)
        lat = self.lattice(algebra, "beta_alpha", lam)
        cov = lat.covers  # a cached_property: the value sits in the instance dict
        lower, upper, beta = change(list(cov.lower), list(cov.upper), bytearray(cov.beta))
        with pytest.MonkeyPatch.context() as m:
            m.setitem(vars(lat), "covers", covers_of(len(lat), lower, upper, beta))
            return tableau_case(self, algebra, lam)

    monkeypatch.setattr(verify.Verifier, "_tableau_case", tampered)
