"""The verification gate: each criterion can fail, the poset-level
isomorphism dichotomy agrees with the lattice-level search, and the duality
mapping on masks agrees with its vertex-set construction."""

from types import SimpleNamespace

import pytest

import ranktwo.tableaux
from ranktwo import verify
from ranktwo.algebras import Algebra, sigma0
from ranktwo.build import fundamental_poset, semistandard_poset
from ranktwo.fixtures import load_fixture
from ranktwo.grid import Decomposition, decompose, triangle_dual
from ranktwo.lattice import order_ideals, piece_rank_stats
from ranktwo.poset import edge_color_isomorphism, vertex_color_isomorphism
from ranktwo.weyl import (LaurentPoly2, alternating_sum, character_from_lattice,
                          rgf_product)

BOUND = (1, 1)


def run(bound=BOUND) -> dict:
    return {c["name"]: c for c in verify.Verifier(bound).run_all()["checks"]}


def test_untouched_gate_passes():
    report = run()
    assert len(report) == 9
    assert all(c["status"] == "PASS" for c in report.values()), report


# --- one fault per case, each making its criterion FAIL ----------------------


def wrong_fundamental_poset(m):
    m.setattr(verify, "fundamental_poset",
              lambda algebra, which: fundamental_poset(algebra, "beta_fund"))


def count_slowed_past_one_second(m):
    clock = [0.0]

    def slow_order_ideals(p, *args, **kwargs):
        clock[0] += 1.5
        return order_ideals(p, *args, **kwargs)

    m.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    m.setattr(verify, "order_ideals", slow_order_ideals)


def tampered_rgf_product(m):
    m.setattr(verify, "rgf_product",
              lambda algebra, lam: rgf_product(algebra, (lam[0] + 1, lam[1])))


def tampered_character(m):
    m.setattr(verify, "character_from_lattice",
              lambda lat: character_from_lattice(lat) + LaurentPoly2.monomial(0, 0))


def tampered_orbit_sum(m):
    m.setattr(verify, "alternating_sum",
              lambda algebra, mu: alternating_sum(algebra, (mu[0] + 1, mu[1])))


def wrong_cartan_matrix(m):
    m.setattr(verify, "cartan_matrix", lambda algebra: ((2, 0), (0, 2)))


def piece_rank_stats_off_by_one(m):
    def off(lattice, i, dec, color):
        rho, length = piece_rank_stats(lattice, i, dec, color)
        return rho + 1, length

    m.setattr(verify, "piece_rank_stats", off)


def decompose_in_reverse_order(m):
    # the right pieces, so every sum still holds, in the wrong order
    def reversed_pieces(grid):
        dec = decompose(grid)
        return Decomposition(dec.pieces[::-1], dec.labels[::-1], dec.order)

    m.setattr(verify, "decompose", reversed_pieces)


def tampered_tableau_weight(m):
    weight = ranktwo.tableaux.tableauwt
    m.setattr(ranktwo.tableaux, "tableauwt",
              lambda algebra, t: (weight(algebra, t)[0] + 1, weight(algebra, t)[1]))


def triangle_dual_that_does_not_dualize(m):
    m.setattr(verify, "triangle_dual", lambda p, algebra: p.recolor(sigma0(algebra)))


def dichotomy_claimed_for_a1a1(m):
    # P^ba(1,1) and P^ab(1,1) of A1+A1 are the same two-point antichain
    m.setattr(verify, "SIMPLE", tuple(Algebra))


def tampered_quasi_gaussian_product(m):
    product = verify.quasi_gaussian_product
    m.setattr(verify, "quasi_gaussian_product", lambda k: product(k + 1))


def wrong_warmup_fixture(m):
    m.setattr(verify, "load_fixture", lambda name: load_fixture("catalan_p3"))


FAULTS = [
    ("counts", wrong_fundamental_poset),
    ("counts", count_slowed_past_one_second),
    ("rgf_product_identity", tampered_rgf_product),
    ("weyl_character", tampered_character),
    ("weyl_character", tampered_orbit_sum),
    ("structure_condition", wrong_cartan_matrix),
    ("additivity", piece_rank_stats_off_by_one),
    ("additivity", decompose_in_reverse_order),
    ("tableau_suite", tampered_tableau_weight),
    ("duality", triangle_dual_that_does_not_dualize),
    ("duality", dichotomy_claimed_for_a1a1),
    ("quasi_gaussian", tampered_quasi_gaussian_product),
    ("warmup_goldens", wrong_warmup_fixture),
]


@pytest.mark.parametrize("name, fault", FAULTS,
                         ids=[f"{name}-{fault.__name__}" for name, fault in FAULTS])
def test_fault_fails_its_criterion(monkeypatch, name, fault):
    fault(monkeypatch)
    check = run()[name]
    assert check["status"] == "FAIL"
    assert "error:" not in check["params"]


def test_every_criterion_has_a_fault():
    assert {name for name, _ in FAULTS} == set(run())


def test_crashing_check_fails_with_its_error(monkeypatch):
    def crash(grid):
        raise RuntimeError("decomposition crashed")

    monkeypatch.setattr(verify, "decompose", crash)
    check = run()["additivity"]
    assert check["status"] == "FAIL"
    assert check["params"].endswith("; error: decomposition crashed")


# --- the dichotomy on posets against the lattice-level search ----------------


@pytest.mark.parametrize("algebra", verify.SIMPLE, ids=lambda g: g.value)
def test_poset_dichotomy_matches_lattice_isomorphism(algebra):
    for a in range(3):
        for b in range(3):
            lat_ba, lat_ab = (order_ideals(semistandard_poset(algebra, order, (a, b)))
                              for order in verify.ORDERS)
            on_posets = vertex_color_isomorphism(lat_ba.base, lat_ab.base) is not None
            on_lattices = edge_color_isomorphism(lat_ba.edge_poset,
                                                 lat_ab.edge_poset) is not None
            assert on_posets == on_lattices
            assert on_posets == (a == 0 or b == 0)


# --- the duality mapping on masks against vertex sets ------------------------


def reference_dual_mapping(phi, lat_ba, lat_ab):
    """Oracle: each element's vertex set carried through phi, complemented
    and looked up by vertex set."""
    all_ba = frozenset(lat_ba.base.ids)
    index = {lat_ba.element_vertices(j): j for j in range(len(lat_ba))}
    return [index[all_ba - frozenset(phi[v] for v in lat_ab.element_vertices(i))]
            for i in range(len(lat_ab))]


def dual_pairs(algebra):
    """(lam, phi, lat_ba, lat_ab) at every weight up to (2,2), as check_duality builds them."""
    for lam in verify._weights_in_range((2, 2)):
        lat_ba, lat_ab = (order_ideals(semistandard_poset(algebra, order, lam))
                          for order in verify.ORDERS)
        phi = vertex_color_isomorphism(lat_ab.base, triangle_dual(lat_ba.poset, algebra).base)
        yield lam, phi, lat_ba, lat_ab


@pytest.mark.parametrize("algebra", list(Algebra), ids=lambda g: g.value)
def test_dual_mapping_matches_vertex_sets(algebra):
    for lam, phi, lat_ba, lat_ab in dual_pairs(algebra):
        mapping = verify._dual_mapping(phi, lat_ba, lat_ab)
        assert mapping == reference_dual_mapping(phi, lat_ba, lat_ab), lam
        assert verify._induced_lattice_iso_ok(algebra, phi, lat_ba, lat_ab), lam


@pytest.mark.parametrize("algebra", list(Algebra), ids=lambda g: g.value)
def test_dual_mapping_rejects_a_color_swapping_phi(algebra):
    for lam, phi, lat_ba, lat_ab in dual_pairs(algebra):
        if 0 in lam:
            continue
        color = lat_ba.base.color_of
        u = lat_ab.base.ids[0]
        v = next(w for w in lat_ab.base.ids if color[phi[w]] is not color[phi[u]])
        tampered = {**phi, u: phi[v], v: phi[u]}
        try:
            ok = verify._induced_lattice_iso_ok(algebra, tampered, lat_ba, lat_ab)
        except KeyError:  # an image that is no order ideal
            ok = False
        assert not ok, lam
