"""The verification gate: each criterion can fail, the poset-level
isomorphism dichotomy agrees with the lattice-level search, and the duality
mapping on masks agrees with its vertex-set construction and stays within
its memory bound."""

import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import pytest

from conftest import (beta_flipped, cover_copied, cover_dropped, element_vertices,
                      tamper_tableau_case_covers)
import ranktwo.tableaux
from ranktwo import verify
from ranktwo.algebras import ALPHA, BETA, Algebra, sigma0
from ranktwo.build import (SemistandardPoset, fundamental_lattice, fundamental_poset,
                           semistandard_poset)
from ranktwo.fixtures import load_fixture
from ranktwo.grid import Decomposition, decompose, triangle_dual
import ranktwo.lattice
import ranktwo.projection
from ranktwo.lattice import Weights, order_ideals, piece_rank_stats, projection_columns
from ranktwo.poset import edge_color_isomorphism, vertex_color_isomorphism
from ranktwo.record import replace
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
    def off(lattice, projection, color):
        rho, length = piece_rank_stats(lattice, projection, color)
        rho[-1] += 1  # the top element's rho only
        return rho, length

    m.setattr(verify, "piece_rank_stats", off)


def one_piece_weight_off_by_one(m):
    # the last piece lattice's top element weighs one more in alpha, before
    # the sums read it; the lattice shared by that label's other pieces and
    # the fundamental lattice keep their weights
    def tampered(lattice, dec):
        projection = projection_columns(lattice, dec)
        piece, column = projection[-1]
        changed = replace(piece)
        alpha = list(piece.weights.alpha)
        alpha[-1] += 1
        vars(changed).update(weights=Weights(alpha, piece.weights.beta, piece.weights.offset),
                             _component_bounds=piece._component_bounds)
        return type(projection)([*projection[:-1], (changed, column)])

    m.setattr(verify, "projection_columns", tampered)


def decompose_in_reverse_order(m):
    # the right pieces, so every sum still holds, in the wrong order
    def reversed_pieces(grid):
        dec = decompose(grid)
        return Decomposition(dec.pieces[::-1], dec.labels[::-1], dec.order)

    m.setattr(verify, "decompose", reversed_pieces)


def tampered_column_table(m, name, change):
    """The column table with change(table, entry) applied to each column
    id's entry of field `name`."""
    column_table = ranktwo.tableaux.column_table

    def tampered(algebra):
        table = column_table(algebra)
        return table._replace(**{name: tuple(change(table, entry)
                                             for entry in getattr(table, name))})

    m.setattr(ranktwo.tableaux, "column_table", tampered)


def tampered_tableau_weight(m):
    tampered_column_table(m, "weight", lambda table, w: (w[0] + 1, w[1]))


def tampered_block_weight(m):
    # each block's weight off by one: its numerator off by one block length
    tampered_column_table(m, "numerator",
                          lambda table, w: (w[0] + table.block_length, w[1]))


def tampered_element_codes(change):
    def fault(m):
        tableau_of_ideal = ranktwo.tableaux.tableau_of_ideal

        def tampered(lattice, *args):  # forwards the case's held projection
            codes = tableau_of_ideal(lattice, *args)
            change(codes, lattice)
            return codes

        m.setattr(ranktwo.tableaux, "tableau_of_ideal", tampered)
    fault.__name__ = change.__name__
    return fault


@tampered_element_codes
def two_elements_tableaux_swapped(codes, lattice):
    if len(codes) > 1:
        codes[0], codes[1] = codes[1], codes[0]


@tampered_element_codes
def one_element_code_inadmissible(codes, lattice):
    # past every code of the shape: radix ** (number of columns)
    a, b = lattice.built.weight
    codes[-1] = ranktwo.tableaux.column_table(lattice.built.algebra).radix ** (a + b)


def tableau_case_covers(change, name):
    """The fault: the tableau case reads its lattice's covers changed."""
    def fault(m):
        tamper_tableau_case_covers(m, change)
    fault.__name__ = name
    return fault


one_cover_beta_flipped = tableau_case_covers(beta_flipped, "one_cover_beta_flipped")
one_cover_dropped = tableau_case_covers(cover_dropped, "one_cover_dropped")
# caught only by the covers' strictly ascending (i, j)
one_cover_a_copy_of_the_one_before = tableau_case_covers(
    cover_copied, "one_cover_a_copy_of_the_one_before")


def tableau_cover_count_off_by_one(m):
    count = ranktwo.tableaux.tableau_cover_count
    m.setattr(ranktwo.tableaux, "tableau_cover_count",
              lambda algebra, lam: count(algebra, lam) + 1)


def triangle_dual_that_does_not_dualize(m):
    m.setattr(verify, "triangle_dual", lambda p, algebra: p.recolor(sigma0(algebra)))


def dichotomy_claimed_for_a1a1(m):
    # P^ba(1,1) and P^ab(1,1) of A1+A1 are the same two-point antichain; the
    # claim is made only while the duality case runs, as other criteria read
    # SIMPLE too
    duality_case = verify.Verifier._duality_case

    def claimed(self, algebra, lam):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "SIMPLE", tuple(Algebra))
            return duality_case(self, algebra, lam)

    m.setattr(verify.Verifier, "_duality_case", claimed)


def sigma0_with_its_colors_swapped(m):
    # grid imports its own sigma0, so only the duality check reads this one
    m.setattr(verify, "sigma0", lambda algebra: {
        color: ALPHA if image is BETA else BETA for color, image in sigma0(algebra).items()})


def tampered_quasi_gaussian_product(m):
    product = verify.quasi_gaussian_product
    m.setattr(verify, "quasi_gaussian_product", lambda k: product(k + 1))


def wrong_warmup_fixture(m):
    # only the warm-up's chain product: the structure condition loads a fixture too
    m.setattr(verify, "load_fixture", lambda name: load_fixture(
        "catalan_p3" if name == "chain_product_2x3" else name))


def splitting_fixture_for_the_nonsplitting_one(m):
    # only the nonsplitting fixture's case: the warm-up loads fixtures too
    m.setattr(verify, "load_fixture", lambda name: load_fixture(
        "two_color_example" if name == "nonsplitting_grid" else name))


FAULTS = [
    ("counts", wrong_fundamental_poset),
    ("counts", count_slowed_past_one_second),
    ("rgf_product_identity", tampered_rgf_product),
    ("weyl_character", tampered_character),
    ("weyl_character", tampered_orbit_sum),
    ("structure_condition", wrong_cartan_matrix),
    ("structure_condition", splitting_fixture_for_the_nonsplitting_one),
    ("additivity", piece_rank_stats_off_by_one),
    ("additivity", one_piece_weight_off_by_one),
    ("additivity", decompose_in_reverse_order),
    ("tableau_suite", tampered_tableau_weight),
    ("tableau_suite", tampered_block_weight),
    ("tableau_suite", two_elements_tableaux_swapped),
    ("tableau_suite", one_element_code_inadmissible),
    ("tableau_suite", one_cover_beta_flipped),
    ("tableau_suite", one_cover_dropped),
    ("tableau_suite", one_cover_a_copy_of_the_one_before),
    ("tableau_suite", tableau_cover_count_off_by_one),
    ("duality", triangle_dual_that_does_not_dualize),
    ("duality", dichotomy_claimed_for_a1a1),
    ("duality", sigma0_with_its_colors_swapped),
    ("quasi_gaussian", tampered_quasi_gaussian_product),
    ("warmup_goldens", wrong_warmup_fixture),
]


@pytest.mark.parametrize("name, fault", FAULTS,
                         ids=[f"{name}-{fault.__name__}" for name, fault in FAULTS])
def test_fault_fails_its_criterion(monkeypatch, name, fault):
    fault(monkeypatch)
    report = run()
    check = report.pop(name)
    assert check["status"] == "FAIL"
    assert "error:" not in check["params"]
    assert len(report) == 8
    assert all(c["status"] == "PASS" for c in report.values()), report


def test_every_criterion_has_a_fault():
    assert {name for name, _ in FAULTS} == set(run())


def test_crashing_check_fails_with_its_error(monkeypatch):
    def crash(grid):
        raise RuntimeError("decomposition crashed")

    monkeypatch.setattr(verify, "decompose", crash)
    report = run()
    check = report.pop("additivity")
    assert check["status"] == "FAIL"
    assert check["params"].endswith("; error: decomposition crashed")
    assert check["params"].count("decomposition crashed") == 1
    assert len(report) == 8
    assert all(c["status"] == "PASS" for c in report.values()), report


def test_additivity_projects_each_lattice_once(monkeypatch):
    projected = []  # (algebra, order, weight) of every projection built

    def recording_projection_columns(lattice, dec):
        sp = lattice.built
        projected.append((sp.algebra, sp.order, sp.weight))
        return projection_columns(lattice, dec)

    # raising=False: a tree where verify does not import it still runs the test
    monkeypatch.setattr(verify, "projection_columns", recording_projection_columns,
                        raising=False)
    monkeypatch.setattr(ranktwo.lattice, "projection_columns", recording_projection_columns)
    monkeypatch.setattr(ranktwo.tableaux, "projection_columns", recording_projection_columns)
    additive = [(algebra, order, (a, b)) for algebra in Algebra for order in verify.ORDERS
                for a in range(3) for b in range(3) if a + b >= 2]
    (entry,) = verify.Verifier((2, 2)).run_all(("additivity",))["checks"]
    assert entry["status"] == "PASS"
    assert sorted(projected, key=repr) == sorted(additive, key=repr)
    # the whole sweep: the tableau suite reads additivity's projection, and
    # projects only the beta-alpha lattices that additivity does not reach
    projected.clear()
    report = verify.Verifier((2, 2)).run_all()["checks"]
    assert all(c["status"] == "PASS" for c in report), report
    assert sorted(projected, key=repr) == sorted(additive + [
        (algebra, "beta_alpha", (a, b)) for algebra in verify.SIMPLE
        for a in range(3) for b in range(3) if a + b < 2], key=repr)


def test_the_projection_is_held_only_for_the_tableau_case(monkeypatch):
    held = {}  # (case method, its arguments) -> whether it found the projection held
    for name in ("_duality_case", "_quasi_gaussian_case"):
        def recording(self, *args, name=name, case=getattr(verify.Verifier, name)):
            held[(name, args)] = "projection" in self._cache
            return case(self, *args)

        monkeypatch.setattr(verify.Verifier, name, recording)
    verifier = verify.Verifier((2, 2))
    report = verifier.run_all(("additivity", "duality", "quasi_gaussian"))["checks"]
    assert all(c["status"] == "PASS" for c in report), report
    # held through duality only where a tableau case follows; never for A1A1,
    # and not past a case whose tableau suite did not run
    assert {args for (name, args), h in held.items() if h} == {
        (g, (a, b)) for g in verify.SIMPLE for a in range(3) for b in range(3) if a + b >= 2}
    assert not any(h for (name, _), h in held.items() if name == "_quasi_gaussian_case")
    assert "projection" not in verifier._cache


def test_a_battery_builds_one_plane_set_per_fundamental_lattice(monkeypatch):
    """Every builder piece shares its fundamental lattice's planes, so one
    (3,3) battery builds 8 plane sets, not one per piece and projection."""
    built = []
    make = ranktwo.projection._plane_set
    monkeypatch.setattr(ranktwo.projection, "_plane_set",
                        lambda piece: built.append(piece) or make(piece))
    fundamental_lattice.cache_clear()  # no planes made before this run
    report = verify.Verifier((3, 3)).run_all()["checks"]
    assert all(c["status"] == "PASS" for c in report), report
    assert sorted(map(id, built)) == sorted(
        id(fundamental_lattice(algebra, which)) for algebra in Algebra
        for which in ("alpha_fund", "beta_fund"))


def test_a_battery_builds_each_key_table_once(monkeypatch):
    """Every builder piece shares its fundamental lattice's key tables, so
    one (3,3) battery builds 14 for 374 piece projections, each on a
    fundamental lattice and once for its place values, not one per piece."""
    looked, built = [], []
    find = ranktwo.projection._key_table

    def recording(piece, image):
        before = len(vars(piece).get("_keys", {}))
        table = find(piece, image)
        looked.append(piece)
        if len(vars(piece)["_keys"]) > before:
            built.append((id(piece.first_lower[0]), image))
        return table

    monkeypatch.setattr(ranktwo.projection, "_key_table", recording)
    fundamental_lattice.cache_clear()  # no tables made before this run
    report = verify.Verifier((3, 3)).run_all()["checks"]
    assert all(c["status"] == "PASS" for c in report), report
    fundamentals = [fundamental_lattice(algebra, which) for algebra in Algebra
                    for which in ("alpha_fund", "beta_fund")]
    assert (len(looked), len(built), len(set(built))) == (374, 14, 14)
    assert {column for column, _ in built} == {id(f.first_lower[0]) for f in fundamentals}
    assert sum(len(vars(f)["_keys"]) for f in fundamentals) == 14


def test_the_held_projection_keeps_no_packed_sums(monkeypatch):
    """The tableau suite reads the held projection's columns only: the sums
    packed for additivity are not kept through duality."""
    held = []
    duality_case = verify.Verifier._duality_case

    def recording(self, algebra, lam):
        if "projection" in self._cache:
            held.append(self._cache["projection"])
        return duality_case(self, algebra, lam)

    monkeypatch.setattr(verify.Verifier, "_duality_case", recording)
    report = verify.Verifier((2, 2)).run_all(("additivity", "duality", "tableau_suite"))
    assert all(c["status"] == "PASS" for c in report["checks"]), report
    assert held and all(type(projection) is list for projection in held)


# --- the report, and the sweep run case by case -------------------------------


GOLDEN_22 = [
    ("counts", "golden lattice and fundamental sizes"),
    ("rgf_product_identity", "a<=2, b<=2 plus (4,4) for a2/c2"),
    ("weyl_character", "a<=2, b<=2, both orders, literal orbit sums"),
    ("structure_condition", "a<=2, b<=2 plus nonsplitting fixture"),
    ("additivity", "a<=2, b<=2, both colors, every element"),
    ("tableau_suite", "simple algebras, a<=2, b<=2"),
    ("duality", "a<=2, b<=2; recolored dual; iso dichotomy on a2/c2/g2 posets, "
                "so on their lattices (Birkhoff)"),
    ("quasi_gaussian", "second-weight family, m=0..4"),
    ("warmup_goldens", "chain product 2x3 and catalan posets"),
]


def test_report_matches_golden():
    checks = verify.Verifier((2, 2)).run_all()["checks"]
    assert [sorted(c) for c in checks] == [["millis", "name", "params", "status"]] * 9
    assert [(c["name"], c["params"], c["status"]) for c in checks] == \
        [(name, params, "PASS") for name, params in GOLDEN_22]


@pytest.mark.parametrize("bound", [(0, 0), (1, 0), (0, 1)])
def test_every_criterion_is_reported_even_with_no_case(bound):
    # below (1,1) additivity, which needs a + b >= 2, has no case at all
    bound_text = f"a<={bound[0]}, b<={bound[1]}"
    checks = verify.Verifier(bound).run_all()["checks"]
    assert [(c["name"], c["params"], c["status"]) for c in checks] == \
        [(name, params.replace("a<=2, b<=2", bound_text), "PASS")
         for name, params in GOLDEN_22]


def test_a_selected_criterion_with_no_case_is_one_pass_entry():
    assert verify.Verifier((1, 0)).run_all(("additivity",))["checks"] == [
        {"name": "additivity", "params": "a<=1, b<=0, both colors, every element",
         "status": "PASS", "millis": 0}]


def test_run_check_sums_cases_and_keeps_the_first_failure(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    def case(seconds, ok=True, error=None):
        def fn():
            clock[0] += seconds
            if error is not None:
                raise RuntimeError(error)
            return ok
        return fn

    v = verify.Verifier()
    assert v.run_check("a", "p", case(0.25)) and v.run_check("b", "q", case(1.0))
    assert not v.run_check("a", "p", case(0.5, error="first"))
    assert not v.run_check("a", "p", case(2.0, error="second"))  # skipped
    assert v.checks == [
        {"name": "a", "params": "p; error: first", "status": "FAIL", "millis": 750},
        {"name": "b", "params": "q", "status": "PASS", "millis": 1000},
    ]


def test_sweep_lattices_are_dropped_case_by_case(monkeypatch):
    refs = []  # a weakref to every lattice of a built poset, in build order
    cases = []

    def recording_order_ideals(p, *args, **kwargs):
        lat = order_ideals(p, *args, **kwargs)
        if isinstance(p, SemistandardPoset):
            case = (p.algebra, p.weight)
            if not cases or cases[-1] != case:  # a new case starts
                assert [ref() for ref in refs if ref() is not None] == [], case
                cases.append(case)
            refs.append(weakref.ref(lat))
        return lat

    monkeypatch.setattr(verify, "order_ideals", recording_order_ideals)
    report = verify.Verifier((2, 2)).run_all()
    assert all(c["status"] == "PASS" for c in report["checks"])
    assert len(cases) == 2 + 4 * 9 + 2 + 2  # counts, sweep, (4,4)s, G2 (0,3), (0,4)
    assert [ref() for ref in refs if ref() is not None] == []


def test_alpha_beta_lattice_is_dropped_before_the_tableau_suite(monkeypatch):
    alpha_beta = {}  # (algebra, weight) -> weakref to its alpha_beta lattice
    tableau_cases = []

    def recording_order_ideals(p, *args, **kwargs):
        lat = order_ideals(p, *args, **kwargs)
        if isinstance(p, SemistandardPoset) and p.order == "alpha_beta":
            alpha_beta[p.algebra, p.weight] = weakref.ref(lat)
        return lat

    tableau_case = verify.Verifier._tableau_case

    def checked_tableau_case(self, algebra, lam):
        assert alpha_beta[algebra, lam]() is None, (algebra, lam)
        tableau_cases.append((algebra, lam))
        return tableau_case(self, algebra, lam)

    monkeypatch.setattr(verify, "order_ideals", recording_order_ideals)
    monkeypatch.setattr(verify.Verifier, "_tableau_case", checked_tableau_case)
    report = verify.Verifier((2, 2)).run_all()
    assert all(c["status"] == "PASS" for c in report["checks"])
    assert len(tableau_cases) == 3 * 9


def test_tableau_suite_alone_runs_only_its_cases(monkeypatch):
    built = []  # (algebra, order, weight) of every sweep lattice
    ran = []  # the criterion of every case run

    def recording_order_ideals(p, *args, **kwargs):
        if isinstance(p, SemistandardPoset):
            built.append((p.algebra, p.order, p.weight))
        return order_ideals(p, *args, **kwargs)

    run_check = verify.Verifier.run_check

    def recording_run_check(self, name, params, fn):
        ran.append(name)
        return run_check(self, name, params, fn)

    full = {c["name"]: c for c in verify.Verifier((2, 2)).run_all()["checks"]}
    monkeypatch.setattr(verify, "order_ideals", recording_order_ideals)
    monkeypatch.setattr(verify.Verifier, "run_check", recording_run_check)
    (entry,) = verify.Verifier((2, 2)).run_all(("tableau_suite",))["checks"]
    expected = full["tableau_suite"]
    assert (entry["name"], entry["params"], entry["status"]) == \
        (expected["name"], expected["params"], expected["status"])
    assert ran == ["tableau_suite"] * 3 * 9
    assert built == [(algebra, "beta_alpha", (a, b))
                     for algebra in verify.SIMPLE for a in range(3) for b in range(3)]
    with pytest.raises(ValueError, match="tableau_suit"):
        verify.Verifier((2, 2)).run_all(("tableau_suit",))


CASE_METHODS = {
    "_rgf_case": "rgf_product_identity", "_weyl_case": "weyl_character",
    "_structure_case": "structure_condition", "_additivity_case": "additivity",
    "_duality_case": "duality", "_tableau_case": "tableau_suite",
    "_quasi_gaussian_case": "quasi_gaussian",
}
WHOLE_METHODS = {"check_counts": "counts", "_orbit_sums": "weyl_character",
                 "_nonsplitting": "structure_condition", "check_warmups": "warmup_goldens"}


def reference_plan(bound):
    """(criterion, algebra, weight) of every case check, in run order: each
    (algebra, weight) once, the bound's sweep first, then A2/C2 (4,4) and the
    G2 (0, m) beyond it; on each, the criteria that take it, duality before
    the tableau suite."""
    in_bound = [(a, b) for a in range(bound[0] + 1) for b in range(bound[1] + 1)]
    sweep = [(g, lam) for g in Algebra for lam in in_bound]
    extra = [(Algebra.A2, (4, 4)), (Algebra.C2, (4, 4))] + [(Algebra.G2, (0, m))
                                                            for m in range(5)]
    plan = []
    for g, lam in sweep + [case for case in extra if case not in sweep]:
        swept = lam in in_bound
        takes = [
            ("rgf_product_identity", swept or (g in (Algebra.A2, Algebra.C2) and lam == (4, 4))),
            ("weyl_character", swept or (g in (Algebra.A2, Algebra.C2) and lam == (4, 4))),
            ("structure_condition", swept),
            ("additivity", swept and lam[0] + lam[1] >= 2),
            ("duality", swept),
            ("tableau_suite", swept and g in verify.SIMPLE),
            ("quasi_gaussian", g is Algebra.G2 and lam[0] == 0 and lam[1] <= 4),
        ]
        plan += [(name, g, lam) for name, ok in takes if ok]
    return plan


@pytest.mark.parametrize("bound", [(0, 0), (1, 0), (2, 2), (3, 1)])
def test_run_all_follows_the_case_plan(monkeypatch, bound):
    plan = []  # (criterion, algebra, weight) of every case check run
    whole = []  # the criterion of every whole check's method run
    checks = []  # the criterion of every run_check

    for method, name in CASE_METHODS.items():
        def case(self, *args, name=name, fn=getattr(verify.Verifier, method)):
            plan.append((name, *args))
            return fn(self, *args)
        monkeypatch.setattr(verify.Verifier, method, case)
    for method, name in WHOLE_METHODS.items():
        def check(self, name=name, fn=getattr(verify.Verifier, method)):
            whole.append(name)
            return fn(self)
        monkeypatch.setattr(verify.Verifier, method, check)
    run_check = verify.Verifier.run_check

    def recording_run_check(self, name, params, fn):
        checks.append(name)
        return run_check(self, name, params, fn)

    monkeypatch.setattr(verify.Verifier, "run_check", recording_run_check)
    report = verify.Verifier(bound).run_all()["checks"]
    assert all(c["status"] == "PASS" for c in report), report
    assert plan == reference_plan(bound)
    assert sorted(whole) == sorted(WHOLE_METHODS.values())
    # one whole check each besides its cases: the rgf bound has no method
    cases = [name for name, *_ in plan]
    names = [c["name"] for c in report]
    assert {name: checks.count(name) - cases.count(name) for name in names} == {
        "counts": 1, "rgf_product_identity": 1, "weyl_character": 1,
        "structure_condition": 1, "additivity": 0, "tableau_suite": 0, "duality": 0,
        "quasi_gaussian": 0, "warmup_goldens": 1}


@pytest.mark.parametrize("criteria", [(), []], ids=["tuple", "list"])
def test_an_empty_selection_is_refused(criteria):
    # a report with no entry would pass with nothing checked
    with pytest.raises(ValueError, match="no criteria selected"):
        verify.Verifier((1, 1)).run_all(criteria)


@pytest.mark.parametrize("bound", [(-1, -1), (-1, 2), (2, -1)])
def test_a_negative_bound_is_refused(bound):
    # a negative coordinate leaves whole criteria with no case, which would pass
    with pytest.raises(ValueError, match="nonnegative"):
        verify.Verifier(bound)


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
    """Oracle: each element's vertex set carried through phi and
    complemented, as a mask over lat_ba's vertex order."""
    all_ba = frozenset(lat_ba.base.ids)
    bit = {v: 1 << b for b, v in enumerate(lat_ba.vertex_order)}
    return [sum(map(bit.__getitem__,
                    all_ba - frozenset(phi[v] for v in element_vertices(lat_ab, i))))
            for i in range(len(lat_ab))]


def complement_masks(phi, lat_ba, lat_ab):
    """The duality check's images: each lat_ab mask carried into lat_ba's
    vertex order and complemented."""
    bit = {v: 1 << b for b, v in enumerate(lat_ba.vertex_order)}
    image_bit = [bit[phi[v]] for v in lat_ab.vertex_order]
    return [sum(image_bit) ^ mask for mask in lat_ab.carry(image_bit)]


def dual_pairs(algebra):
    """(lam, phi, lat_ba, lat_ab) at every weight up to (2,2), as check_duality builds them."""
    for lam in [(a, b) for a in range(3) for b in range(3)]:
        lat_ba, lat_ab = (order_ideals(semistandard_poset(algebra, order, lam))
                          for order in verify.ORDERS)
        phi = vertex_color_isomorphism(lat_ab.base, triangle_dual(lat_ba.poset, algebra).base)
        yield lam, phi, lat_ba, lat_ab


@pytest.mark.parametrize("algebra", list(Algebra), ids=lambda g: g.value)
def test_dual_mapping_matches_vertex_sets(algebra):
    for lam, phi, lat_ba, lat_ab in dual_pairs(algebra):
        image = complement_masks(phi, lat_ba, lat_ab)
        assert image == reference_dual_mapping(phi, lat_ba, lat_ab), lam
        assert sorted(image) == sorted(lat_ba.elements), lam
        assert verify._induced_lattice_iso_ok(algebra, phi, lat_ba, lat_ab), lam


# The duality case on warm G2 (4,4) lattices, 15,625 elements and 61,170
# covers each, printing the peak traced while it runs (bytes).
_DUALITY_GROWTH = """
import tracemalloc
from ranktwo.algebras import Algebra
from ranktwo.verify import Verifier

v = Verifier()
for order in ("beta_alpha", "alpha_beta"):
    lat = v.lattice(Algebra.G2, order, (4, 4))
    lat.base, lat.first_lower
tracemalloc.start()
assert v._duality_case(Algebra.G2, (4, 4))
print(tracemalloc.get_traced_memory()[1])
"""


def test_duality_case_memory():
    """The duality check holds the complement masks, two sorted copies and
    one int per element for the vertices added, with no index per element
    or key per cover: it grows the traced peak by at most 3 MB (1.4 MB
    measured on Python 3.11; 6.1 MB with a mask -> index dict and two
    sorted lists of cover keys)."""
    import ranktwo

    src = os.path.dirname(os.path.dirname(ranktwo.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _DUALITY_GROWTH], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) <= 3 * 2**20


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
