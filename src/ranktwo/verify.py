"""Batch verification driver.

Runs every check the library promises, over a weight range per algebra,
and assembles a machine-readable report:
    {"checks": [{"name", "params", "status", "millis"}, ...]}
Any FAIL makes the run unsuccessful.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable

from .algebras import ALPHA, BETA, Algebra, cartan_matrix, sigma0
from .build import fundamental_poset, semistandard_poset
from .fixtures import load_fixture
from .grid import carry_mask, decompose, triangle_dual
from .lattice import (IdealLattice, check_structure, infer_structure_matrix,
                      order_ideals, piece_rank_stats, structure_rows,
                      weight_via_decomposition)
from .poset import find_rank_function, vertex_color_isomorphism
from .weyl import (LaurentPoly2, QPoly, alternating_sum,
                   character_from_lattice, q_product, rgf_from_lattice,
                   rgf_product, verify_weyl_character)

ORDERS = ("beta_alpha", "alpha_beta")
SIMPLE = (Algebra.A2, Algebra.C2, Algebra.G2)

# Twelve-, eight- and six-term closed forms of the signed orbit sum of the
# Weyl vector, kept as independent literals to cross-check the generated one.
RHO_SUM_LITERAL = {
    Algebra.A2: LaurentPoly2({
        (1, 1): 1, (-1, 2): -1, (2, -1): -1, (-2, 1): 1, (1, -2): 1, (-1, -1): -1,
    }),
    Algebra.C2: LaurentPoly2({
        (1, 1): 1, (-1, 2): -1, (3, -1): -1, (-3, 2): 1,
        (3, -2): 1, (-3, 1): -1, (1, -2): -1, (-1, -1): 1,
    }),
    Algebra.G2: LaurentPoly2({
        (1, 1): 1, (-1, 2): -1, (4, -1): -1, (-4, 3): 1, (5, -2): 1, (-5, 3): -1,
        (5, -3): -1, (-5, 2): 1, (4, -3): 1, (-4, 1): -1, (1, -2): -1, (-1, -1): 1,
    }),
}


def quasi_gaussian_product(m: int) -> QPoly:
    """Five-factor closed form for the one-parameter second-weight family."""
    return q_product((m + 1, m + 2, 2 * m + 3, 3 * m + 4, 3 * m + 5), (1, 2, 3, 4, 5))


def _weights_in_range(bound: tuple[int, int]):
    return [(a, b) for a in range(bound[0] + 1) for b in range(bound[1] + 1)]


class Verifier:
    def __init__(self, bound: tuple[int, int] = (3, 3)):
        self.bound = bound
        self.checks: list[dict] = []
        self._cache: dict = {}

    def lattice(self, algebra, order, lam) -> IdealLattice:
        key = (algebra, order, lam)
        if key not in self._cache:
            self._cache[key] = order_ideals(semistandard_poset(algebra, order, lam))
        return self._cache[key]

    def run_check(self, name: str, params: str, fn: Callable[[], bool]) -> bool:
        start = time.perf_counter()
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failure with a diagnosis
            ok = False
            params = f"{params}; error: {exc}"
        millis = int((time.perf_counter() - start) * 1000)
        self.checks.append({
            "name": name,
            "params": params,
            "status": "PASS" if ok else "FAIL",
            "millis": millis,
        })
        return ok

    # -- criteria ---------------------------------------------------------

    def check_counts(self) -> bool:
        counts = [
            (partial(semistandard_poset, Algebra.G2, "beta_alpha", (2, 2)), 729),
            (partial(semistandard_poset, Algebra.C2, "beta_alpha", (1, 1)), 16),
        ]
        fundamental = {
            Algebra.A1A1: (2, 2), Algebra.A2: (3, 3),
            Algebra.C2: (4, 5), Algebra.G2: (7, 14),
        }
        for algebra, (na, nb) in fundamental.items():
            counts.append((partial(fundamental_poset, algebra, "alpha_fund"), na))
            counts.append((partial(fundamental_poset, algebra, "beta_fund"), nb))
        for build, expected in counts:
            start = time.perf_counter()
            if len(order_ideals(build())) != expected:
                return False
            if time.perf_counter() - start >= 1.0:  # each count individually fast
                return False
        return True

    def _sweep(self) -> list[tuple[Algebra, tuple[int, int]]]:
        """Every algebra at every weight in the bound, plus (4,4) for A2 and C2."""
        sweep = [(g, lam) for g in Algebra for lam in _weights_in_range(self.bound)]
        return sweep + [(Algebra.A2, (4, 4)), (Algebra.C2, (4, 4))]

    def check_rgf(self) -> bool:
        start = time.perf_counter()
        for algebra, lam in self._sweep():
            closed = rgf_product(algebra, lam)
            if not (closed.is_palindromic() and closed.is_unimodal()):
                return False
            for order in ORDERS:
                if rgf_from_lattice(self.lattice(algebra, order, lam)) != closed:
                    return False
        return (time.perf_counter() - start) < 60.0

    def check_weyl(self) -> bool:
        for algebra in SIMPLE:
            if alternating_sum(algebra, (1, 1)) != RHO_SUM_LITERAL[algebra]:
                return False
        for algebra, lam in self._sweep():
            for order in ORDERS:
                chi = character_from_lattice(self.lattice(algebra, order, lam))
                if not verify_weyl_character(algebra, lam, chi):
                    return False
        return True

    def check_structure(self) -> bool:
        for algebra in Algebra:
            matrix = cartan_matrix(algebra)
            for lam in _weights_in_range(self.bound):
                for order in ORDERS:
                    lat = self.lattice(algebra, order, lam)
                    if not check_structure(lat, matrix):
                        return False
                    both_colors = len(set(lat.covers.beta)) == 2
                    if both_colors and infer_structure_matrix(lat) != matrix:
                        return False
        bad = order_ideals(load_fixture("nonsplitting_grid"))
        return infer_structure_matrix(bad) is None

    def check_additivity(self) -> bool:
        for algebra in Algebra:
            for lam in _weights_in_range(self.bound):
                if lam[0] + lam[1] < 2:
                    continue
                for order in ORDERS:
                    lat = self.lattice(algebra, order, lam)
                    # the search, on the ideals already enumerated, finds the
                    # builder's pieces, in order and with their labels; the
                    # sums then run on the builder's, whose piece lattices the
                    # tableau suite reads too
                    dec = lat.built.decomposition
                    if len(dec) != lam[0] + lam[1] or decompose(lat) != dec:
                        return False
                    for i in range(len(lat)):
                        if weight_via_decomposition(lat, i, dec) != lat.weight(i):
                            return False
                        for color in (ALPHA, BETA):
                            if lat.rank_stats(i, color) != piece_rank_stats(lat, i, dec, color):
                                return False
        return True

    def check_tableaux(self) -> bool:
        from .tableaux import (enumerate_littelmann, ideal_of_tableau,
                               tableau_lattice, tableau_of_ideal, tableauwt,
                               to_littelmann, wt_lit)

        for algebra in SIMPLE:
            for lam in _weights_in_range(self.bound):
                lat = self.lattice(algebra, "beta_alpha", lam)
                tl = tableau_lattice(algebra, lam)
                tabs = tl.tableaux
                index = {t: k for k, t in enumerate(tabs)}
                phi = []  # element of lat -> index of its tableau in tl
                weights = [None] * len(tabs)  # tableauwt per tableau of tl
                for i, weight in enumerate(lat.weights):
                    t = tableau_of_ideal(lat, i)
                    if ideal_of_tableau(lat, t) != i:
                        return False
                    if tableauwt(algebra, t) != weight:
                        return False
                    phi.append(index[t])
                    weights[index[t]] = weight
                # phi, a bijection carrying the covers onto tl's with their
                # colors, is an edge-colored isomorphism of the two lattices
                if sorted(phi) != list(range(len(tabs))):
                    return False
                if {(phi[i], phi[j], c) for i, j, c in lat.covers} != tl.covers:
                    return False
                blocks = [to_littelmann(algebra, t) for t in tabs]
                if sorted(blocks) != sorted(enumerate_littelmann(algebra, lam)):
                    return False
                if any(wt_lit(algebra, u) != w for u, w in zip(blocks, weights)):
                    return False
        return True

    def check_duality(self) -> bool:
        for algebra in Algebra:
            for lam in _weights_in_range(self.bound):
                lat_ba = self.lattice(algebra, "beta_alpha", lam)
                lat_ab = self.lattice(algebra, "alpha_beta", lam)
                phi = vertex_color_isomorphism(
                    lat_ab.base, triangle_dual(lat_ba.poset, algebra).base)
                if phi is None or not _induced_lattice_iso_ok(algebra, phi, lat_ba, lat_ab):
                    return False
                # By Birkhoff's theorem J(P) and J(Q) are edge-colored
                # isomorphic iff P and Q are vertex-colored isomorphic.
                if algebra in SIMPLE:
                    iso = vertex_color_isomorphism(lat_ba.base, lat_ab.base) is not None
                    if iso != (lam[0] == 0 or lam[1] == 0):
                        return False
        return True

    def check_quasi_gaussian(self) -> bool:
        for m in range(5):
            lat = self.lattice(Algebra.G2, "beta_alpha", (0, m))
            if rgf_from_lattice(lat) != quasi_gaussian_product(m):
                return False
        return True

    def check_warmups(self) -> bool:
        chain23 = order_ideals(load_fixture("chain_product_2x3"))
        if len(chain23) != 10:
            return False
        if rgf_from_lattice(chain23) != q_product((4, 5), (1, 2)):
            return False
        rank = find_rank_function(chain23.edge_poset)
        if rank is None or rank.rank_sizes() != (1, 1, 2, 2, 2, 1, 1):
            return False
        return len(order_ideals(load_fixture("catalan_p3"))) == 14

    def run_all(self) -> dict:
        bound_text = f"a<={self.bound[0]}, b<={self.bound[1]}"
        self.run_check("counts", "golden lattice and fundamental sizes", self.check_counts)
        self.run_check("rgf_product_identity", f"{bound_text} plus (4,4) for a2/c2", self.check_rgf)
        self.run_check("weyl_character", f"{bound_text}, both orders, literal orbit sums", self.check_weyl)
        self.run_check("structure_condition", f"{bound_text} plus nonsplitting fixture", self.check_structure)
        self.run_check("additivity", f"{bound_text}, both colors, every element", self.check_additivity)
        self.run_check("tableau_suite", f"simple algebras, {bound_text}", self.check_tableaux)
        self.run_check("duality", f"{bound_text}; recolored dual; iso dichotomy on a2/c2/g2 "
                       "posets, so on their lattices (Birkhoff)", self.check_duality)
        self.run_check("quasi_gaussian", "second-weight family, m=0..4", self.check_quasi_gaussian)
        self.run_check("warmup_goldens", "chain product 2x3 and catalan posets", self.check_warmups)
        return {"checks": self.checks}


def _dual_mapping(phi, lat_ba: IdealLattice, lat_ab: IdealLattice) -> list[int]:
    """Per element of lat_ab, the lat_ba element complementing its image under
    phi, each mask carried into lat_ba's vertex order."""
    bit = {v: 1 << b for b, v in enumerate(lat_ba.vertex_order)}
    image_bit = [bit[phi[v]] for v in lat_ab.vertex_order]
    full, index = sum(image_bit), lat_ba.index_of
    return [index[full ^ carry_mask(mask, image_bit)] for mask in lat_ab.elements]


def _induced_lattice_iso_ok(algebra, phi, lat_ba: IdealLattice,
                            lat_ab: IdealLattice) -> bool:
    """Check that ideal complements along phi give an edge-colored iso
    from the alpha-beta lattice onto the recolored dual of the beta-alpha one.
    """
    mapping = _dual_mapping(phi, lat_ba, lat_ab)
    if len(set(mapping)) != len(lat_ba):
        return False
    sig = sigma0(algebra)
    dual_covers = {(j, i, sig[c]) for i, j, c in lat_ba.covers}
    image_covers = {(mapping[i], mapping[j], c) for i, j, c in lat_ab.covers}
    return image_covers == dual_covers


def structure_report(poset) -> dict:
    """Single structure-condition check used by `verify --structure`."""
    start = time.perf_counter()
    lat = order_ideals(poset)
    rows = structure_rows(lat)
    millis = int((time.perf_counter() - start) * 1000)
    if rows is None:
        params, status = "no matrix M satisfies the structure condition", "FAIL"
    elif None in rows:
        free = " or ".join(c for c, r in zip(("alpha", "beta"), rows) if r is None)
        params, status = f"matrix M not unique: the lattice has no {free} covers", "FAIL"
    else:
        params, status = f"unique matrix rows {rows[0]} / {rows[1]}", "PASS"
    return {"checks": [{"name": "structure_condition", "params": params,
                        "status": status, "millis": millis}]}


def bijection_report(bound: tuple[int, int] = (3, 3)) -> dict:
    v = Verifier(bound)
    v.run_check("tableau_suite", f"simple algebras, a<={bound[0]}, b<={bound[1]}",
                v.check_tableaux)
    return {"checks": v.checks}
