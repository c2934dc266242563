"""Batch verification driver.

Runs every check the library promises, over a weight range per algebra,
and assembles a machine-readable report:
    {"checks": [{"name", "params", "status", "millis"}, ...]}
Any FAIL makes the run unsuccessful.  The sweep runs case by case: each
(algebra, weight) has its lattices built once, every selected criterion's
case run on them and then dropped, so one case's lattices are alive at a
time; a criterion's millis is the summed time of its cases.  `ranktwo verify
--bijection` is the same sweep with the tableau suite alone selected.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Callable
from functools import partial
from itertools import product

from .algebras import ALPHA, BETA, Algebra, cartan_matrix, nonnegative_weight, sigma0
from .build import fundamental_poset, semistandard_poset
from .fixtures import load_fixture
from .grid import decompose, triangle_dual
from .lattice import (IdealLattice, Weights, check_structure, order_ideals,
                      piece_rank_stats, projection_columns, structure_rows,
                      weight_via_decomposition)
from .poset import find_rank_function, vertex_color_isomorphism
from .weyl import (LaurentPoly2, QPoly, alternating_sum,
                   character_from_lattice, q_product, rgf_from_lattice,
                   rgf_product, verify_weyl_character)

ORDERS = ("beta_alpha", "alpha_beta")
SIMPLE = (Algebra.A2, Algebra.C2, Algebra.G2)

# A criterion of the report: its params text, the method that checks one
# (algebra, weight) case and the cases it takes, and its check of the whole sweep.
Criterion = namedtuple("Criterion", "params case cases whole", defaults=(None, (), None))
# On each case the criteria that take it run in this order, duality before the
# tableau suite; after its slot, each drops the cache entries it reads last.
ON_A_CASE = (("rgf_product_identity", ()), ("weyl_character", ()),
             ("structure_condition", ()), ("additivity", ()), ("duality", ("alpha_beta",)),
             ("tableau_suite", ("projection",)), ("quasi_gaussian", ()))

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


class Verifier:
    def __init__(self, bound: tuple[int, int] = (3, 3)):
        self.bound = nonnegative_weight(bound)
        self.checks: list[dict] = []
        self._seconds: dict[str, float] = {}  # per criterion, its cases' summed time
        self._case = None  # the (algebra, weight) whose lattices _cache holds
        self._cache: dict = {}

    def lattice(self, algebra, order, lam) -> IdealLattice:
        """The lattice of P^order(lam), kept until one of another (algebra,
        weight) is asked for, so a sweep that asks case by case holds one
        case's lattices at a time (and additivity's beta-alpha projection, for
        the tableau case); run_all drops what ON_A_CASE names after each slot."""
        if self._case != (algebra, lam):
            self._case, self._cache = (algebra, lam), {}
        if order not in self._cache:
            self._cache[order] = order_ideals(semistandard_poset(algebra, order, lam))
        return self._cache[order]

    def run_check(self, name: str, params: str, fn: Callable[[], bool]) -> bool:
        """Run one case of criterion `name` into its entry: the case's time
        adds to the entry's millis, and the first case that fails or raises
        makes the entry FAIL; the criterion's later cases are then skipped."""
        entry = self._entry(name, params)
        if entry["status"] == "FAIL":
            return False
        start = time.perf_counter()
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failure with a diagnosis
            ok = False
            entry["params"] = f"{params}; error: {exc}"
        self._seconds[name] += time.perf_counter() - start
        entry["millis"] = int(self._seconds[name] * 1000)
        if not ok:
            entry["status"] = "FAIL"
        return ok

    def _entry(self, name: str, params: str) -> dict:
        """Criterion `name`'s entry, made PASS at 0 millis if it is new."""
        if name not in self._seconds:
            self._seconds[name] = 0.0
            self.checks.append({"name": name, "params": params, "status": "PASS", "millis": 0})
        return next(c for c in self.checks if c["name"] == name)

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

    def _rgf_case(self, algebra, lam) -> bool:
        closed = rgf_product(algebra, lam)
        if not (closed.is_palindromic() and closed.is_unimodal()):
            return False
        return all(rgf_from_lattice(self.lattice(algebra, order, lam)) == closed
                   for order in ORDERS)

    def _orbit_sums(self) -> bool:
        return all(alternating_sum(algebra, (1, 1)) == RHO_SUM_LITERAL[algebra]
                   for algebra in SIMPLE)

    def _weyl_case(self, algebra, lam) -> bool:
        return all(verify_weyl_character(
            algebra, lam, character_from_lattice(self.lattice(algebra, order, lam)))
            for order in ORDERS)

    def _structure_case(self, algebra, lam) -> bool:
        matrix = cartan_matrix(algebra)
        return all(check_structure(self.lattice(algebra, order, lam), matrix)
                   for order in ORDERS)

    def _nonsplitting(self) -> bool:
        return structure_rows(order_ideals(load_fixture("nonsplitting_grid"))) is None

    def _additivity_case(self, algebra, lam) -> bool:
        for order in ORDERS:
            lat = self.lattice(algebra, order, lam)
            # the search, on the ideals already enumerated, finds the
            # builder's pieces, in order and with their labels; the sums
            # then run on the builder's, whose piece lattices the tableau
            # suite reads too
            dec = lat.built.decomposition
            if len(dec) != lam[0] + lam[1] or decompose(lat) != dec:
                return False
            projection = projection_columns(lat, dec)
            if order == "beta_alpha" and algebra in SIMPLE:  # its columns, for the tableau
                self._cache["projection"] = list(projection)  # suite; not its packed sums
            if weight_via_decomposition(lat, projection) != lat.weights:
                return False
            for color in (ALPHA, BETA):
                if lat.rank_stats(color) != piece_rank_stats(lat, projection, color):
                    return False
        return True

    def _tableau_case(self, algebra, lam) -> bool:
        from .tableaux import (carries_tableau_covers, column_sums, column_table,
                               enumerate_littelmann, enumerate_tableaux, ideal_of_tableau,
                               tableau_of_ideal)

        lat = self.lattice(algebra, "beta_alpha", lam)
        codes = tableau_of_ideal(lat, self._cache.pop("projection", None))  # or projects
        # the codes, sorted, are the admissible ones (checked first, so an
        # inadmissible code fails, not raises), each code's ideal is its element's,
        # and the covers go onto the tableau lattice's with their colors, each
        # once: an edge-colored isomorphism, with no tableau lattice built
        if sorted(codes) != enumerate_tableaux(algebra, lam):
            return False
        if ideal_of_tableau(lat, codes) != list(lat.elements):
            return False
        if not carries_tableau_covers(algebra, lam, codes, lat.covers):
            return False
        weights, numerators, blocks = column_sums(algebra, lam, codes)
        del codes  # not held through the comparisons below
        scale = column_table(algebra).block_length.__mul__
        w = lat.weights
        return (weights == w
                and numerators == Weights(list(map(scale, w.alpha)), list(map(scale, w.beta)),
                                          scale(w.offset))
                and sorted(blocks) == enumerate_littelmann(algebra, lam))

    def _duality_case(self, algebra, lam) -> bool:
        lat_ba = self.lattice(algebra, "beta_alpha", lam)
        lat_ab = self.lattice(algebra, "alpha_beta", lam)
        phi = vertex_color_isomorphism(
            lat_ab.base, triangle_dual(lat_ba.poset, algebra).base)
        if phi is None or not _induced_lattice_iso_ok(algebra, phi, lat_ba, lat_ab):
            return False
        # By Birkhoff's theorem J(P) and J(Q) are edge-colored isomorphic
        # iff P and Q are vertex-colored isomorphic.
        if algebra in SIMPLE:
            iso = vertex_color_isomorphism(lat_ba.base, lat_ab.base) is not None
            return iso == (lam[0] == 0 or lam[1] == 0)
        return True

    def _quasi_gaussian_case(self, algebra, lam) -> bool:
        lat = self.lattice(algebra, "beta_alpha", lam)
        return rgf_from_lattice(lat) == quasi_gaussian_product(lam[1])

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

    def run_all(self, criteria: tuple[str, ...] | None = None) -> dict:
        """Run every criterion, or only those in `criteria`, from one table in
        report order: each case once, in the order the table first lists it, on
        it every selected criterion that takes it; then the whole-sweep checks."""
        a, b = self.bound
        text = f"a<={a}, b<={b}"
        sweep = [(g, lam) for g in Algebra for lam in product(range(a + 1), range(b + 1))]
        beyond = [(Algebra.A2, (4, 4)), (Algebra.C2, (4, 4))]
        table = {
            "counts": Criterion("golden lattice and fundamental sizes", whole=self.check_counts),
            "rgf_product_identity": Criterion(  # the bound: its cases' time, builds included
                f"{text} plus (4,4) for a2/c2", self._rgf_case, sweep + beyond,
                lambda: self._seconds["rgf_product_identity"] < 60.0),
            "weyl_character": Criterion(f"{text}, both orders, literal orbit sums",
                                        self._weyl_case, sweep + beyond, self._orbit_sums),
            "structure_condition": Criterion(f"{text} plus nonsplitting fixture",
                                             self._structure_case, sweep, self._nonsplitting),
            "additivity": Criterion(f"{text}, both colors, every element", self._additivity_case,
                                    [(g, lam) for g, lam in sweep if lam[0] + lam[1] >= 2]),
            "tableau_suite": Criterion(f"simple algebras, {text}", self._tableau_case,
                                       [(g, lam) for g, lam in sweep if g in SIMPLE]),
            "duality": Criterion(f"{text}; recolored dual; iso dichotomy on a2/c2/g2 posets, "
                                 "so on their lattices (Birkhoff)", self._duality_case, sweep),
            "quasi_gaussian": Criterion("second-weight family, m=0..4", self._quasi_gaussian_case,
                                        [(Algebra.G2, (0, m)) for m in range(5)]),
            "warmup_goldens": Criterion("chain product 2x3 and catalan posets",
                                        whole=self.check_warmups),
        }
        selected = set(table if criteria is None else criteria)
        if not selected or not selected <= table.keys():  # an empty report would pass
            raise ValueError(f"unknown criteria: {sorted(selected - table.keys())}"
                             if selected else "no criteria selected")
        takes = {name: set(row.cases) for name, row in table.items() if name in selected}
        for name in takes:  # an entry even with no case
            self._entry(name, table[name].params)
        for case in dict.fromkeys(case for row in table.values() for case in row.cases):
            for name, drops in ON_A_CASE:
                if case in takes.get(name, ()):
                    self.run_check(name, table[name].params, partial(table[name].case, *case))
                for key in drops:  # read by no later slot, run or not
                    self._cache.pop(key, None)
        self._case, self._cache = None, {}
        for name in takes:
            if table[name].whole:
                self.run_check(name, table[name].params, table[name].whole)
        return {"checks": self.checks}


def _induced_lattice_iso_ok(algebra, phi, lat_ba: IdealLattice,
                            lat_ab: IdealLattice) -> bool:
    """Check that ideal complements along phi give an edge-colored iso
    from the alpha-beta lattice onto the recolored dual of the beta-alpha one:
    the complements are lat_ba's elements, each once; the dual reverses
    each cover, and sigma0 flips beta iff it swaps the two colors."""
    bit = {v: 1 << b for b, v in enumerate(lat_ba.vertex_order)}
    image_bit = [bit[phi[v]] for v in lat_ab.vertex_order]
    full = sum(image_bit)
    image = [full ^ mask for mask in lat_ab.carry(image_bit)]
    if sorted(image) != sorted(lat_ba.elements):
        return False
    flip = sigma0(algebra)[ALPHA] is BETA
    cov = lat_ab.covers
    return lat_ba.carries_covers(image, cov.upper, cov.lower, cov.beta, flip)


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
