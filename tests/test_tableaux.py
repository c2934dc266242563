import itertools
from fractions import Fraction

import pytest

import goldens
from ranktwo.algebras import ALPHA, BETA, Algebra
from ranktwo.build import fundamental_poset, semistandard_poset
from ranktwo.fixtures import load_fixture
from ranktwo.grid import GridPoset
from ranktwo.lattice import order_ideals
from ranktwo.poset import EdgeColoredPoset, edge_color_isomorphism
from ranktwo.tableaux import (ALPHABET_SIZE, EDGE_COLOR_OF_VALUE, ShapeError,
                              TableauLattice, _block_pairs, _column_admissible,
                              _decrement_table, _decrements, _pair_admissible,
                              _require_simple, _row_compatible, _sequences,
                              _tables, _windows, admissible_blocks,
                              allowed_columns, check_shape, enumerate_littelmann,
                              enumerate_tableaux, ideal_of_tableau,
                              is_semistandard, littelmann_text, tableau_lattice,
                              tableau_of_ideal, tableau_text, tableauwt,
                              to_littelmann, wt_lit, _BLOCKS_DOUBLE,
                              _BLOCKS_SINGLE)
from ranktwo.verify import Verifier
from ranktwo.weyl import LaurentPoly2, character_from_lattice

SIMPLE = (Algebra.A2, Algebra.C2, Algebra.G2)
WEIGHTS = list(itertools.product(range(4), repeat=2))  # every weight <= (3,3)


def entry_counts(t) -> dict[int, int]:
    counts: dict[int, int] = {}
    for column in t:
        for e in column:
            counts[e] = counts.get(e, 0) + 1
    return counts


def _n(counts: dict[int, int], k: int) -> int:
    return counts.get(k, 0)


def brute_force_tableaux(algebra, lam):
    """Oracle: filter the full product of allowed columns through the
    admissibility predicate (the enumeration uses successor pruning)."""
    a, b = lam
    pools = [allowed_columns(algebra, 2)] * b + [allowed_columns(algebra, 1)] * a
    out = []
    for combo in itertools.product(*pools):
        if is_semistandard(algebra, lam, combo):
            out.append(combo)
    return sorted(out)


def reference_is_semistandard(algebra, lam, t):
    """Oracle: check_shape, then the predicates on every column and adjacent
    pair (the table-driven is_semistandard reads tables built from them)."""
    check_shape(algebra, lam, t)
    if any(not _column_admissible(algebra, c) for c in t):
        return False
    return all(_pair_admissible(algebra, t[i], t[i + 1]) for i in range(len(t) - 1))


def outcome(check, algebra, lam, t):
    try:
        return check(algebra, lam, t)
    except ShapeError:
        return ShapeError


def well_formed_columns(algebra):
    top = ALPHABET_SIZE[algebra]
    return [c for n in (1, 2) for c in itertools.combinations(range(1, top + 1), n)]


def shapes_of_length(n):
    return [(a, n - a) for a in range(n + 1)]


class TestAdmissibilityTables:
    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_tables_match_predicates(self, algebra):
        columns, pairs = _tables(algebra)
        cols = well_formed_columns(algebra)
        assert columns == {c for c in cols if _column_admissible(algebra, c)}
        assert pairs == {(left, right) for left, right in itertools.product(cols, repeat=2)
                         if _column_admissible(algebra, left)
                         and _column_admissible(algebra, right)
                         and _pair_admissible(algebra, left, right)}

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_decrement_windows_match_reference(self, algebra, monkeypatch):
        windows = []

        def record(algebra, lam, t):
            windows.append((lam, t))
            return is_semistandard(algebra, lam, t)

        monkeypatch.setattr("ranktwo.tableaux.is_semistandard", record)
        for lam in WEIGHTS:
            tableau_lattice(algebra, lam)
        assert windows
        for lam, t in windows:
            assert outcome(is_semistandard, algebra, lam, t) == \
                outcome(reference_is_semistandard, algebra, lam, t), (lam, t)

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_short_sequences_match_reference(self, algebra):
        # Entries run over 0..top+1, so columns may be out of range, not
        # increasing or of the wrong length.  Sequences of one column use
        # every column of length 1-3, of two columns every column of length
        # 1-2; three-column sequences (the window size of _decrements) use
        # the well-formed columns plus one malformed column of each kind,
        # since all columns of length 1-2 would give 729,000 G2 sequences.
        top = ALPHABET_SIZE[algebra]
        entries = range(top + 2)

        def columns(*lengths):
            return [c for n in lengths for c in itertools.product(entries, repeat=n)]

        malformed = [(0,), (top + 1,), (0, 1), (top, top + 1), (1, 1), (2, 1), (1, 2, 3)]
        sequences = ([()] + [(c,) for c in columns(1, 2, 3)]
                     + list(itertools.product(columns(1, 2), repeat=2))
                     + list(itertools.product(well_formed_columns(algebra) + malformed,
                                              repeat=3)))
        for t in sequences:
            for lam in shapes_of_length(len(t)) + [(len(t) + 1, 0)]:
                assert outcome(is_semistandard, algebra, lam, t) == \
                    outcome(reference_is_semistandard, algebra, lam, t), (lam, t)


    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_block_pairs_match_row_compatibility(self, algebra):
        blocks = admissible_blocks(algebra, 1) + admissible_blocks(algebra, 2)
        assert _block_pairs(algebra) == {
            (left, right) for left, right in itertools.product(blocks, repeat=2)
            if _row_compatible(left[-1], right[0])}

    def test_windows(self):
        # shape (2,3): columns of length 2, 2, 2, 1, 1
        assert _windows((2, 3)) == [(0, (0, 2)), (0, (0, 3)), (1, (1, 2)),
                                    (2, (2, 1)), (3, (2, 0))]
        assert _windows((1, 0)) == [(0, (1, 0))]
        assert _windows((0, 0)) == []


class TestNegativeWeights:
    @pytest.mark.parametrize("lam", [(-1, 1), (2, -1), (-2, 0)])
    @pytest.mark.parametrize("entry", [enumerate_tableaux, enumerate_littelmann,
                                       tableau_lattice])
    def test_enumerations_reject(self, entry, lam):
        with pytest.raises(ValueError, match="nonnegative"):
            entry(Algebra.A2, lam)

    @pytest.mark.parametrize("check", [is_semistandard, check_shape])
    def test_shape_check_rejects(self, check):
        with pytest.raises(ShapeError, match="nonnegative"):
            check(Algebra.A2, (-1, 1), ())
        with pytest.raises(ShapeError, match="nonnegative"):
            check(Algebra.G2, (2, -1), ((1,),))


class TestAdmissibility:
    def test_c2_forbidden_column(self):
        assert not is_semistandard(Algebra.C2, (0, 1), ((1, 4),))

    def test_c2_repeated_middle_column(self):
        assert not is_semistandard(Algebra.C2, (0, 2), ((2, 3), (2, 3)))

    def test_g2_successor_restriction(self):
        assert not is_semistandard(Algebra.G2, (0, 2), ((1, 4), (1, 5)))
        assert is_semistandard(Algebra.G2, (0, 2), ((1, 4), (2, 5)))

    def test_g2_single_four_repeated(self):
        assert not is_semistandard(Algebra.G2, (2, 0), ((4,), (4,)))

    def test_row_violation(self):
        assert not is_semistandard(Algebra.A2, (0, 2), ((2, 3), (1, 2)))

    def test_shape_errors_are_distinct(self):
        with pytest.raises(ShapeError):
            is_semistandard(Algebra.A2, (1, 0), ((1, 2),))
        with pytest.raises(ShapeError):
            is_semistandard(Algebra.A2, (1, 0), ((9,),))
        with pytest.raises(ShapeError):
            is_semistandard(Algebra.C2, (0, 1), ((3, 3),))

    def test_a1a1_rejected(self):
        with pytest.raises(ValueError):
            enumerate_tableaux(Algebra.A1A1, (1, 1))


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_tableaux(Algebra.G2, (0, 1))) == 14
        assert len(enumerate_tableaux(Algebra.C2, (1, 1))) == 16
        assert len(enumerate_tableaux(Algebra.G2, (2, 2))) == 729

    def test_c2_11_label_set(self):
        assert set(enumerate_tableaux(Algebra.C2, (1, 1))) == goldens.C2_11_TABLEAUX

    @pytest.mark.parametrize("algebra,lam", [
        (Algebra.A2, (2, 2)), (Algebra.C2, (2, 1)), (Algebra.C2, (0, 3)),
        (Algebra.G2, (1, 1)), (Algebra.G2, (2, 0)), (Algebra.G2, (0, 2))])
    def test_matches_brute_force(self, algebra, lam):
        assert list(enumerate_tableaux(algebra, lam)) == brute_force_tableaux(algebra, lam)

    def test_counts_match_lattices(self):
        for algebra in SIMPLE:
            for lam in [(1, 0), (0, 1), (2, 1), (2, 2)]:
                lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
                assert len(enumerate_tableaux(algebra, lam)) == len(lat)


class TestBijection:
    def test_extreme_labels(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)))
        assert tableau_of_ideal(lat, 0) == ((3, 4), (4,))
        assert tableau_of_ideal(lat, lat.top) == ((1, 2), (1,))

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_round_trip(self, algebra):
        for lam in [(1, 0), (0, 1), (1, 1), (2, 2)]:
            lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
            seen = set()
            for i in range(len(lat)):
                t = tableau_of_ideal(lat, i)
                seen.add(t)
                assert ideal_of_tableau(lat, t) == i
            assert seen == set(enumerate_tableaux(algebra, lam))

    def test_ideal_of_tableau_builds_no_poset(self, monkeypatch):
        algebra, lam = Algebra.G2, (2, 2)
        lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
        # tableau_of_ideal warms the per-piece column dictionaries
        tableaux = [tableau_of_ideal(lat, i) for i in range(len(lat))]

        def refuse(*args, **kwargs):
            raise AssertionError("ideal_of_tableau built a poset")

        monkeypatch.setattr(GridPoset, "build", staticmethod(refuse))
        for i, t in enumerate(tableaux):
            assert ideal_of_tableau(lat, t) == i

    def test_rejects_inadmissible(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (0, 1)))
        with pytest.raises(ValueError):
            ideal_of_tableau(lat, ((1, 4),))
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (0, 2)))
        with pytest.raises(ValueError):
            ideal_of_tableau(lat, ((2, 3), (2, 3)))

    @pytest.mark.parametrize("lattice", [
        lambda: order_ideals(semistandard_poset(Algebra.C2, "alpha_beta", (1, 1))),
        lambda: order_ideals(load_fixture("two_color_example")),
        lambda: order_ideals(semistandard_poset(Algebra.A1A1, "beta_alpha", (1, 1))),
    ], ids=["alpha_beta", "unbuilt", "a1a1"])
    def test_only_simple_beta_alpha_lattices_are_labelled(self, lattice):
        lat = lattice()
        with pytest.raises(ValueError):
            tableau_of_ideal(lat, 0)
        with pytest.raises(ValueError):
            ideal_of_tableau(lat, ((1, 2), (1,)))

    def test_g2_second_fundamental_dictionary_extremes(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (0, 1)))
        assert ideal_of_tableau(lat, ((1, 2),)) == lat.top
        assert ideal_of_tableau(lat, ((6, 7),)) == 0
        # the chain-4 prefix of size four carries weight 3w_a - 2w_b
        i = ideal_of_tableau(lat, ((3, 6),))
        assert lat.size_of(i) == 4
        assert lat.weight(i) == (3, -2)


class TestWeights:
    def test_single_column_values(self):
        assert tableauwt(Algebra.C2, ((2,),)) == (-1, 1)
        assert tableauwt(Algebra.G2, ((4,),)) == (0, 0)

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_matches_lattice_weights(self, algebra):
        for lam in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
            for i in range(len(lat)):
                assert tableauwt(algebra, tableau_of_ideal(lat, i)) == lat.weight(i)


class TestTableauLattice:
    def test_c2_11(self):
        tl = tableau_lattice(Algebra.C2, (1, 1))
        assert len(tl) == 16
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)))
        assert edge_color_isomorphism(lat.edge_poset, tl.edge_poset) is not None

    def test_a2_first_fundamental_colors(self):
        tl = tableau_lattice(Algebra.A2, (1, 0))
        # three elements [3] -> [2] -> [1], colored beta then alpha
        covers = sorted(tl.covers)
        by_pair = {(tl.tableaux[i], tl.tableaux[j]): c for i, j, c in covers}
        assert by_pair == {
            (((3,),), ((2,),)): BETA,
            (((2,),), ((1,),)): ALPHA,
        }

    def test_empty_weight(self):
        tl = tableau_lattice(Algebra.G2, (0, 0))
        assert len(tl) == 1 and not tl.covers and not tl.edge_poset.covers

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_oracle_equivalence(self, algebra):
        for lam in [(2, 1), (1, 2)]:
            lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
            tl = tableau_lattice(algebra, lam)
            assert edge_color_isomorphism(lat.edge_poset, tl.edge_poset) is not None


def reference_window_decrements(algebra, t):
    """Oracle: each one-entry decrement of t, whatever column it gives,
    checked by is_semistandard on its window under the window's shape."""
    color_of = EDGE_COLOR_OF_VALUE[algebra]
    for i, column in enumerate(t):
        left, right = t[max(i - 1, 0):i], t[i + 1:i + 2]
        window = left + (column,) + right
        ones = sum(len(c) == 1 for c in window)
        shape = (ones, len(window) - ones)
        for j, e in enumerate(column):
            if e == 1:
                continue
            new_col = column[:j] + (e - 1,) + column[j + 1:]
            try:
                ok = is_semistandard(algebra, shape, left + (new_col,) + right)
            except ShapeError:
                ok = False
            if ok:
                yield t[:i] + (new_col,) + t[i + 1:], color_of[e - 1]


def reference_tableau_lattice(algebra, lam):
    """Oracle: (tableaux, covers) with the covers from the window check on
    every decrement and validated as a generic EdgeColoredPoset (acyclic,
    no transitive cover)."""
    tabs = enumerate_tableaux(algebra, lam)
    index = {t: i for i, t in enumerate(tabs)}
    covers = {(index[t], index[upper], color) for t in tabs
              for upper, color in reference_window_decrements(algebra, t)}
    return tabs, EdgeColoredPoset(tuple(range(len(tabs))), frozenset(covers)).covers


@pytest.mark.parametrize("algebra,lam", [(g, lam) for g in SIMPLE for lam in WEIGHTS]
                         + [(Algebra.G2, (4, 4))])
def test_tableau_lattice_matches_reference(algebra, lam):
    tl = tableau_lattice(algebra, lam)
    tabs, covers = reference_tableau_lattice(algebra, lam)
    assert tl.tableaux == tabs
    assert tl.covers == covers


def test_tableau_lattice_builds_no_edge_poset(monkeypatch):
    def refuse(self):
        raise AssertionError("an EdgeColoredPoset was built")

    monkeypatch.setattr(EdgeColoredPoset, "__post_init__", refuse)
    tl = tableau_lattice(Algebra.G2, (3, 3))
    assert len(tl) == 4096 and len(tl.covers) == 14310  # as in the ideal lattice
    with pytest.raises(AssertionError, match="EdgeColoredPoset"):
        tl.edge_poset  # the refusal is live: built on demand, it fires


def reference_decrements(algebra, lam, t):
    """Oracle: each decrement checked on the whole candidate tableau."""
    for i, column in enumerate(t):
        for j, e in enumerate(column):
            if e == 1:
                continue
            new_col = column[:j] + (e - 1,) + column[j + 1:]
            candidate = t[:i] + (new_col,) + t[i + 1:]
            try:
                ok = is_semistandard(algebra, lam, candidate)
            except ShapeError:
                ok = False
            if ok:
                yield candidate, EDGE_COLOR_OF_VALUE[algebra][e - 1]


@pytest.mark.parametrize("algebra", SIMPLE)
def test_window_decrements_match_full_check(algebra):
    # On the current tables, lowering an entry never breaks the pair with the
    # right neighbour, so only the left one changes what this test sees; the
    # window keeps both so that it stays exact by locality alone.
    lowered = _decrement_table(algebra)
    for lam in WEIGHTS:
        windows = _windows(lam)
        for t in enumerate_tableaux(algebra, lam):
            assert list(_decrements(algebra, t, lowered, windows)) == \
                list(reference_decrements(algebra, lam, t)), (lam, t)


class TestBijectionCheckCatchesTampering:
    """check_tableaux proves the lattice equivalence by the bijection itself;
    a tableau lattice with one cover recolored or dropped must fail it, and
    one rebuilt with its own covers must pass.  Only weight (1,1) is
    tampered with: the one-column lattices also define the column
    dictionaries behind tableau_of_ideal."""

    @staticmethod
    def tampered(change):
        def build(algebra, lam):
            tl = tableau_lattice(algebra, lam)
            if lam != (1, 1):
                return tl
            covers = sorted(tl.covers, key=lambda c: (c[0], c[1]))
            return TableauLattice(tl.algebra, tl.weight, tl.tableaux,
                                  frozenset(change(covers)))
        return build

    @staticmethod
    def keep(covers):
        return covers

    @staticmethod
    def recolor(covers):
        i, j, c = covers[0]
        return [(i, j, BETA if c is ALPHA else ALPHA)] + covers[1:]

    @staticmethod
    def drop(covers):
        return covers[1:]

    def test_untampered_passes(self):
        assert Verifier((1, 1)).check_tableaux()

    @pytest.mark.parametrize("change", ["recolor", "drop"])
    def test_tampered_fails(self, monkeypatch, change):
        monkeypatch.setattr("ranktwo.tableaux.tableau_lattice",
                            self.tampered(getattr(self, change)))
        assert not Verifier((1, 1)).check_tableaux()

    def test_rebuilt_untampered_passes(self, monkeypatch):
        monkeypatch.setattr("ranktwo.tableaux.tableau_lattice", self.tampered(self.keep))
        assert Verifier((1, 1)).check_tableaux()


def reference_enumerate_littelmann(algebra, lam):
    """Oracle: the block sequences pruned by row compatibility of the
    facing columns, with no block-pair table."""
    a, b = lam
    options = [admissible_blocks(algebra, 2)] * b + [admissible_blocks(algebra, 1)] * a
    return _sequences(options, lambda left, right: _row_compatible(left[-1], right[0]))


@pytest.mark.parametrize("algebra", SIMPLE)
def test_littelmann_enumeration_matches_row_pruning(algebra):
    for lam in WEIGHTS:
        assert enumerate_littelmann(algebra, lam) == \
            reference_enumerate_littelmann(algebra, lam), lam


def from_littelmann(algebra: Algebra, u) -> tuple:
    """Inverse of to_littelmann: every admissible block back to its column."""
    _require_simple(algebra)
    single = {block: col for col, block in _BLOCKS_SINGLE[algebra].items()}
    double = {block: col for col, block in _BLOCKS_DOUBLE[algebra].items()}
    columns = []
    for block in u:
        rows = len(block[0])
        table = double if rows == 2 else single
        if block not in table:
            raise ValueError(f"unknown block {block}")
        columns.append(table[block])
    return tuple(columns)


class TestLittelmann:
    def test_c2_single_entry_block(self):
        u = to_littelmann(Algebra.C2, ((2,),))
        assert u == (((2,), (2,)),)
        assert wt_lit(Algebra.C2, u) == (-1, 1)

    def test_c2_zero_weight_block(self):
        u = to_littelmann(Algebra.C2, ((2, 3),))
        assert u == ((((1, 3), (2, 4))),)
        assert wt_lit(Algebra.C2, u) == (0, 0)

    def test_block_tables_integrity(self):
        for algebra in SIMPLE:
            for table, rows in ((_BLOCKS_SINGLE[algebra], 1), (_BLOCKS_DOUBLE[algebra], 2)):
                for column, block in table.items():
                    assert all(len(c) == rows for c in block)
                    # block itself is semistandard
                    for left, right in zip(block, block[1:]):
                        assert all(left[r] <= right[r] for r in range(rows))
                    for c in block:
                        assert all(c[r] < c[r + 1] for r in range(rows - 1))
                    assert wt_lit(algebra, (block,)) == tableauwt(algebra, (column,))

    def test_round_trip(self):
        for algebra in SIMPLE:
            for t in enumerate_tableaux(algebra, (1, 1)):
                assert from_littelmann(algebra, to_littelmann(algebra, t)) == t

    def test_unknown_block_named(self):
        with pytest.raises(ValueError, match=r"\(9, 9\)"):
            from_littelmann(Algebra.C2, (((9, 9), (9, 9)),))

    def test_weight_preservation_c2_22(self):
        for t in enumerate_tableaux(Algebra.C2, (2, 2)):
            assert wt_lit(Algebra.C2, to_littelmann(Algebra.C2, t)) == \
                tableauwt(Algebra.C2, t)

    @pytest.mark.parametrize("algebra,lam", [
        (Algebra.A2, (2, 1)), (Algebra.C2, (1, 1)), (Algebra.C2, (2, 2)),
        (Algebra.G2, (1, 1))])
    def test_bijection_with_block_tableaux(self, algebra, lam):
        tabs = enumerate_tableaux(algebra, lam)
        image = [to_littelmann(algebra, t) for t in tabs]
        assert sorted(image) == sorted(enumerate_littelmann(algebra, lam))

    @pytest.mark.parametrize("algebra,lam", [
        (Algebra.A2, (1, 1)), (Algebra.C2, (1, 1)), (Algebra.G2, (1, 1))])
    def test_splitting_sum(self, algebra, lam):
        total = LaurentPoly2.zero()
        for u in enumerate_littelmann(algebra, lam):
            total = total + LaurentPoly2.monomial(*wt_lit(algebra, u))
        chi = character_from_lattice(
            order_ideals(semistandard_poset(algebra, "beta_alpha", lam)))
        assert total == chi


def reference_wt_lit(algebra, u):
    """Oracle: wt_lit's normalisation by exact fractions."""
    n = entry_counts(col for block in u for col in block)
    if algebra is Algebra.A2:
        pair = (Fraction(_n(n, 1) - _n(n, 2)), Fraction(_n(n, 2) - _n(n, 3)))
    elif algebra is Algebra.C2:
        pair = (Fraction(_n(n, 1) - _n(n, 2) + _n(n, 3) - _n(n, 4), 2),
                Fraction(_n(n, 2) - _n(n, 3), 2))
    else:
        pair = (Fraction(_n(n, 1) - _n(n, 2) + 2 * _n(n, 3) - 2 * _n(n, 4)
                         + _n(n, 5) - _n(n, 6), 6),
                Fraction(_n(n, 2) - _n(n, 3) + _n(n, 4) - _n(n, 5), 6))
    if pair[0].denominator != 1 or pair[1].denominator != 1:
        raise ArithmeticError(f"non-integral block-tableau weight {pair}")
    return (int(pair[0]), int(pair[1]))


class TestLittelmannWeight:
    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_matches_fraction_reference(self, algebra):
        for lam in WEIGHTS:
            for u in enumerate_littelmann(algebra, lam):
                assert wt_lit(algebra, u) == reference_wt_lit(algebra, u), u

    @pytest.mark.parametrize("weight", [wt_lit, reference_wt_lit])
    def test_non_integral_raises(self, weight):
        with pytest.raises(ArithmeticError):
            weight(Algebra.C2, (((1,),),))
        with pytest.raises(ArithmeticError):
            weight(Algebra.G2, (((1,), (2,)),))


    def test_inadmissible_block_is_weighed_by_columns(self):
        # not an admissible C2 block, but integral: (1,0) + (-1,0) over 2
        assert wt_lit(Algebra.C2, (((1,), (4,)),)) == (0, 0)
        with pytest.raises(ShapeError):
            wt_lit(Algebra.G2, (((7,),) * 6,))  # blocks of G2 use entries 1..6


def reference_tableauwt(algebra, t):
    """Oracle: the weight as a linear functional of the entry counts."""
    n = entry_counts(t)
    if algebra is Algebra.A2:
        return (_n(n, 1) - _n(n, 2), _n(n, 2) - _n(n, 3))
    if algebra is Algebra.C2:
        return (_n(n, 1) - _n(n, 2) + _n(n, 3) - _n(n, 4), _n(n, 2) - _n(n, 3))
    return (
        _n(n, 1) - _n(n, 2) + 2 * _n(n, 3) - 2 * _n(n, 5) + _n(n, 6) - _n(n, 7),
        _n(n, 2) - _n(n, 3) + _n(n, 5) - _n(n, 6),
    )


class TestTableauWeight:
    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_matches_entry_count_reference(self, algebra):
        for lam in WEIGHTS:
            for t in enumerate_tableaux(algebra, lam):
                assert tableauwt(algebra, t) == reference_tableauwt(algebra, t), t

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_every_well_formed_column(self, algebra):
        # inadmissible columns too: the weight is defined on the alphabet
        for column in well_formed_columns(algebra):
            assert tableauwt(algebra, (column,)) == reference_tableauwt(algebra, (column,))

    @pytest.mark.parametrize("t", [((4,),), ((2, 1),), ((0,),), ((1, 2, 3),)])
    def test_column_off_the_alphabet_raises(self, t):
        with pytest.raises(ShapeError):
            tableauwt(Algebra.A2, t)

    def test_a1a1_rejected(self):
        with pytest.raises(ValueError, match="simple"):
            tableauwt(Algebra.A1A1, ())
        with pytest.raises(ValueError, match="simple"):
            wt_lit(Algebra.A1A1, ())

    def test_empty(self):
        for algebra in SIMPLE:
            assert tableauwt(algebra, ()) == wt_lit(algebra, ()) == (0, 0)


class TestTextFormats:
    def test_canonical_text(self):
        assert tableau_text(((1, 2), (1,))) == "[1,2][1]"

    def test_littelmann_text(self):
        u = to_littelmann(Algebra.C2, ((2, 3), (2,)))
        assert littelmann_text(u) == "[1,3][2,4]|[2][2]"


def _all_edge_color_isos(p, q):
    """Exhaustive variant of the isomorphism search (tiny posets only)."""
    from ranktwo.poset import _topological_order

    up = {v: [w for w, _ in p.upper_covers[v]] for v in p.elements}
    porder = _topological_order(p.elements, up)
    qcovers = {(u, v): c for u, v, c in q.covers}
    out = []

    def rec(i, mapping, used):
        if i == len(porder):
            out.append(dict(mapping))
            return
        v = porder[i]
        for w in q.elements:
            if w in used:
                continue
            if all(qcovers.get((mapping[u], w)) is c
                   for u, c in p.lower_covers[v]):
                mapping[v] = w
                used.add(w)
                rec(i + 1, mapping, used)
                del mapping[v]
                used.remove(w)

    rec(0, {}, set())
    return [m for m in out
            if {(m[u], m[v], c) for u, v, c in p.covers} == set(q.covers)]


def test_g2_column_dictionary_is_forced():
    # the dictionary behind tableau_of_ideal is the unique edge-colored
    # isomorphism from the ten-vertex fundamental lattice to its column lattice
    fund = order_ideals(fundamental_poset(Algebra.G2, "beta_fund"))
    tl = tableau_lattice(Algebra.G2, (0, 1))
    isos = _all_edge_color_isos(fund.edge_poset, tl.edge_poset)
    assert len(isos) == 1
