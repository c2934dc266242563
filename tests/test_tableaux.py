import itertools
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import pytest

import goldens
from conftest import beta_flipped, cover_copied, cover_dropped, tamper_tableau_case_covers
from ranktwo.algebras import ALPHA, BETA, Algebra
from ranktwo.build import fundamental_poset, semistandard_poset
from ranktwo.fixtures import load_fixture
from ranktwo.grid import GridPoset
from ranktwo.lattice import Covers, Weights, order_ideals
from ranktwo.poset import EdgeColoredPoset, edge_color_isomorphism
from ranktwo.tableaux import (ALPHABET_SIZE, EDGE_COLOR_OF_VALUE, ShapeError,
                              _column_admissible, _column_maps,
                              _pair_admissible, _require_simple, _row_compatible,
                              _tables, _windows, admissible_blocks,
                              allowed_columns, check_shape, code_ids, column_sums,
                              column_table, enumerate_littelmann,
                              enumerate_tableaux, ideal_of_tableau,
                              is_semistandard, littelmann_of, littelmann_text,
                              tableau_cover_count, tableau_lattice,
                              tableau_of_ideal, tableau_text,
                              tableaux_of, _BLOCK_ENTRY_WEIGHT, _BLOCK_LENGTH,
                              _BLOCKS_DOUBLE, _BLOCKS_SINGLE, _ENTRY_WEIGHT)
from ranktwo.verify import Verifier
from ranktwo.weyl import LaurentPoly2, character_from_lattice

SIMPLE = (Algebra.A2, Algebra.C2, Algebra.G2)
WEIGHTS = list(itertools.product(range(4), repeat=2))  # every weight <= (3,3)
# where the code paths must equal the tuple references
CASES = [(g, lam) for g in SIMPLE for lam in WEIGHTS] + [(Algebra.G2, (4, 4))]


# --- the tuple paths, kept beside their tests as references for the codes -----


def _total(table, items):
    """Sum of table[item] over the items; ShapeError for an item outside it."""
    x = y = 0
    for item in items:
        try:
            p, q = table[item]
        except KeyError:
            raise ShapeError(f"{item} is not over the alphabet") from None
        x += p
        y += q
    return x, y


def _by_column(entry_weight):
    """Every well-formed column over entry_weight's alphabet, weighed."""
    return MappingProxyType({c: _total(entry_weight, c) for n in (1, 2)
                             for c in itertools.combinations(sorted(entry_weight), n)})


@lru_cache(maxsize=None)
def _column_weights(algebra):
    """The weight of every well-formed column, inadmissible ones too."""
    _require_simple(algebra)
    return _by_column(_ENTRY_WEIGHT[algebra])


def tableauwt(algebra, t):
    """Reference: the weight of a tableau, the sum of its columns' weights."""
    return _total(_column_weights(algebra), t)


@lru_cache(maxsize=None)
def _block_weights(algebra):
    """Littelmann numerators per well-formed block column and per
    admissible block, and the block length that divides them."""
    _require_simple(algebra)
    columns = _by_column(_BLOCK_ENTRY_WEIGHT[algebra])
    blocks = admissible_blocks(algebra, 1) + admissible_blocks(algebra, 2)
    return (columns, MappingProxyType({block: _total(columns, block) for block in blocks}),
            _BLOCK_LENGTH[algebra])


def wt_lit(algebra, u):
    """Reference: the normalized weight of a block tableau; always integral
    on admissible input.  Each block's numerator comes from the block
    table, or column by column for a block that is not admissible; the
    total is divided once."""
    column_num, block_num, length = _block_weights(algebra)
    x = y = 0
    for block in u:
        num = block_num.get(block)
        p, q = _total(column_num, block) if num is None else num
        x += p
        y += q
    (qx, rx), (qy, ry) = divmod(x, length), divmod(y, length)
    if rx or ry:
        raise ArithmeticError(f"non-integral block-tableau weight {(x, y)} / {length}")
    return (qx, qy)


def to_littelmann(algebra, t):
    """Reference: every column replaced by its admissible block."""
    _require_simple(algebra)
    single, double = _BLOCKS_SINGLE[algebra], _BLOCKS_DOUBLE[algebra]
    blocks = []
    for column in t:
        table = double if len(column) == 2 else single
        if column not in table:
            raise ValueError(f"column {column} has no admissible block")
        blocks.append(table[column])
    return tuple(blocks)


@lru_cache(maxsize=None)
def _decrement_table(algebra):
    """Reference: per admissible column, the admissible columns that
    lowering one of its entries by one gives, in entry order, each with
    the color of the new edge."""
    ones, twos, _ = _tables(algebra)
    columns = ones | twos
    color_of = EDGE_COLOR_OF_VALUE[algebra]
    lowered = {column: [(column[:j] + (e - 1,) + column[j + 1:], color_of[e - 1])
                        for j, e in enumerate(column) if e > 1]
               for column in columns}
    return MappingProxyType({column: tuple((new, color) for new, color in pairs if new in columns)
                             for column, pairs in lowered.items()})


def _decrements(algebra, t, lowered, windows):
    """Reference: the tableaux covering t-as-lattice-element, one entry
    lowered by one, each checked on the changed column and its neighbours
    under that window's own shape."""
    for i, (lo, shape) in enumerate(windows):
        left, right = t[lo:i], t[i + 1:i + 2]
        for new_col, color in lowered[t[i]]:
            if is_semistandard(algebra, shape, left + (new_col,) + right):
                yield t[:i] + (new_col,) + t[i + 1:], color


def reference_sequences(options, compatible):
    """Reference: every sequence taking one item from each options[i] in
    which each consecutive pair is compatible, sorted lexicographically."""
    seqs = [()]
    for items in options:
        seqs = [s + (x,) for s in seqs for x in items if not s or compatible(s[-1], x)]
    return tuple(sorted(seqs))


def reference_enumerate_tableaux(algebra, lam):
    """Reference: all admissible tableaux of the shape, as sorted tuples."""
    _, _, pairs = _tables(algebra)
    a, b = lam
    options = [allowed_columns(algebra, 2)] * b + [allowed_columns(algebra, 1)] * a
    return reference_sequences(options, lambda left, right: (left, right) in pairs)


def tableaux(algebra, lam):
    """The enumerated codes of shape lam, decoded."""
    return tableaux_of(algebra, lam, enumerate_tableaux(algebra, lam))


def encode(algebra, t):
    """The code of a tableau whose columns are all admissible."""
    table = column_table(algebra)
    code = 0
    for column in t:
        code = code * table.radix + table.columns.index(column)
    return code


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
        ones, twos, pairs = _tables(algebra)
        cols = well_formed_columns(algebra)
        assert ones == {c for c in cols if len(c) == 1 and _column_admissible(algebra, c)}
        assert twos == {c for c in cols if len(c) == 2 and _column_admissible(algebra, c)}
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
        table = column_table(algebra)
        assert {(table.blocks[left], table.blocks[right])
                for left, row in enumerate(table.block_pair)
                for right, ok in enumerate(row) if ok} == {
            (left, right) for left, right in itertools.product(blocks, repeat=2)
            if _row_compatible(left[-1], right[0])}

    def test_windows(self):
        # shape (2,3): columns of length 2, 2, 2, 1, 1
        assert _windows((2, 3)) == [(0, (0, 2)), (0, (0, 3)), (1, (1, 2)),
                                    (2, (2, 1)), (3, (2, 0))]
        assert _windows((1, 0)) == [(0, (1, 0))]
        assert _windows((0, 0)) == []


class TestColumnTable:
    """Per column id, the table equals the tuple references."""

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_columns_and_pairs(self, algebra):
        ones, twos, pairs = _tables(algebra)
        table = column_table(algebra)
        assert table.columns == tuple(sorted(ones | twos))
        assert table.radix == len(ones) + len(twos)
        assert {(table.columns[left], table.columns[right])
                for left, row in enumerate(table.pair)
                for right, ok in enumerate(row) if ok} == pairs

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_decrements(self, algebra):
        table = column_table(algebra)
        for column, lowered in zip(table.columns, table.lowered):
            assert [(table.columns[new], BETA if beta else ALPHA) for new, beta in lowered] \
                == list(_decrement_table(algebra)[column]), column

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_weights_and_blocks(self, algebra):
        table = column_table(algebra)
        assert table.blocks == tuple(sorted(admissible_blocks(algebra, 1)
                                            + admissible_blocks(algebra, 2)))
        length = table.block_length
        for k, column in enumerate(table.columns):
            (block,) = to_littelmann(algebra, (column,))
            assert table.weight[k] == tableauwt(algebra, (column,))
            assert table.blocks[table.block[k]] == block
            x, y = wt_lit(algebra, (block,))
            assert table.numerator[k] == (length * x, length * y)


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
        assert set(tableaux(Algebra.C2, (1, 1))) == goldens.C2_11_TABLEAUX

    @pytest.mark.parametrize("algebra,lam", [
        (Algebra.A2, (2, 2)), (Algebra.C2, (2, 1)), (Algebra.C2, (0, 3)),
        (Algebra.G2, (1, 1)), (Algebra.G2, (2, 0)), (Algebra.G2, (0, 2))])
    def test_matches_brute_force(self, algebra, lam):
        assert tableaux(algebra, lam) == brute_force_tableaux(algebra, lam)

    def test_counts_match_lattices(self):
        for algebra in SIMPLE:
            for lam in [(1, 0), (0, 1), (2, 1), (2, 2)]:
                lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
                assert len(enumerate_tableaux(algebra, lam)) == len(lat)

    @pytest.mark.parametrize("algebra,lam", CASES)
    def test_sorted_codes_decode_to_sorted_tuples(self, algebra, lam):
        codes = enumerate_tableaux(algebra, lam)
        assert codes == sorted(codes)
        assert tableaux_of(algebra, lam, codes) == sorted(reference_enumerate_tableaux(algebra, lam))
        assert [encode(algebra, t) for t in tableaux_of(algebra, lam, codes)] == codes


def reference_tableau_of_ideal(lattice, index):
    """Oracle: the tableau of one element, its mask projected piece by piece
    through the builder decomposition."""
    sp, maps = _column_maps(lattice)
    columns = column_table(sp.algebra).columns
    mask = lattice.elements[index]
    return tuple(columns[ids[masks.index(mask & masks[-1])]] for masks, ids in
                 zip(sp.decomposition.masks, maps))


def reference_ideal_of_tableau(lattice, t):
    """Oracle: the mask of one admissible tableau's ideal, its columns'
    piece masks ORed one by one."""
    sp, maps = _column_maps(lattice)
    if not is_semistandard(sp.algebra, sp.weight, t):
        raise ValueError("tableau is not admissible for this shape")
    columns = column_table(sp.algebra).columns
    mask = 0
    for masks, ids, column in zip(sp.decomposition.masks, maps, t):
        mask |= masks[ids.index(columns.index(column))]
    return mask


class TestBijectionColumns:
    """The whole-lattice columns equal the per-element references."""

    @staticmethod
    def assert_matches_reference(algebra, lam):
        lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
        assert tableaux_of(algebra, lam, tableau_of_ideal(lat)) == [
            reference_tableau_of_ideal(lat, i) for i in range(len(lat))]
        codes = enumerate_tableaux(algebra, lam)  # another order than the lattice's
        assert ideal_of_tableau(lat, codes) == [reference_ideal_of_tableau(lat, t)
                                                for t in tableaux_of(algebra, lam, codes)]

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_every_weight_to_33(self, algebra):
        for lam in WEIGHTS:
            self.assert_matches_reference(algebra, lam)

    def test_g2_44(self):
        self.assert_matches_reference(Algebra.G2, (4, 4))


class TestBijection:
    def test_extreme_labels(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)))
        tabs = tableaux_of(Algebra.C2, (1, 1), tableau_of_ideal(lat))
        assert tabs[0] == ((3, 4), (4,))
        assert tabs[lat.top] == ((1, 2), (1,))

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_round_trip(self, algebra):
        for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]:
            lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
            codes = tableau_of_ideal(lat)
            assert ideal_of_tableau(lat, codes) == list(lat.elements)
            assert set(codes) == set(enumerate_tableaux(algebra, lam))
            assert set(tableaux_of(algebra, lam, codes)) == set(tableaux(algebra, lam))

    def test_ideal_of_tableau_builds_no_poset(self, monkeypatch):
        algebra, lam = Algebra.G2, (2, 2)
        lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
        # tableau_of_ideal warms the per-piece column dictionaries
        tableaux = tableau_of_ideal(lat)

        def refuse(*args, **kwargs):
            raise AssertionError("ideal_of_tableau built a poset")

        monkeypatch.setattr(GridPoset, "build", staticmethod(refuse))
        assert ideal_of_tableau(lat, tableaux) == list(lat.elements)

    def test_rejects_inadmissible(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (0, 1)))
        # the inadmissible column (1,4) has no id, so no tableau holding it has a code
        assert (1, 4) not in column_table(Algebra.C2).columns
        with pytest.raises(ValueError, match=r"tableau \[1\] is not admissible"):
            ideal_of_tableau(lat, [encode(Algebra.C2, ((1,),))])  # a column too short
        with pytest.raises(ValueError, match="code 9 is not admissible"):
            ideal_of_tableau(lat, [9])  # beyond the nine one-column codes
        with pytest.raises(ValueError, match="code -1 "):
            ideal_of_tableau(lat, [-1])
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (0, 2)))
        with pytest.raises(ValueError, match=r"\[2,3\]\[2,3\]"):
            ideal_of_tableau(lat, [encode(Algebra.C2, ((2, 3), (2, 3)))])
        # one inadmissible tableau among admissible ones
        with pytest.raises(ValueError):
            ideal_of_tableau(lat, tableau_of_ideal(lat) + [encode(Algebra.C2, ((2, 3), (2, 3)))])

    def test_refuses_a_code_that_is_not_an_int(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)))
        code = tableau_of_ideal(lat)[3]
        with pytest.raises(ValueError, match=rf"code {float(code)!r} is a float, not an int"):
            ideal_of_tableau(lat, [float(code)])
        with pytest.raises(ValueError, match="is a float"):  # among admissible codes
            ideal_of_tableau(lat, tableau_of_ideal(lat) + [float(code)])
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (0, 1)))
        assert 1 in enumerate_tableaux(Algebra.C2, (0, 1))
        with pytest.raises(ValueError, match="code True is a bool, not an int"):
            ideal_of_tableau(lat, [True])

    @pytest.mark.parametrize("algebra,lam", [
        (g, (a, b)) for g in SIMPLE for a in range(4) for b in range(4)
        if a + b <= (2 if g is Algebra.G2 else 3)])
    def test_refuses_exactly_the_codes_not_enumerated(self, algebra, lam):
        lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
        admissible = set(enumerate_tableaux(algebra, lam))
        refused = set()
        for code in range(-1, column_table(algebra).radix ** (lam[0] + lam[1]) + 1):
            try:
                ideal_of_tableau(lat, [code])
            except ValueError:
                refused.add(code)
        assert refused.isdisjoint(admissible)
        assert len(refused) + len(admissible) == column_table(algebra).radix ** sum(lam) + 2

    def test_refusal_builds_no_set_of_admissible_codes(self, monkeypatch):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (2, 1)))
        codes = tableau_of_ideal(lat)

        def refuse(*args):
            raise AssertionError("ideal_of_tableau enumerated the tableaux")

        monkeypatch.setattr("ranktwo.tableaux.enumerate_tableaux", refuse)
        assert ideal_of_tableau(lat, codes) == list(lat.elements)
        # (1,4) followed by (1,) is a forbidden pair
        with pytest.raises(ValueError, match=r"\[1,4\]\[1\]\[1\] is not admissible"):
            ideal_of_tableau(lat, codes[:5] + [encode(Algebra.G2, ((1, 4), (1,), (1,)))])

    @pytest.mark.parametrize("algebra,lam", [(Algebra.G2, (2, 2)), (Algebra.C2, (1, 3))])
    def test_refuses_one_code_among_the_admissible_ones(self, algebra, lam):
        # inadmissible codes in range, each put among all the admissible
        # codes at a place that moves through them, so the byte columns are long
        lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
        codes = tableau_of_ideal(lat)
        admissible = set(codes)
        bad = [c for c in range(column_table(algebra).radix ** sum(lam)) if c not in admissible]
        for k, code in enumerate(bad[::max(1, len(bad) // 150)]):
            at = k * len(codes) // 150
            with pytest.raises(ValueError, match=r"^tableau \S+ is not admissible"):
                ideal_of_tableau(lat, codes[:at] + [code] + codes[at:])

    def test_names_the_first_refused_code(self):
        lat = order_ideals(semistandard_poset(Algebra.C2, "beta_alpha", (1, 1)))
        codes = tableau_of_ideal(lat)
        forbidden = encode(Algebra.C2, ((2, 3), (2, 3)))
        top = column_table(Algebra.C2).radix ** 2
        for tail, named in [([forbidden, -1, 0.5], r"tableau \[2,3\]\[2,3\] "),
                            ([top, forbidden], rf"code {top} is not"),
                            (["x", top], "code 'x' is a str")]:
            with pytest.raises(ValueError, match=named):
                ideal_of_tableau(lat, codes + tail)

    @pytest.mark.parametrize("lattice", [
        lambda: order_ideals(semistandard_poset(Algebra.C2, "alpha_beta", (1, 1))),
        lambda: order_ideals(load_fixture("two_color_example")),
        lambda: order_ideals(semistandard_poset(Algebra.A1A1, "beta_alpha", (1, 1))),
    ], ids=["alpha_beta", "unbuilt", "a1a1"])
    def test_only_simple_beta_alpha_lattices_are_labelled(self, lattice):
        lat = lattice()
        with pytest.raises(ValueError):
            tableau_of_ideal(lat)
        with pytest.raises(ValueError):
            ideal_of_tableau(lat, [0])

    def test_g2_second_fundamental_dictionary_extremes(self):
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (0, 1)))
        top, bottom, mask = ideal_of_tableau(
            lat, [encode(Algebra.G2, t) for t in [((1, 2),), ((6, 7),), ((3, 6),)]])
        assert top == lat.elements[lat.top]
        assert bottom == lat.elements[0]
        # the chain-4 prefix of size four carries weight 3w_a - 2w_b
        assert mask.bit_count() == 4
        assert lat.weights[lat.elements.index(mask)] == (3, -2)


class TestWeights:
    def test_single_column_values(self):
        assert tableauwt(Algebra.C2, ((2,),)) == (-1, 1)
        assert tableauwt(Algebra.G2, ((4,),)) == (0, 0)

    @pytest.mark.parametrize("algebra", SIMPLE)
    def test_matches_lattice_weights(self, algebra):
        for lam in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            lat = order_ideals(semistandard_poset(algebra, "beta_alpha", lam))
            codes = tableau_of_ideal(lat)
            assert [tableauwt(algebra, t) for t in tableaux_of(algebra, lam, codes)] == \
                list(lat.weights)
            assert column_sums(algebra, lam, codes)[0] == lat.weights


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
        tabs = tableaux_of(tl.algebra, tl.weight, tl.codes)
        by_pair = {(tabs[i], tabs[j]): c for i, j, c in covers}
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
    tabs = reference_enumerate_tableaux(algebra, lam)
    index = {t: i for i, t in enumerate(tabs)}
    covers = {(index[t], index[upper], color) for t in tabs
              for upper, color in reference_window_decrements(algebra, t)}
    return tabs, EdgeColoredPoset(tuple(range(len(tabs))), frozenset(covers)).covers


@pytest.mark.parametrize("algebra,lam", CASES)
def test_tableau_lattice_matches_reference(algebra, lam):
    tl = tableau_lattice(algebra, lam)
    tabs, covers = reference_tableau_lattice(algebra, lam)
    assert tableaux_of(tl.algebra, tl.weight, tl.codes) == list(tabs)
    assert tl.codes == enumerate_tableaux(algebra, lam)
    assert list(tl.covers) == sorted(covers, key=lambda c: c[:2])  # in (i, j) order


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
        for t in reference_enumerate_tableaux(algebra, lam):
            assert list(_decrements(algebra, t, lowered, windows)) == \
                list(reference_decrements(algebra, lam, t)), (lam, t)


class TestBijectionCheckCatchesTampering:
    """The tableau suite proves the lattice equivalence on the lattice's own
    covers: with the (1,1) beta-alpha lattice's covers, as the tableau case
    reads them, one recolored or one dropped must fail it, and rebuilt from
    their own columns must pass."""

    recolor = staticmethod(beta_flipped)
    drop = staticmethod(cover_dropped)

    @staticmethod
    def keep(lower, upper, beta):
        return lower, upper, beta

    @staticmethod
    def suite_status():
        (entry,) = Verifier((1, 1)).run_all(("tableau_suite",))["checks"]
        return entry["status"]

    def test_untampered_passes(self):
        assert self.suite_status() == "PASS"

    @pytest.mark.parametrize("change", ["recolor", "drop"])
    def test_tampered_fails(self, monkeypatch, change):
        tamper_tableau_case_covers(monkeypatch, getattr(self, change), (1, 1))
        assert self.suite_status() == "FAIL"

    def test_rebuilt_untampered_passes(self, monkeypatch):
        tamper_tableau_case_covers(monkeypatch, self.keep, (1, 1))
        assert self.suite_status() == "PASS"


def reference_tableau_case(lat, codes, covers, tl, extra=0):
    """The tableau case as it was, kept as the reference: the tableau
    lattice tl is built, mapped back through ideal_of_tableau, and its
    covers carried onto the lattice's elements by carries_covers; the
    lattice's covers, as the case reads them, must then be exactly their
    image, in (i, j) order, and as many as tl's cover count, read `extra`
    too high."""
    order = sorted(range(len(codes)), key=codes.__getitem__)
    if [codes[k] for k in order] != tl.codes:
        return False
    masks = ideal_of_tableau(lat, tl.codes)
    if masks != [lat.elements[k] for k in order]:
        return False
    cov = tl.covers
    if not lat.carries_covers(masks, cov.lower, cov.upper, cov.beta):
        return False
    image = sorted((order[i], order[j], b) for i, j, b in zip(cov.lower, cov.upper, cov.beta))
    return image == list(zip(covers.lower, covers.upper, covers.beta)) \
        and len(covers) == len(cov) + extra


def _codes_swapped(codes):
    codes[:2] = codes[1::-1]
    return codes


def _unchanged(*columns):
    return columns


# name: (the change to the lattice's covers, to its codes, and how far the
# tableau lattice's cover count reads too high), each applied where the case
# and the reference read them
TABLEAU_CASE_MUTATIONS = {
    "untampered": (_unchanged, list, 0),
    "beta-flipped": (beta_flipped, list, 0),
    "cover-dropped": (cover_dropped, list, 0),
    "cover-copied": (cover_copied, list, 0),
    "codes-swapped": (_unchanged, _codes_swapped, 0),
    "count-off-by-one": (_unchanged, list, 1),
}


@pytest.mark.parametrize("algebra,lam", CASES)
def test_tableau_case_matches_reference(algebra, lam):
    """The case, which builds no tableau lattice, decides as the reference
    does, untampered and under each mutation; on the one-element lattice
    only the count mutation changes anything."""
    verifier = Verifier()
    lat = verifier.lattice(algebra, "beta_alpha", lam)
    tl, codes, cov = tableau_lattice(algebra, lam), tableau_of_ideal(lat), lat.covers
    for name, (change, recode, extra) in TABLEAU_CASE_MUTATIONS.items():
        with pytest.MonkeyPatch.context() as m:
            tamper_tableau_case_covers(m, change)
            m.setattr("ranktwo.tableaux.tableau_of_ideal",
                      lambda lattice, *args: recode(tableau_of_ideal(lattice, *args)))
            m.setattr("ranktwo.tableaux.tableau_cover_count",
                      lambda algebra, lam: tableau_cover_count(algebra, lam) + extra)
            case = verifier._tableau_case(algebra, lam)
        covers = Covers(*change(list(cov.lower), list(cov.upper), bytearray(cov.beta)))
        reference = reference_tableau_case(lat, recode(list(codes)), covers, tl, extra)
        assert case is reference is (name == "untampered" or (len(lat) == 1 and not extra)), name


COUNTED = [(g, (a, b)) for g in SIMPLE for a in range(5) for b in range(5)] + [
    (Algebra.G2, (5, 5)), (Algebra.G2, (6, 6))]


@pytest.mark.parametrize("algebra,lam", COUNTED,
                         ids=[f"{g.value}-{a},{b}" for g, (a, b) in COUNTED])
def test_tableau_cover_count(algebra, lam):
    assert tableau_cover_count(algebra, lam) == len(tableau_lattice(algebra, lam).covers)


def test_g2_66_cover_count():
    assert tableau_cover_count(Algebra.G2, (6, 6)) == 522_543


def test_cover_count_reads_the_transposed_pairs_of_the_column_table(monkeypatch):
    """The transposed pair matrix is made once per algebra, with the column
    table: a cover count reads it there and makes none of its own."""
    import ranktwo.tableaux

    table = column_table(Algebra.C2)
    assert table.transposed == tuple(bytes(row[x] for row in table.pair)
                                     for x in range(table.radix))
    links = []

    def counted(options, pair):
        links.append(pair)
        return prefix_counts(options, pair)

    prefix_counts = ranktwo.tableaux._prefix_counts
    monkeypatch.setattr(ranktwo.tableaux, "_prefix_counts", counted)
    for lam in [(3, 2), [3, 2], (1, 2)]:
        links.clear()
        assert tableau_cover_count(Algebra.C2, lam) == len(
            tableau_lattice(Algebra.C2, tuple(lam)).covers)
        assert links[0] is table.pair and links[1] is table.transposed
    assert column_table(Algebra.C2) is table


def reference_enumerate_littelmann(algebra, lam):
    """Oracle: the block sequences pruned by row compatibility of the
    facing columns, with no block-pair table."""
    a, b = lam
    options = [admissible_blocks(algebra, 2)] * b + [admissible_blocks(algebra, 1)] * a
    return reference_sequences(options, lambda left, right: _row_compatible(left[-1], right[0]))


def littelmann(algebra, lam):
    """The enumerated block codes of shape lam, decoded."""
    return littelmann_of(algebra, lam, enumerate_littelmann(algebra, lam))


@pytest.mark.parametrize("algebra", SIMPLE)
def test_littelmann_enumeration_matches_row_pruning(algebra):
    for lam in WEIGHTS + ([(4, 4)] if algebra is Algebra.G2 else []):
        codes = enumerate_littelmann(algebra, lam)
        assert codes == sorted(codes), lam
        assert littelmann_of(algebra, lam, codes) == \
            list(reference_enumerate_littelmann(algebra, lam)), lam


def reference_column_sums(algebra, lam, codes):
    """Reference: the per-field sums, each of the five fields (the weight,
    the block numerator, the block code) added in its own pass per
    position over ids read off the codes by // and %."""
    table = column_table(algebra)
    n, radix = lam[0] + lam[1], table.radix
    per_id = [*zip(*table.weight), *zip(*table.numerator)]
    sums = [[0] * len(codes) for _ in per_id]
    blocks = [0] * len(codes)
    for place in (radix ** (n - 1 - k) for k in range(n)):
        ids = [c // place % radix for c in codes]
        sums = [[t + v[x] for t, x in zip(total, ids)] for total, v in zip(sums, per_id)]
        blocks = [c * len(table.blocks) + table.block[x] for c, x in zip(blocks, ids)]
    wa, wb, na, nb = sums
    return Weights(wa, wb), Weights(na, nb), blocks


# the CASES, the longest one-kind shapes (the widest fields) and G2 (6,6);
# the empty shape (0,0) is among the CASES
PACKED = CASES + [(g, lam) for g in SIMPLE for lam in [(8, 0), (0, 8)]] + [(Algebra.G2, (6, 6))]


@pytest.mark.parametrize("algebra,lam", PACKED,
                         ids=[f"{g.value}-{a},{b}" for g, (a, b) in PACKED])
def test_packed_column_sums_equal_the_per_field_sums(algebra, lam):
    codes = enumerate_tableaux(algebra, lam)
    assert column_sums(algebra, lam, codes) == reference_column_sums(algebra, lam, codes)


@pytest.mark.parametrize("algebra,lam", [(Algebra.C2, (0, 0)), (Algebra.A2, (2, 1)),
                                         (Algebra.G2, (2, 2))])
def test_code_ids_are_the_digits(algebra, lam):
    codes = enumerate_tableaux(algebra, lam)
    radix, n = column_table(algebra).radix, lam[0] + lam[1]
    ids = code_ids(algebra, lam, codes)
    assert all(type(column) is bytes for column in ids)
    assert [list(column) for column in ids] == [[c // radix ** (n - 1 - k) % radix for c in codes]
                                               for k in range(n)]


@pytest.mark.parametrize("algebra,lam", CASES)
def test_column_sums_match_references(algebra, lam):
    codes = enumerate_tableaux(algebra, lam)
    tabs = tableaux_of(algebra, lam, codes)
    weights, numerators, blocks = column_sums(algebra, lam, codes)
    length = column_table(algebra).block_length
    assert list(weights) == [tableauwt(algebra, t) for t in tabs]
    assert list(numerators) == [(length * x, length * y) for x, y in
                                (wt_lit(algebra, to_littelmann(algebra, t)) for t in tabs)]
    assert littelmann_of(algebra, lam, blocks) == [to_littelmann(algebra, t) for t in tabs]


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
            for t in tableaux(algebra, (1, 1)):
                assert from_littelmann(algebra, to_littelmann(algebra, t)) == t

    def test_unknown_block_named(self):
        with pytest.raises(ValueError, match=r"\(9, 9\)"):
            from_littelmann(Algebra.C2, (((9, 9), (9, 9)),))

    def test_weight_preservation_c2_22(self):
        for t in tableaux(Algebra.C2, (2, 2)):
            assert wt_lit(Algebra.C2, to_littelmann(Algebra.C2, t)) == \
                tableauwt(Algebra.C2, t)

    @pytest.mark.parametrize("algebra,lam", [
        (Algebra.A2, (2, 1)), (Algebra.C2, (1, 1)), (Algebra.C2, (2, 2)),
        (Algebra.G2, (1, 1))])
    def test_bijection_with_block_tableaux(self, algebra, lam):
        image = [to_littelmann(algebra, t) for t in tableaux(algebra, lam)]
        assert sorted(image) == littelmann(algebra, lam)

    @pytest.mark.parametrize("algebra,lam", [
        (Algebra.A2, (1, 1)), (Algebra.C2, (1, 1)), (Algebra.G2, (1, 1))])
    def test_splitting_sum(self, algebra, lam):
        total = LaurentPoly2.zero()
        for u in littelmann(algebra, lam):
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
            for u in littelmann(algebra, lam):
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
            for t in tableaux(algebra, lam):
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
