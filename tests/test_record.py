"""The frozen records behave as the standard library's frozen dataclasses:
each record is compared with a `dataclasses` twin declared here, on equality,
hashing, repr, immutability, `replace` and construction."""

import dataclasses
from functools import cached_property

import pytest

from ranktwo.algebras import Algebra
from ranktwo.build import SemistandardPoset, semistandard_poset
from ranktwo.grid import Decomposition, GridPoset
from ranktwo.lattice import IdealLattice, order_ideals
from ranktwo.poset import EdgeColoredPoset, RankFunction, VertexColoredPoset, find_rank_function
from ranktwo.record import field, fields, record, replace
from ranktwo.tableaux import TableauLattice, tableau_lattice

# Per record, its fields in order; "-" marks a field that is neither
# compared nor shown, "=None" a field whose default is None.
SPECS = {
    VertexColoredPoset: "vertices covers",
    EdgeColoredPoset: "elements covers",
    RankFunction: "ranks length",
    GridPoset: "base chains",
    Decomposition: "pieces labels order _lattices-=None",
    SemistandardPoset: "grid algebra order weight",
    IdealLattice: "poset built vertex_order rank_sizes- _covers- _first- _added- runs-",
    TableauLattice: "algebra weight codes covers",
}


def twin_of(cls):
    """A stdlib frozen dataclass with the record's name and declared fields."""
    specs = []
    for word in SPECS[cls].split():
        name, _, default = word.partition("=")
        hidden = name.endswith("-")
        extra = {"default": None} if default else {}
        specs.append((name.rstrip("-"), object,
                      dataclasses.field(compare=not hidden, repr=not hidden, **extra)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def samples(cls):
    """Two unequal records of class cls, from weights (1, 0) and (1, 1) of A2."""
    out = []
    for lam in ((1, 0), (1, 1)):
        built = semistandard_poset(Algebra.A2, "beta_alpha", lam)
        lat = order_ideals(built)
        out.append({
            VertexColoredPoset: built.grid.base, EdgeColoredPoset: lat.edge_poset,
            RankFunction: find_rank_function(lat.edge_poset), GridPoset: built.grid,
            Decomposition: built.decomposition, SemistandardPoset: built, IdealLattice: lat,
            TableauLattice: tableau_lattice(Algebra.A2, lam),
        }[cls])
    return out


def values(rec):
    return tuple(getattr(rec, f.name) for f in fields(rec))


RECORDS = list(SPECS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestAsDataclass:
    def test_field_list_is_the_declared_one(self, cls):
        twin = twin_of(cls)
        assert [(f.name, f.compare, f.repr) for f in fields(cls)] == \
               [(f.name, f.compare, f.repr) for f in dataclasses.fields(twin)]

    def test_equality_hash_and_repr(self, cls):
        twin = twin_of(cls)
        a, b = samples(cls)
        pairs = [(cls(*values(x)), twin(*values(x))) for x in (a, a, b)]
        for (r, t), (r2, t2) in zip(pairs, pairs[1:]):
            assert (r == r2, r != r2) == (t == t2, t != t2)
        assert pairs[0][0] == pairs[1][0] and pairs[0][0] != pairs[2][0]
        for r, t in pairs:
            assert repr(r) == repr(t)
            assert r.__eq__(t) is NotImplemented and t.__eq__(r) is NotImplemented
            assert r != t
            try:
                h = hash(t)
            except TypeError:  # a list field: neither hashes
                with pytest.raises(TypeError):
                    hash(r)
            else:
                assert hash(r) == h
        if cls is not TableauLattice:
            assert hash(pairs[0][0]) == hash(pairs[1][0])

    def test_assignment_and_deletion_are_refused(self, cls):
        rec, _ = samples(cls)
        before = values(rec)
        for name in (fields(cls)[0].name, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert all(x is y for x, y in zip(values(rec), before))
        with pytest.raises(AttributeError):
            twin_of(cls)(*before).not_a_field = None

    def test_replace(self, cls):
        twin = twin_of(cls)
        a, b = samples(cls)
        t = twin(*values(a))
        same = replace(a)
        assert same == a and same is not a and repr(same) == repr(dataclasses.replace(t))
        changes = {f.name: getattr(b, f.name) for f in fields(cls)}  # all of b's, so valid
        changed, t_changed = replace(a, **changes), dataclasses.replace(t, **changes)
        assert values(changed) == tuple(getattr(t_changed, name) for name in changes)
        assert changed == b and changed != a and t_changed != t
        with pytest.raises(TypeError):
            replace(a, not_a_field=1)

    def test_positional_and_keyword_construction(self, cls):
        rec, _ = samples(cls)
        names = [f.name for f in fields(cls)]
        args = values(rec)
        by_keyword = cls(**dict(zip(names, args)))
        mixed = cls(*args[:1], **dict(zip(names[1:], args[1:])))
        assert values(by_keyword) == values(mixed) == args
        assert by_keyword == rec == mixed

    def test_bad_arguments_raise_type_error(self, cls):
        twin = twin_of(cls)
        rec, _ = samples(cls)
        names, args = [f.name for f in fields(cls)], values(rec)
        first = names[0]
        for make in (cls, twin):
            for bad in (lambda: make(),  # missing
                        lambda: make(**dict(zip(names[1:], args[1:]))),  # first missing
                        lambda: make(*args, not_a_field=1),  # unknown
                        lambda: make(*args, **{first: args[0]}),  # repeated
                        lambda: make(*args, None)):  # one too many
                with pytest.raises(TypeError):
                    bad()


def test_a_patched_post_init_runs_on_construction(monkeypatch):
    calls = []
    original = EdgeColoredPoset.__post_init__

    def spy(self):
        calls.append(len(self))
        original(self)

    monkeypatch.setattr(EdgeColoredPoset, "__post_init__", spy)
    EdgeColoredPoset((0, 1), frozenset({(0, 1, None)}))
    replace(EdgeColoredPoset((0,), frozenset()))
    assert calls == [2, 1, 1]


@record
class _Point:
    x: int
    y: int = 0
    tag: str = field(default="p", compare=False)

    @cached_property
    def norm(self) -> int:
        return self.x * self.x + self.y * self.y


@dataclasses.dataclass(frozen=True)
class _PointTwin:
    x: int
    y: int = 0
    tag: str = dataclasses.field(default="p", compare=False)


@record
class _PointCopy:
    x: int
    y: int = 0


def test_records_of_two_classes_are_unequal():
    assert _Point(3, 4).__eq__(_PointCopy(3, 4)) is NotImplemented
    assert _Point(3, 4) != _PointCopy(3, 4)
    assert _PointTwin(3, 4).__eq__(_PointCopy(3, 4)) is NotImplemented


def test_defaults_plain_and_from_field_and_cached_property():
    for make in (_Point, _PointTwin):
        assert (make(3).y, make(3).tag, make.y, make.tag) == (0, "p", 0, "p")
        assert make(3, 4, "q") == make(3, 4) != make(3)
        assert hash(make(3, 4, "q")) == hash(make(3, 4))
    assert repr(_Point(3, 4)) == repr(_PointTwin(3, 4)).replace("_PointTwin", "_Point")
    p = _Point(3, 4)
    assert p.norm == 25 and p.__dict__["norm"] == 25
