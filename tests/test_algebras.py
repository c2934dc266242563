import pickle

import pytest

from ranktwo.algebras import (ALPHA, BETA, CARTAN, IDENTITY, SWAP, Algebra,
                              Color)


@pytest.mark.parametrize("enum", [Color, Algebra])
class TestIdentityHash:
    """Members hash by identity; lookups and equality are as for any Enum."""

    def test_hash_is_object_hash(self, enum):
        for member in enum:
            assert hash(member) == object.__hash__(member)

    def test_dict_and_set_lookups(self, enum):
        members = list(enum)
        table = {m: k for k, m in enumerate(members)}
        for k, m in enumerate(members):
            assert table[m] == k
            assert table[enum(m.value)] == k
            assert table[enum[m.name]] == k
            assert table[pickle.loads(pickle.dumps(m))] == k
        assert set(members + members) == set(members)
        assert len({(0, m) for m in members} | {(0, m) for m in members}) == len(members)
        assert frozenset(members) == frozenset(reversed(members))

    def test_values_and_names_are_not_members(self, enum):
        table = {m: m for m in enum}
        for m in enum:
            assert m.value not in table and m.name not in table
            assert m != m.value


def test_module_tables_still_look_up():
    assert SWAP[ALPHA] is BETA and SWAP[Color("b")] is ALPHA
    assert IDENTITY[Color("a")] is ALPHA
    assert CARTAN[Algebra("g2")] == ((2, -1), (-3, 2))
