"""The package namespace exports the library's API and no submodule."""

import types

import ranktwo


def test_all_names_resolve_and_none_is_a_module():
    assert ranktwo.__all__
    for name in ranktwo.__all__:
        assert not isinstance(getattr(ranktwo, name), types.ModuleType), name

