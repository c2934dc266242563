"""The package namespace exports the library's API and no submodule,
importing it loads no heavy standard-library module, and only a lattice-file
read loads the readers' renderer."""

import os
import pathlib
import subprocess
import sys
import types

import pytest

import ranktwo


def test_all_names_resolve_and_none_is_a_module():
    assert ranktwo.__all__
    for name in ranktwo.__all__:
        assert not isinstance(getattr(ranktwo, name), types.ModuleType), name


_COLD_START = """
import sys
import {modules}
print(sorted(m for m in {unwanted!r} if m in sys.modules))
from ranktwo.fixtures import load_fixture
print(len(load_fixture("catalan_p3")))
"""


@pytest.mark.parametrize("flags, modules, unwanted", [
    ((), "ranktwo, ranktwo.cli, ranktwo.verify, ranktwo.tableaux", ("dataclasses", "inspect")),
    (("-S",), "ranktwo.cli", ("dataclasses", "inspect", "importlib.resources")),
    (("-S",), "ranktwo.verify", ("dataclasses", "inspect", "importlib.resources")),
    (("-S",), "ranktwo.cli, ranktwo.verify, ranktwo.tableaux",
     ("typing", "dataclasses", "inspect")),
], ids=["all", "cli-S", "verify-S", "all-S"])
def test_a_fresh_process_imports_no_heavy_stdlib_module(flags, modules, unwanted):
    """Every CLI command pays its imports: the records need no `dataclasses`
    (which loads `inspect`), and under -S, with no site hook preloading them,
    `importlib.resources` waits for the first fixture that is loaded and
    `typing` is never loaded: annotations stay strings."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ranktwo.__file__).parents[1])}
    code = _COLD_START.format(modules=modules, unwanted=unwanted)
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    assert out == ["[]", "9"]


_READ = """
import sys
from ranktwo.cli import main
from ranktwo.verify import Verifier
poset, lattice = sys.argv[1:]
main(["build", "--algebra", "c2", "--weight", "1,1", "--out", poset])
main(["enumerate", "--in", poset, "--out", lattice])
Verifier((1, 1)).run_all()
print("ranktwo.render" in sys.modules)
main(["character", "--in", lattice])
print("ranktwo.render" in sys.modules)
"""


def test_only_a_read_imports_the_renderer(tmp_path):
    """The readers' text renderer is compiled on the first lattice-file read:
    building, writing a lattice file and the battery do not import it."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ranktwo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _READ, str(tmp_path / "p.json"),
                          str(tmp_path / "l.json")], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    assert out[0] == "False" and out[-1] == "True"
