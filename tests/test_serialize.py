"""Lattice files: the writer against the unpacking reference, and the bytes
of `ranktwo enumerate` and `ranktwo export` against goldens."""

import hashlib
import itertools

import pytest

from conftest import element_vertices
from ranktwo.algebras import Algebra
from ranktwo.build import semistandard_poset
from ranktwo.cli import main
from ranktwo.fixtures import FIXTURE_NAMES, load_fixture
from ranktwo.lattice import IdealLattice, order_ideals
from ranktwo.serialize import dumps, lattice_to_obj, poset_to_obj


def reference_lattice_to_obj(lat: IdealLattice) -> dict:
    """The lattice file unpacked from each element's mask, covers sorted."""
    return {
        "poset": poset_to_obj(lat.poset),
        "elements": [sorted(element_vertices(lat, i)) for i in range(len(lat))],
        "covers": [[i, j, c.value] for i, j, c in sorted(lat.covers, key=lambda t: (t[0], t[1]))],
        "weights": [list(w) for w in lat.weights],
    }


def _built_lattices():
    for algebra in Algebra:
        for order in ("beta_alpha", "alpha_beta"):
            for lam in itertools.product(range(4), repeat=2):
                yield (algebra, order, lam), order_ideals(semistandard_poset(algebra, order, lam))


class TestWriterMatchesReference:
    def test_built_lattices(self):
        for case, lat in _built_lattices():
            assert lattice_to_obj(lat) == reference_lattice_to_obj(lat), case

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        lat = order_ideals(load_fixture(name))
        assert lattice_to_obj(lat) == reference_lattice_to_obj(lat)

    def test_cover_rows_share_one_int_per_element(self):
        # the covers' index columns make a new int per entry read; the rows
        # of a file being written or checked read them through one per element
        lat = order_ideals(semistandard_poset(Algebra.G2, "beta_alpha", (3, 3)))
        rows = lattice_to_obj(lat)["covers"]
        assert len(rows) == len(lat.covers) > len(lat)
        assert len({id(x) for row in rows for x in row[:2]}) <= len(lat)


# sha256 of `ranktwo enumerate` output, recorded before the writer read its
# rows off the covers
ENUMERATE_SHA256 = {
    "chain_product_2x3": "f37bfa9c9be964d3a12d3e1d09de157f02f3089cd04cfe0ba8524f70a1db1879",
    "catalan_p3": "ac5b103dc12ba50de99b5da50154f624767d59a8c970aca23310106bb43c39ca",
    "two_color_example": "eba84de5da522132c7de0006de82dfddbd0f14fb971f836d1c5c523bf6ccd236",
    "nonsplitting_grid": "2169cd99fa4cf35a5e1005ac12c7e2b214506f522f8d149d62fa9718a53c420d",
}
C2_88_ENUMERATE_SHA256 = "2645e3053231a816b1477d2667ecccd2c9412e206d589b76843173108b515b9d"
# sha256 of `ranktwo export --format dot` on the G2 (3,3) lattice files
G2_33_DOT_SHA256 = {
    "ba": "4304b8c87175bd9868cf1b87b1c9c718ea380a1afa6f39fc18c890f9c0ded5c7",
    "ab": "1b821f6a27344e9a3d2d1c88626aaf7ac5108bae680b0e47254ca036370cf419",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _enumerate(tmp_path, poset_file):
    lattice_file = tmp_path / "l.json"
    assert main(["enumerate", "--in", str(poset_file), "--out", str(lattice_file)]) == 0
    return lattice_file


def _assert_export_json_is_identity(tmp_path, lattice_file):
    again = tmp_path / "again.json"
    assert main(["export", "--in", str(lattice_file), "--format", "json",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == lattice_file.read_bytes()


class TestGoldenBytes:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_enumerate(self, tmp_path, name):
        poset_file = tmp_path / "p.json"
        poset_file.write_text(dumps(poset_to_obj(load_fixture(name))))
        lattice_file = _enumerate(tmp_path, poset_file)
        assert _sha256(lattice_file) == ENUMERATE_SHA256[name]
        _assert_export_json_is_identity(tmp_path, lattice_file)

    def test_c2_88_enumerate(self, tmp_path):
        poset_file = tmp_path / "p.json"
        assert main(["build", "--algebra", "c2", "--weight", "8,8",
                     "--out", str(poset_file)]) == 0
        lattice_file = _enumerate(tmp_path, poset_file)
        assert _sha256(lattice_file) == C2_88_ENUMERATE_SHA256
        _assert_export_json_is_identity(tmp_path, lattice_file)

    @pytest.mark.parametrize("order", ["ba", "ab"])
    def test_g2_33_dot(self, tmp_path, order):
        poset_file, dot_file = tmp_path / "p.json", tmp_path / "l.dot"
        assert main(["build", "--algebra", "g2", "--weight", "3,3", "--order", order,
                     "--out", str(poset_file)]) == 0
        lattice_file = _enumerate(tmp_path, poset_file)
        assert main(["export", "--in", str(lattice_file), "--format", "dot",
                     "--out", str(dot_file)]) == 0
        assert _sha256(dot_file) == G2_33_DOT_SHA256[order]
