import json

import pytest

import ranktwo.lattice
from ranktwo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildEnumerate:
    def test_round_trip(self, tmp_path, capsys):
        poset_file = tmp_path / "p.json"
        lattice_file = tmp_path / "l.json"
        code, _, _ = run(capsys, "build", "--algebra", "c2", "--weight", "1,1",
                         "--order", "ba", "--out", str(poset_file))
        assert code == 0
        code, _, _ = run(capsys, "enumerate", "--in", str(poset_file),
                         "--out", str(lattice_file))
        assert code == 0
        obj = json.loads(lattice_file.read_text())
        assert len(obj["elements"]) == 16
        assert len(obj["covers"]) == 23

    def test_deterministic_bytes(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            run(capsys, "build", "--algebra", "g2", "--weight", "2,1",
                "--out", str(f))
        assert f1.read_bytes() == f2.read_bytes()

    def test_max_ideals_guard(self, tmp_path, capsys):
        poset_file = tmp_path / "p.json"
        run(capsys, "build", "--algebra", "g2", "--weight", "2,2",
            "--out", str(poset_file))
        code, _, err = run(capsys, "enumerate", "--in", str(poset_file),
                           "--out", str(tmp_path / "l.json"), "--max-ideals", "10")
        assert code == 1
        assert "refused" in err

    @pytest.mark.parametrize("value", ["0", "-5", "ten"])
    def test_max_ideals_must_be_a_positive_integer(self, tmp_path, capsys, value):
        for argv in (["enumerate", "--in", str(tmp_path / "p.json")],
                     ["rgf", "--algebra", "g2", "--weight", "2,2", "--check-product"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--max-ideals", value])
            assert exc.value.code == 2
            assert "max-ideals" in capsys.readouterr().err


class TestCharacter:
    def test_verify_infers_algebra_and_weight(self, tmp_path, capsys):
        poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
        run(capsys, "build", "--algebra", "a2", "--weight", "1,1",
            "--out", str(poset_file))
        run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
        code, out, _ = run(capsys, "character", "--in", str(lattice_file), "--verify")
        assert code == 0
        assert "PASS (algebra a2, weight 1,1)" in out

    @pytest.mark.parametrize("weight", ["1,0", "2,0", "0,3"])
    def test_verify_infers_a1a1_from_one_color(self, tmp_path, capsys, weight):
        poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
        run(capsys, "build", "--algebra", "a1a1", "--weight", weight,
            "--out", str(poset_file))
        run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
        code, out, _ = run(capsys, "character", "--in", str(lattice_file), "--verify")
        assert code == 0
        assert out.splitlines()[-1] == f"PASS (algebra a1a1, weight {weight})"

    def test_prints_sorted_terms(self, tmp_path, capsys):
        poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
        run(capsys, "build", "--algebra", "a2", "--weight", "1,0",
            "--out", str(poset_file))
        run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
        code, out, _ = run(capsys, "character", "--in", str(lattice_file))
        assert code == 0
        assert out.strip() == "1*x^-1*y^1 + 1*x^0*y^-1 + 1*x^1*y^0"


class TestRgf:
    def test_check_product(self, capsys):
        code, out, _ = run(capsys, "rgf", "--algebra", "g2", "--weight", "2,2",
                           "--check-product")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "PASS"
        coeffs = [int(c) for c in lines[0].split()]
        assert sum(coeffs) == 729
        assert coeffs == coeffs[::-1]

    def test_check_product_refuses_beyond_max_ideals(self, capsys):
        code, _, err = run(capsys, "rgf", "--algebra", "g2", "--weight", "2,2",
                           "--check-product", "--max-ideals", "10")
        assert code == 1
        assert err == "refused: more than 10 order ideals\n"


class TestRefusedFiles:
    """A file whose poset has more ideals than the default limit is refused
    with one line and exit 1, not a traceback.  The limit is lowered to 10,
    so C2 (1,1), with 16 ideals, stands in for a G2 (10,10) file."""

    @pytest.fixture
    def files(self, tmp_path, capsys, monkeypatch):
        poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
        run(capsys, "build", "--algebra", "c2", "--weight", "1,1",
            "--out", str(poset_file))
        poset = json.loads(poset_file.read_text())
        lattice_file.write_text(json.dumps(
            {"poset": poset, "elements": [], "covers": [], "weights": []}))
        monkeypatch.setattr(ranktwo.lattice.order_ideals, "__defaults__", (10,))
        return poset_file, lattice_file

    @pytest.mark.parametrize("argv", [
        ["character", "--in", "{lattice}", "--verify"],
        ["export", "--in", "{lattice}", "--format", "text"],
        ["verify", "--structure", "{poset}"],
    ])
    def test_refused(self, files, capsys, argv):
        poset_file, lattice_file = files
        argv = [a.format(poset=poset_file, lattice=lattice_file) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "refused: more than 10 order ideals\n")


class TestTableaux:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "tableaux", "--algebra", "g2",
                           "--weight", "2,2", "--count-only")
        assert code == 0 and out.strip() == "729"

    def test_stream(self, capsys):
        code, out, _ = run(capsys, "tableaux", "--algebra", "c2", "--weight", "1,1")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 16
        assert lines[0] == "[1,2][1]" and lines[-1] == "[3,4][4]"

    def test_littelmann_stream(self, capsys):
        code, out, _ = run(capsys, "tableaux", "--algebra", "c2", "--weight", "1,1",
                           "--littelmann", "--count-only")
        assert code == 0 and out.strip() == "16"


class TestVerifyCommand:
    def test_structure_fixture_fails(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--structure", "nonsplitting_grid",
                           "--out", str(report))
        assert code == 1
        assert "FAIL" in out and "no matrix M" in out
        obj = json.loads(report.read_text())
        assert obj["checks"][0]["status"] == "FAIL"
        assert set(obj["checks"][0]) == {"name", "params", "status", "millis"}

    def test_structure_on_built_file(self, tmp_path, capsys):
        poset_file, report = tmp_path / "p.json", tmp_path / "report.json"
        run(capsys, "build", "--algebra", "c2", "--weight", "1,1",
            "--out", str(poset_file))
        code, out, _ = run(capsys, "verify", "--structure", str(poset_file),
                           "--out", str(report))
        assert code == 0 and "PASS" in out
        (check,) = json.loads(report.read_text())["checks"]
        assert check["status"] == "PASS"
        assert check["params"] == "unique matrix rows (2, -1) / (-2, 2)"

    def test_structure_on_one_color_poset(self, tmp_path, capsys):
        poset_file = tmp_path / "p.json"
        run(capsys, "build", "--algebra", "a1a1", "--weight", "0,2",
            "--out", str(poset_file))
        code, out, _ = run(capsys, "verify", "--structure", str(poset_file))
        assert code == 1
        assert out.startswith("FAIL structure_condition "
                              "[matrix M not unique: the lattice has no alpha covers]")

    def test_bijection_small_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--bijection", "--seed-range", "1,1")
        assert code == 0
        assert "tableau_suite" in out

    def test_missing_fixture(self, capsys):
        code, _, err = run(capsys, "verify", "--structure", "no_such_thing")
        assert code == 2


class TestExport:
    def test_json_round_trip_is_identity(self, tmp_path, capsys):
        poset_file = tmp_path / "p.json"
        run(capsys, "build", "--algebra", "c2", "--weight", "2,1",
            "--out", str(poset_file))
        code, out, _ = run(capsys, "export", "--in", str(poset_file),
                           "--format", "json")
        assert code == 0
        assert out == poset_file.read_text()

    def test_empty_poset_dot(self, tmp_path, capsys):
        poset_file = tmp_path / "p.json"
        run(capsys, "build", "--algebra", "a2", "--weight", "0,0",
            "--out", str(poset_file))
        code, out, _ = run(capsys, "export", "--in", str(poset_file),
                           "--format", "dot")
        assert code == 0
        assert out.startswith("digraph poset {") and out.rstrip().endswith("}")

    def test_lattice_dot_edges(self, tmp_path, capsys):
        poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
        run(capsys, "build", "--algebra", "c2", "--weight", "1,1",
            "--out", str(poset_file))
        run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
        code, out, _ = run(capsys, "export", "--in", str(lattice_file),
                           "--format", "dot")
        assert code == 0
        assert out.count("->") == 23
        assert 'label="a"' in out and 'label="b"' in out

    def test_unknown_format_is_usage_error(self, tmp_path, capsys):
        poset_file = tmp_path / "p.json"
        run(capsys, "build", "--algebra", "a2", "--weight", "1,0",
            "--out", str(poset_file))
        with pytest.raises(SystemExit) as exc:
            main(["export", "--in", str(poset_file), "--format", "png"])
        assert exc.value.code == 2

    def test_text_summary(self, tmp_path, capsys):
        poset_file = tmp_path / "p.json"
        run(capsys, "build", "--algebra", "g2", "--weight", "1,1",
            "--out", str(poset_file))
        code, out, _ = run(capsys, "export", "--in", str(poset_file),
                           "--format", "text")
        assert code == 0 and "16 vertices" in out


def test_corrupt_file_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}')
    code, _, err = run(capsys, "export", "--in", str(bad), "--format", "json")
    assert code == 2 and "error" in err


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _flip_first_cover(lat):
    (i, j, c), *rest = lat["covers"]
    return {**lat, "covers": [[i, j, "b" if c == "a" else "a"], *rest]}


def _floats_in_first_row(lat, key):
    """lat with the ints of the first nonempty row of lat[key] as floats,
    which == still takes as equal."""
    rows = lat[key]
    k = next(k for k, row in enumerate(rows) if row)
    row = [float(x) if type(x) is int else x for x in rows[k]]
    return {**lat, key: [*rows[:k], row, *rows[k + 1:]]}


def _true_for_first_one(lat, key):
    """lat with the first int 1 in lat[key] as true, which == still takes
    as equal."""
    rows = lat[key]
    k = next(k for k, row in enumerate(rows) if 1 in row)
    row = rows[k][:]
    row[row.index(1)] = True
    return {**lat, key: [*rows[:k], row, *rows[k + 1:]]}


@pytest.mark.parametrize("command, corrupt", [
    ("enumerate", lambda poset, lat: _without(poset, "covers")),
    ("enumerate", lambda poset, lat: [poset]),
    ("enumerate", lambda poset, lat: {
        **poset, "chain": [{**poset["chain"][0], "chain": "1"}, *poset["chain"][1:]]}),
    ("enumerate", lambda poset, lat: {
        "kind": "edge", "vertices": [{"id": 0}, {"id": 1}], "covers": [[0, 1, "a"]]}),
    ("enumerate", lambda poset, lat: {
        **poset, "vertices": [*poset["vertices"], {"color": "b", "id": 0}]}),
    ("character", lambda poset, lat: _without(lat, "elements")),
    ("character", lambda poset, lat: poset),
    ("export", lambda poset, lat: {**lat, "covers": []}),
    ("export", lambda poset, lat: _flip_first_cover(lat)),
    ("character", lambda poset, lat: _floats_in_first_row(lat, "elements")),
    ("character", lambda poset, lat: _floats_in_first_row(lat, "covers")),
    ("export", lambda poset, lat: _floats_in_first_row(lat, "weights")),
    ("character", lambda poset, lat: _true_for_first_one(lat, "elements")),
    ("export", lambda poset, lat: _true_for_first_one(lat, "covers")),
    ("character", lambda poset, lat: _true_for_first_one(lat, "weights")),
    ("export", lambda poset, lat: {
        **lat, "covers": [lat["covers"][0][:2], *lat["covers"][1:]]}),
    ("character", lambda poset, lat: {
        **lat, "elements": [lat["elements"][0], *lat["elements"][1], *lat["elements"][2:]]}),
], ids=["poset-without-covers", "top-level-list", "string-chain-index",
        "edge-poset-to-enumerate", "repeated-vertex-id", "lattice-without-elements",
        "poset-file-as-lattice", "lattice-without-covers", "flipped-cover-color",
        "float-element", "float-cover-index", "float-weight", "true-element",
        "true-cover-index", "true-weight", "cover-without-color", "bare-int-element-row"])
def test_malformed_file_is_a_usage_error(tmp_path, capsys, command, corrupt):
    poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
    run(capsys, "build", "--algebra", "c2", "--weight", "1,1",
        "--out", str(poset_file))
    run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(poset_file.read_text()),
                                      json.loads(lattice_file.read_text()))))
    argv = {"enumerate": ["--out", str(tmp_path / "out.json")],
            "character": ["--verify"], "export": ["--format", "text"]}[command]
    code, out, err = run(capsys, command, "--in", str(bad), *argv)
    assert code == 2 and err.startswith("error: ") and out == ""


def test_character_verify_on_trivial_lattice(tmp_path, capsys):
    poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
    run(capsys, "build", "--algebra", "g2", "--weight", "0,0",
        "--out", str(poset_file))
    run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
    code, out, _ = run(capsys, "character", "--in", str(lattice_file), "--verify")
    assert code == 0 and "PASS" in out
