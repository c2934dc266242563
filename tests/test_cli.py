import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ranktwo.cli
import ranktwo.lattice
import ranktwo.serialize
import ranktwo.tableaux
from ranktwo.cli import main
from ranktwo.serialize import dumps
from ranktwo.verify import Verifier


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
                     ["character", "--in", str(tmp_path / "l.json")],
                     ["export", "--in", str(tmp_path / "l.json")],
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
        monkeypatch.setattr(ranktwo.cli, "DEFAULT_MAX_IDEALS", 10)  # --max-ideals
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


class TestMaxIdealsOnLatticeFiles:
    """character and export rebuild the lattice of a file's poset, so they
    take enumerate's --max-ideals: a G2 (2,2) file, 729 ideals, is refused
    below its own size and read at it."""

    @pytest.fixture
    def lattice_file(self, tmp_path, capsys):
        poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
        run(capsys, "build", "--algebra", "g2", "--weight", "2,2", "--out", str(poset_file))
        run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
        return lattice_file

    ARGV = [["character", "--verify"], ["export", "--format", "json"],
            ["export", "--format", "text"]]

    @pytest.mark.parametrize("argv", ARGV)
    def test_refused_below_its_size(self, lattice_file, capsys, argv):
        command, *rest = argv
        code, out, err = run(capsys, command, "--in", str(lattice_file), *rest,
                             "--max-ideals", "728")
        assert (code, out, err) == (1, "", "refused: more than 728 order ideals\n")

    @pytest.mark.parametrize("argv", ARGV)
    def test_read_at_its_size(self, lattice_file, capsys, argv):
        command, *rest = argv
        code, out, err = run(capsys, command, "--in", str(lattice_file), *rest,
                             "--max-ideals", "729")
        assert code == 0 and out and err == ""


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

    @pytest.mark.parametrize("form", [[], ["--littelmann"]], ids=["columns", "blocks"])
    def test_count_only_renders_no_text(self, capsys, monkeypatch, form):
        def refuse(*args):
            raise AssertionError("count-only rendered text")

        for name in ("tableau_text", "littelmann_text"):
            monkeypatch.setattr(ranktwo.tableaux, name, refuse)
        code, out, _ = run(capsys, "tableaux", "--algebra", "g2", "--weight", "2,2",
                           "--count-only", *form)
        assert (code, out) == (0, "729\n")


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

    def test_bijection_and_structure_together_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bijection", "--structure", "two_color_example"])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "not allowed with argument" in err

    def test_bijection_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--bijection", "--seed-range", "2,2")
        assert code == 0
        assert re.fullmatch(r"PASS tableau_suite \[simple algebras, a<=2, b<=2\] "
                            r"\(\d+ ms\)\n", out)

    def test_report_file_is_the_canonical_dump(self, tmp_path, capsys, monkeypatch):
        reports = []
        run_all = Verifier.run_all

        def recording_run_all(self, *args):
            reports.append(run_all(self, *args))
            return reports[-1]

        monkeypatch.setattr(Verifier, "run_all", recording_run_all)
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--seed-range", "1,1", "--out", str(path))
        assert code == 0
        (report,) = reports
        assert path.read_bytes() == dumps(report).encode()

    def test_fixture_read_pins_its_encoding(self):
        """Under -X warn_default_encoding a text read that leaves the
        encoding to the locale warns, and -W error makes that fatal."""
        code = ("import sys; from ranktwo.cli import main; "
                "sys.exit(main(['verify', '--structure', 'two_color_example']))")
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ranktwo.cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error",
                               "-c", code], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert proc.stdout.startswith(b"PASS structure_condition ")

    def test_missing_fixture(self, capsys):
        code, _, err = run(capsys, "verify", "--structure", "no_such_thing")
        assert code == 2

    def test_no_such_fixture_or_file_is_reported_as_an_error(self, tmp_path, capsys):
        """Like every other usage error: exit 2, `error: ` on stderr, nothing on stdout."""
        for name in ("no_such_thing", str(tmp_path / "missing.json")):
            code, out, err = run(capsys, "verify", "--structure", name)
            assert (code, out, err) == (2, "", f"error: no such fixture or file: {name}\n")


class TestExport:
    def test_embedded_poset_changes_the_lattice_does_not_read(self, tmp_path, capsys):
        """A repeated cover row, and chain indices that `validate_grid`
        flags but that keep the total order, are accepted, and export writes
        those chain indices back; chain indices that move the order are not."""
        from ranktwo.grid import validate_grid
        from ranktwo.serialize import poset_from_obj

        poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
        run(capsys, "build", "--algebra", "c2", "--weight", "1,1", "--out", str(poset_file))
        run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
        top = max(row["chain"] for row in json.loads(poset_file.read_text())["chain"])

        def move_top_vertex(to):  # the one vertex on the top chain, to chain `to`
            def edit(poset):
                (row,) = (row for row in poset["chain"] if row["chain"] == top)
                row["chain"] = to
                assert validate_grid(poset_from_obj(poset))
            return edit

        def repeat_a_cover(poset):
            poset["covers"].append(poset["covers"][0])

        for edit, accepted in ((repeat_a_cover, True), (move_top_vertex(top + 3), True),
                               (move_top_vertex(0), False)):
            changed = json.loads(lattice_file.read_text())
            edit(changed["poset"])
            path, out = tmp_path / "changed.json", tmp_path / "out.json"
            path.write_text(json.dumps(changed))
            code, _, err = run(capsys, "export", "--in", str(path), "--out", str(out))
            if accepted:
                assert code == 0, err
                assert json.loads(out.read_text())["poset"]["chain"] == changed["poset"]["chain"]
            else:
                assert code == 2 and err.startswith("error: ")

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


@pytest.mark.parametrize("argv", [
    ["enumerate", "--in", "{deep}", "--out", "{out}"],
    ["character", "--in", "{deep}", "--verify"],
    ["export", "--in", "{deep}", "--format", "text"],
    ["verify", "--structure", "{deep}"],
], ids=["enumerate", "character", "export", "verify-structure"])
def test_deeply_nested_file_is_a_usage_error(tmp_path, capsys, argv):
    """The JSON parser recurses once per nesting level; past the recursion
    limit the file is malformed like any other (exit 2), not a verification
    FAIL with a traceback (exit 1)."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = [a.format(deep=deep, out=tmp_path / "out.json") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {deep}: JSON nested too deeply\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["enumerate", "--in", "{bad}", "--out", "{out}"],
    ["character", "--in", "{bad}", "--verify"],
    ["export", "--in", "{bad}", "--format", "text"],
    ["verify", "--structure", "{bad}"],
], ids=["enumerate", "character", "export", "verify-structure"])
@pytest.mark.parametrize("content", [b"not json", b"", b"\xff\xfe{}"],
                         ids=["not-json", "empty", "not-utf8"])
def test_unreadable_file_error_names_the_file(tmp_path, capsys, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [a.format(bad=bad, out=tmp_path / "out.json") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: "), err
    assert not (tmp_path / "out.json").exists()


class TestCanonicalLatticeFiles:
    """A lattice file is read by comparing its bytes with the canonical text
    of its poset's lattice; only a file that differs is parsed whole."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
        run(capsys, "build", "--algebra", "c2", "--weight", "1,1", "--out", str(poset_file))
        run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
        return poset_file, lattice_file

    def _check_and_export(self, capsys, lattice_file, source):
        code, out, _ = run(capsys, "character", "--in", str(source), "--verify")
        assert code == 0 and out.splitlines()[-1] == "PASS (algebra c2, weight 1,1)"
        again = lattice_file.parent / "again.json"
        code, _, _ = run(capsys, "export", "--in", str(source), "--format", "json",
                         "--out", str(again))
        assert code == 0 and again.read_bytes() == lattice_file.read_bytes()

    def test_canonical_file_is_not_parsed(self, files, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a canonical lattice file was parsed")

        for module in (ranktwo.serialize, ranktwo.cli):
            monkeypatch.setattr(module, "lattice_from_obj", refuse)
        monkeypatch.setattr(ranktwo.cli, "parse", refuse)
        _, lattice_file = files
        self._check_and_export(capsys, lattice_file, lattice_file)

    @pytest.mark.parametrize("layout", [{"indent": 1}, {}], ids=["pretty", "spaced"])
    def test_equal_values_in_another_layout_are_read(self, files, capsys, layout):
        _, lattice_file = files
        other = lattice_file.parent / "other.json"
        other.write_text(json.dumps(json.loads(lattice_file.read_text()), **layout))
        self._check_and_export(capsys, lattice_file, other)

    @pytest.mark.parametrize("argv", [["character", "--verify"], ["export", "--format", "json"]])
    @pytest.mark.parametrize("forge, key", [
        ("other-poset", "elements"), ("flipped-cover-color", "covers")])
    def test_forged_canonical_text_is_refused(self, files, tmp_path, capsys, argv, forge, key):
        """The poset read at its canonical place is trusted only through the
        byte comparison: the file then is parsed and checked field by field."""
        poset_file, lattice_file = files
        text = lattice_file.read_text()
        if forge == "other-poset":
            other = tmp_path / "q.json"
            run(capsys, "build", "--algebra", "c2", "--weight", "1,1", "--order", "ab",
                "--out", str(other))
            forged = text.replace(f',"poset":{poset_file.read_text().strip()},',
                                  f',"poset":{other.read_text().strip()},')
        else:
            forged = text.replace('"a"]', '"b"]', 1)
        assert forged != text
        bad = tmp_path / "bad.json"
        bad.write_text(forged)
        command, *rest = argv
        code, out, err = run(capsys, command, "--in", str(bad), *rest)
        assert (code, out, err) == (2, "", f"error: lattice file {key} do not match its poset\n")

    @pytest.mark.parametrize("decoy", ["nested", "repeated-before", "repeated-after"])
    def test_a_poset_key_elsewhere_leaves_the_file_to_the_whole_file_path(
            self, files, tmp_path, capsys, monkeypatch, decoy):
        """A 24-vertex antichain, 2**24 ideals, in a nested or repeated
        "poset" key is not enumerated in place of the file's own poset,
        which has 16: the fast path reads the same file as the whole-file
        path, which reads the top-level key, the last if repeated."""
        poset_file, lattice_file = files
        text, poset = lattice_file.read_text(), poset_file.read_text().strip()
        antichain = dumps({"kind": "vertex", "covers": [],
                           "vertices": [{"color": "a", "id": v} for v in range(24)]}).strip()
        forged = {
            "nested": text.replace(',"poset":', f',"note":{{"x":0,"poset":{antichain}}},"poset":'),
            "repeated-before": text.replace(',"poset":', f',"poset":{antichain},"poset":'),
            "repeated-after": text.replace(f',"poset":{poset},', f',"poset":{antichain},')
                                  .replace("]]}\n", f']],"poset":{poset}}}\n'),
        }[decoy]
        assert forged.count(antichain) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(forged)
        argv = ("character", "--in", str(bad), "--verify", "--max-ideals", "1000")
        fast = run(capsys, *argv)
        monkeypatch.setattr(ranktwo.cli, "canonical_lattice", lambda *args: None)
        assert fast == run(capsys, *argv)
        assert fast[0] == 0 and fast[1].splitlines()[-1] == "PASS (algebra c2, weight 1,1)"

    @pytest.mark.parametrize("argv", [["character", "--verify"], ["export", "--format", "json"]])
    @pytest.mark.parametrize("limit", [["--max-ideals", "1000"], []], ids=["1000", "default"])
    def test_broken_text_before_a_large_poset_is_a_usage_error(
            self, files, tmp_path, capsys, monkeypatch, argv, limit):
        """A file whose covers open with "[," and whose poset is a 24-vertex
        antichain, 2**24 ideals: the walk stops at the rows the text opens
        before the poset, and the whole-file path reports the broken JSON."""
        poset_file, lattice_file = files
        text, poset = lattice_file.read_text(), poset_file.read_text().strip()
        antichain = dumps({"kind": "vertex", "covers": [],
                           "vertices": [{"color": "a", "id": v} for v in range(24)]}).strip()
        forged = text.replace('{"covers":[[', '{"covers":[,').replace(
            f',"poset":{poset},', f',"poset":{antichain},')
        assert forged.count("[,") == 1 and forged.count(antichain) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(forged)
        bounds, walk = [], ranktwo.serialize.order_ideals
        monkeypatch.setattr(ranktwo.serialize, "order_ideals",
                            lambda p, max_ideals: bounds.append(max_ideals) or walk(p, max_ideals))
        command, *rest = argv
        code, out, err = run(capsys, command, "--in", str(bad), *rest, *limit)
        assert (code, out) == (2, "") and err.startswith(f"error: {bad}: ")
        assert bounds and max(bounds) <= forged.count("[")

    @pytest.mark.parametrize("argv", [["character", "--verify"], ["export", "--format", "json"]])
    def test_deep_value_at_the_poset_place(self, tmp_path, capsys, argv):
        deep = tmp_path / "deep.json"
        deep.write_text('{"covers":[],"elements":[],"poset":' + "[" * 100_000)
        command, *rest = argv
        code, out, err = run(capsys, command, "--in", str(deep), *rest)
        assert (code, out, err) == (2, "", f"error: {deep}: JSON nested too deeply\n")


def test_character_verify_on_trivial_lattice(tmp_path, capsys):
    poset_file, lattice_file = tmp_path / "p.json", tmp_path / "l.json"
    run(capsys, "build", "--algebra", "g2", "--weight", "0,0",
        "--out", str(poset_file))
    run(capsys, "enumerate", "--in", str(poset_file), "--out", str(lattice_file))
    code, out, _ = run(capsys, "character", "--in", str(lattice_file), "--verify")
    assert code == 0 and "PASS" in out
