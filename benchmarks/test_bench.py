"""Tests of the benchmark itself: `python3 -m pytest benchmarks -q`.

They run small instances (C2 (1,1)) through the same code paths as the
workloads and show that a tampered expected value counts as a failure.
"""

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

import run
from spans import Tracer, aggregate, load_spans
from workloads import (CRITERIA, STAGES, check_battery, run_lattice_pipeline,
                       seeded_poset)

sys.path.insert(0, str(run.SRC))

# C2 (1,1): 7 vertices, 16 ideals, 23 covers
SMALL = {"algebra": "c2", "weight": [1, 1], "ideals": 16, "covers": 23,
         "vertices": 7}


def small_spec(workload: str, tmp_path: Path, seed: int = 5, **tamper) -> dict:
    spec = {"workload": workload, **SMALL, "src": str(run.SRC)}
    spec.update(seeded_poset(spec["algebra"], spec["weight"], seed,
                             tmp_path / "poset.json"))
    spec.update(tamper)
    return spec


def failed(ops) -> list[str]:
    return [name for name, ok, _ in ops if not ok]


def no_span(name):
    return nullcontext()


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_battery_check_counts_each_bad_entry():
    spec = {"criteria": list(CRITERIA)}
    report = {"checks": [{"name": n, "params": "", "status": "PASS", "millis": 1}
                         for n in CRITERIA]}
    assert failed(check_battery(spec, report)) == []
    report["checks"][4]["status"] = "FAIL"
    del report["checks"][0]
    report["checks"].append({"name": "extra", "params": "", "status": "PASS",
                             "millis": 0})
    assert failed(check_battery(spec, report)) == ["counts", "additivity",
                                                   "report_names"]
    tampered = {"criteria": list(CRITERIA) + ["not_a_criterion"]}
    assert "not_a_criterion" in failed(check_battery(tampered, {"checks": []}))


def test_seeded_inputs_repeat_and_keep_counts(tmp_path):
    a = seeded_poset("c2", [2, 2], 7, tmp_path / "a.json")
    b = seeded_poset("c2", [2, 2], 7, tmp_path / "b.json")
    assert a["sha256"] == b["sha256"]
    from ranktwo.lattice import order_ideals
    from ranktwo.serialize import load, poset_from_obj

    sizes = set()
    for seed in range(6):
        info = seeded_poset("c2", [2, 2], seed, tmp_path / f"{seed}.json")
        lat = order_ideals(poset_from_obj(load(info["poset"])))
        sizes.add((len(lat), len(lat.covers)))
    assert len(sizes) == 1


def test_lattice_pipeline_passes_and_catches_tampering(tmp_path):
    from ranktwo.serialize import load, poset_from_obj

    spec = small_spec("g2_66", tmp_path)
    poset = poset_from_obj(load(spec["poset"]))
    ops = run_lattice_pipeline(spec, poset, no_span)
    assert [op[0] for op in ops] == list(STAGES) and failed(ops) == []
    ops = run_lattice_pipeline({**spec, "ideals": 17, "covers": 24}, poset, no_span)
    assert failed(ops) == ["enumerate", "covers"]
    ops = run_lattice_pipeline({**spec, "weight": [1, 2]}, poset, no_span)
    assert "build" in failed(ops)


def test_lattice_pipeline_counts_a_crash_as_failures(tmp_path):
    spec = small_spec("g2_66", tmp_path)
    ops = run_lattice_pipeline(spec, None, no_span)  # order_ideals(None) raises
    assert failed(ops) == list(STAGES)


def roundtrip(spec, tmp_path, trace=False):
    runner = run.Runner(spec, tmp_path, time.monotonic() + 60)
    return runner, runner.iterate(trace)


def test_roundtrip_passes_on_the_real_cli(tmp_path):
    _, it = roundtrip(small_spec("file_roundtrip", tmp_path), tmp_path)
    assert [op[0] for op in it.ops] == ["enumerate", "character", "export_json",
                                        "export_text"]
    assert failed(it.ops) == []
    assert len(it.procs) == 4 and it.wall_s > 0 and it.peak_rss_mb > 1


@pytest.mark.parametrize("tamper, bad", [
    ({"covers": 24}, ["enumerate", "export_text"]),
    ({"weight": [1, 2]}, ["character"]),
    ({"vertices": 8}, ["export_text"]),
])
def test_roundtrip_counts_tampered_expectations(tmp_path, tamper, bad):
    _, it = roundtrip(small_spec("file_roundtrip", tmp_path, **tamper), tmp_path)
    assert failed(it.ops) == bad


def test_roundtrip_counts_a_failing_command(tmp_path):
    spec = small_spec("file_roundtrip", tmp_path)
    Path(spec["poset"]).write_text("{}")
    _, it = roundtrip(spec, tmp_path)
    assert failed(it.ops) == ["enumerate", "character", "export_json",
                              "export_text"]


def test_traced_roundtrip_reports_layers(tmp_path):
    runner, plain = roundtrip(small_spec("file_roundtrip", tmp_path), tmp_path)
    traced = runner.iterate(True)
    assert failed(traced.ops) == []
    m = run.layer_metrics(plain, traced)
    assert set(m) == set(run.PER_LAYER)
    assert m["lattice.order_ideals.calls"] == 4
    assert m["lattice.ideals"] == 4 * SMALL["ideals"]
    assert m["lattice.covers.count"] == 4 * SMALL["covers"]
    for name in ("cli.enumerate.ms", "cli.character.ms", "cli.export.ms",
                 "cli.startup.ms", "serialize.lattice_to_obj.ms",
                 "serialize.bytes", "trace.top_level_s"):
        assert m[name] > 0, name
    assert m["tableaux.ideal_of_tableau.calls"] == 0


def test_traced_battery_reports_verify_layers(tmp_path):
    spec = {"workload": "battery", "bound": [1, 1], "criteria": list(CRITERIA),
            "src": str(run.SRC)}
    runner = run.Runner(spec, tmp_path, time.monotonic() + 120)
    plain, traced = runner.iterate(False), runner.iterate(True)
    assert failed(plain.ops) == failed(traced.ops) == []
    m = run.layer_metrics(plain, traced)
    for name in CRITERIA:
        assert m[f"verify.{name}.ms"] > 0, name
    for name in ("build.semistandard_poset.calls", "tableaux.ideal_of_tableau.calls",
                 "lattice.piece_rank_stats.calls", "poset.edge_color_iso.calls",
                 "grid.decompose.calls", "tableaux.is_semistandard.calls"):
        assert m[name] > 0, name
    assert 0 < m["verify.lattice_cache_hit_ratio"] < 1
    assert 0 < m["tableaux.decrement_yield"] <= 1


def test_self_time_excludes_children():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    rows = aggregate(load_spans(t.dump()))
    assert rows["outer"]["calls"] == rows["inner"]["calls"] == 1
    inner, outer = rows["inner"]["ms"], rows["outer"]["ms"]
    assert rows["outer"]["self_ms"] == pytest.approx(outer - inner)
    assert rows["inner"]["self_ms"] == inner >= 20


def test_no_result_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "battery", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
