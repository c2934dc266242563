"""The three workloads: their seeded inputs, their steps and their checks.

Inputs are generated here from the seed; the program under test only
receives the generated files and calls.  Every check returns a list of
operations `(name, ok, detail)`, and each operation that is not ok counts
as one failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("battery", "g2_66", "file_roundtrip")

# The nine report entries of Verifier.run_all, which must all PASS.
CRITERIA = ("counts", "rgf_product_identity", "weyl_character",
            "structure_condition", "additivity", "tableau_suite", "duality",
            "quasi_gaussian", "warmup_goldens")
BATTERY_BOUND = (3, 3)

# Lattice sizes depend only on the algebra and weight: neither the piece
# order nor the vertex relabelling picked by the seed may change them.
LATTICES = {
    "g2_66": {"algebra": "g2", "weight": [6, 6], "ideals": 117_649,
              "covers": 522_543},
    "file_roundtrip": {"algebra": "c2", "weight": [8, 8], "ideals": 6_561,
                       "covers": 21_744, "vertices": 56},
}

# Stages of the lattice pipeline, one operation each.
STAGES = ("build", "enumerate", "covers", "weights", "weyl_character",
          "rgf_product", "structure")


def seeded_poset(algebra: str, weight, seed: int, path: Path) -> dict:
    """Write P^ba or P^ab (picked by the seed) with vertex ids relabelled by
    a seeded injection into range(4n); return what the checks need."""
    from ranktwo.algebras import parse_algebra
    from ranktwo.build import semistandard_poset
    from ranktwo.serialize import dumps, poset_to_obj

    rng = random.Random(seed)
    order = rng.choice(("beta_alpha", "alpha_beta"))
    grid = semistandard_poset(parse_algebra(algebra), order, tuple(weight)).grid
    ids = grid.base.ids
    relabel = dict(zip(ids, rng.sample(range(4 * len(ids)), len(ids))))
    data = dumps(poset_to_obj(grid.relabel(relabel))).encode()
    path.write_bytes(data)
    return {"order": order, "relabel": {str(k): v for k, v in relabel.items()},
            "poset": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def prepare(workload: str, seed: int, workdir: Path) -> dict:
    """The spec a workload's processes read: parameters, inputs, expectations."""
    if workload == "battery":
        # fixed by the acceptance gate; the seed picks nothing
        return {"workload": workload, "bound": list(BATTERY_BOUND),
                "criteria": list(CRITERIA)}
    spec = {"workload": workload, **LATTICES[workload]}
    spec.update(seeded_poset(spec["algebra"], spec["weight"], seed,
                             workdir / "poset.json"))
    return spec


# --- battery -----------------------------------------------------------------


def run_battery(spec: dict) -> list:
    from ranktwo.verify import Verifier

    report = Verifier(tuple(spec["bound"])).run_all()
    return check_battery(spec, report)


def check_battery(spec: dict, report: dict) -> list:
    status = {c["name"]: c for c in report["checks"]}
    ops = []
    for name in spec["criteria"]:
        check = status.get(name)
        if check is None:
            ops.append((name, False, "missing from the report"))
        else:
            ops.append((name, check["status"] == "PASS",
                        f"{check['status']} [{check['params']}]"))
    extra = sorted(set(status) - set(spec["criteria"]))
    if extra:
        ops.append(("report_names", False, f"unexpected entries {extra}"))
    return ops


# --- one large lattice through every stage -----------------------------------


def run_lattice_pipeline(spec: dict, poset, span) -> list:
    """build -> order_ideals -> covers -> weights -> character -> rgf ->
    structure, each stage checked; a crash fails the remaining stages."""
    from ranktwo.algebras import cartan_matrix, parse_algebra
    from ranktwo.build import semistandard_poset
    from ranktwo.lattice import check_structure, order_ideals
    from ranktwo.weyl import (character_from_lattice, rgf_from_lattice,
                              rgf_product, verify_weyl_character)

    algebra = parse_algebra(spec["algebra"])
    lam = tuple(spec["weight"])
    relabel = {int(k): v for k, v in spec["relabel"].items()}
    ops: list = []

    def check(name, ok, detail=""):
        ops.append((name, bool(ok), detail))

    try:
        with span("stage.build"):
            built = semistandard_poset(algebra, spec["order"], lam).grid
        check("build", built.relabel(relabel) == poset,
              "the built poset, relabelled, equals the input file")
        with span("stage.enumerate"):
            lat = order_ideals(poset)
        check("enumerate", len(lat) == spec["ideals"],
              f"{len(lat)} ideals, expected {spec['ideals']}")
        with span("stage.covers"):
            covers = lat.covers
        check("covers", len(covers) == spec["covers"],
              f"{len(covers)} covers, expected {spec['covers']}")
        with span("stage.weights"):
            top = lat.weights[lat.top]
        check("weights", top == lam, f"top weight {top}, expected {lam}")
        with span("stage.weyl_character"):
            ok = verify_weyl_character(algebra, lam, character_from_lattice(lat))
        check("weyl_character", ok, "A_rho * chi == A_(rho+lambda)")
        with span("stage.rgf_product"):
            ok = rgf_from_lattice(lat) == rgf_product(algebra, lam)
        check("rgf_product", ok, "rank generating function equals the product")
        with span("stage.structure"):
            ok = check_structure(lat, cartan_matrix(algebra))
        check("structure", ok, "Cartan structure matrix holds")
    except Exception as exc:  # a crash is a failure of this and later stages
        check(STAGES[len(ops)], False, f"{type(exc).__name__}: {exc}")
    ops += [(name, False, "not reached") for name in STAGES[len(ops):]]
    return ops


# --- the CLI over files --------------------------------------------------------


def roundtrip_commands(spec: dict, workdir: Path) -> list:
    """(name, argv) for each `ranktwo` invocation, in order."""
    lattice = str(workdir / "lattice.json")
    return [
        ("enumerate", ["enumerate", "--in", spec["poset"], "--out", lattice]),
        ("character", ["character", "--in", lattice, "--verify"]),
        ("export_json", ["export", "--in", lattice, "--format", "json",
                         "--out", str(workdir / "export.json")]),
        ("export_text", ["export", "--in", lattice, "--format", "text"]),
    ]


def check_roundtrip(spec: dict, workdir: Path, name: str, exit_code: int,
                    stdout: str) -> tuple:
    """Check one command's exit code and outputs."""
    if exit_code != 0:
        return (name, False, f"exit code {exit_code}")
    lattice = workdir / "lattice.json"
    a, b = spec["weight"]
    if name == "enumerate":
        obj = json.loads(lattice.read_bytes())
        got = (len(obj["elements"]), len(obj["covers"]))
        want = (spec["ideals"], spec["covers"])
        return (name, got == want, f"(ideals, covers) {got}, expected {want}")
    if name == "character":
        line = f"PASS (algebra {spec['algebra']}, weight {a},{b})"
        return (name, line in stdout.splitlines(), f"expects line {line!r}")
    if name == "export_json":
        same = (workdir / "export.json").read_bytes() == lattice.read_bytes()
        return (name, same, "byte-identical to the enumerated file")
    text = (f"lattice with {spec['ideals']} elements, {spec['covers']} covers, "
            f"over a poset with {spec['vertices']} vertices\n")
    return (name, stdout == text, f"expects {text!r}")
