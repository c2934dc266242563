"""Command-line front end.

Exit status: 0 success or all checks PASS, 1 verification FAIL, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebras import Algebra, cartan_matrix, parse_algebra
from .build import semistandard_poset
from .fixtures import FIXTURE_NAMES, load_fixture
from .grid import GridPoset
from .lattice import DEFAULT_MAX_IDEALS, TooManyIdeals, order_ideals, structure_rows
from .poset import EdgeColoredPoset
from .serialize import (canonical_lattice, dumps, lattice_from_obj, lattice_text, load, parse,
                        poset_from_obj, poset_to_dot, poset_to_obj, read)
from .weyl import character_from_lattice, rgf_from_lattice, rgf_product, verify_weyl_character


def _parse_weight(text: str) -> tuple[int, int]:
    try:
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"weight must look like A,B, got {text!r}")
    if a < 0 or b < 0:
        raise argparse.ArgumentTypeError("weight coordinates must be nonnegative")
    return (a, b)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def _algebra(text: str) -> Algebra:
    try:
        return parse_algebra(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


ORDER_FLAG = {"ba": "beta_alpha", "ab": "alpha_beta"}


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_build(args) -> int:
    sp = semistandard_poset(args.algebra, ORDER_FLAG[args.order], args.weight)
    _write_or_print(dumps(poset_to_obj(sp.grid)), args.out)
    return 0


def cmd_enumerate(args) -> int:
    poset = poset_from_obj(load(getattr(args, "in")))
    lat = order_ideals(poset, max_ideals=args.max_ideals)
    _write_or_print(lattice_text(lat), args.out)
    return 0


def cmd_character(args) -> int:
    path = getattr(args, "in")
    text = read(path)
    lat = canonical_lattice(text, path, args.max_ideals)
    if lat is None:
        lat = lattice_from_obj(parse(text, path), args.max_ideals)
    del text  # checked against lat: free it before the character
    chi = character_from_lattice(lat)
    print(chi)
    if not args.verify:
        return 0
    algebra = args.algebra
    if algebra is None:
        # a color with no covers leaves its row free: with no beta covers
        # every beta coordinate is 0, so the alpha row is (x, 0), which only
        # A1+A1 has (likewise for alpha); with no covers any algebra fits
        rows = structure_rows(lat)
        matched = [] if rows is None else [
            g for g in Algebra
            if all(r is None or r == row for r, row in zip(rows, cartan_matrix(g)))]
        if not matched:
            print("FAIL (no algebra matches the inferred structure matrix)")
            return 1
        algebra = matched[0]
    lam = args.weight
    if lam is None:
        lam = lat.weights[lat.top]
        if lam[0] < 0 or lam[1] < 0:
            print("FAIL (maximal weight is not dominant)")
            return 1
    ok = verify_weyl_character(algebra, lam, chi)
    print(f"{'PASS' if ok else 'FAIL'} (algebra {algebra.value}, weight {lam[0]},{lam[1]})")
    return 0 if ok else 1


def cmd_rgf(args) -> int:
    lam = args.weight
    closed = rgf_product(args.algebra, lam)
    print(closed)
    if not args.check_product:
        return 0
    lat = order_ideals(semistandard_poset(args.algebra, ORDER_FLAG[args.order], lam),
                       max_ideals=args.max_ideals)
    ok = rgf_from_lattice(lat) == closed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_tableaux(args) -> int:
    from .tableaux import (enumerate_littelmann, enumerate_tableaux, littelmann_of,
                           littelmann_text, tableau_text, tableaux_of)

    if args.littelmann:
        enumerate_codes, decode, text = enumerate_littelmann, littelmann_of, littelmann_text
    else:
        enumerate_codes, decode, text = enumerate_tableaux, tableaux_of, tableau_text
    codes = enumerate_codes(args.algebra, args.weight)
    if args.count_only:
        print(len(codes))
        return 0
    for item in decode(args.algebra, args.weight, codes):
        print(text(item))
    return 0


def cmd_verify(args) -> int:
    from .verify import Verifier, structure_report

    if args.structure is not None:
        name = args.structure
        if name in FIXTURE_NAMES:
            poset = load_fixture(name)
        elif os.path.exists(name):
            poset = poset_from_obj(load(name))
        else:
            raise ValueError(f"no such fixture or file: {name}")
        report = structure_report(poset)
    else:
        report = Verifier(args.seed_range).run_all(
            ("tableau_suite",) if args.bijection else None)
    for check in report["checks"]:
        print(f"{check['status']:4} {check['name']} [{check['params']}] "
              f"({check['millis']} ms)")
    if args.out is not None:
        _write_or_print(dumps(report), args.out)
    return 0 if all(c["status"] == "PASS" for c in report["checks"]) else 1


def cmd_export(args) -> int:
    path = getattr(args, "in")
    text = read(path)
    lat = canonical_lattice(text, path, args.max_ideals)
    if lat is None:
        obj = parse(text, path)
        if isinstance(obj, dict) and "poset" in obj:  # lattice file
            lat = lattice_from_obj(obj, args.max_ideals)
            del obj  # checked against lat: free it before rendering
    elif args.format == "json":
        _write_or_print(text, args.out)  # the checked file is its own export
        return 0
    del text
    if lat is not None:
        if args.format == "json":
            text = lattice_text(lat)
        elif args.format == "dot":
            text = poset_to_dot(lat)
        else:
            text = (f"lattice with {len(lat)} elements, {len(lat.covers)} covers, "
                    f"over a poset with {len(lat.base)} vertices\n")
    else:
        poset = poset_from_obj(obj)
        if args.format == "json":
            text = dumps(poset_to_obj(poset))
        elif args.format == "dot":
            text = poset_to_dot(poset)
        else:
            base = poset.base if isinstance(poset, GridPoset) else poset
            kind = "edge-colored" if isinstance(base, EdgeColoredPoset) else "vertex-colored"
            ncov = len(base.covers)
            text = f"{kind} poset with {len(base)} vertices, {ncov} covers\n"
    _write_or_print(text, args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranktwo",
        description="Rank-two semistandard posets, lattices, characters, and tableaux.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, algebra=False, weight=False, order=False, max_ideals=False):
        if algebra:
            p.add_argument("--algebra", type=_algebra, required=True,
                           help="one of a1a1, a2, c2, g2")
        if weight:
            p.add_argument("--weight", type=_parse_weight, required=True,
                           metavar="A,B")
        if order:
            p.add_argument("--order", choices=("ba", "ab"), default="ba",
                           help="piece order: ba (default) or ab")
        if max_ideals:
            p.add_argument("--max-ideals", type=_positive_int, default=DEFAULT_MAX_IDEALS)

    p = sub.add_parser("build", help="write a semistandard poset as JSON")
    add_common(p, algebra=True, weight=True, order=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("enumerate", help="enumerate the lattice of order ideals")
    p.add_argument("--in", required=True)
    p.add_argument("--out", default=None)
    add_common(p, max_ideals=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("character", help="print the weight generating function")
    p.add_argument("--in", required=True)
    p.add_argument("--verify", action="store_true",
                   help="check the alternating-sum identity")
    p.add_argument("--algebra", type=_algebra, default=None)
    p.add_argument("--weight", type=_parse_weight, default=None, metavar="A,B")
    add_common(p, max_ideals=True)
    p.set_defaults(fn=cmd_character)

    p = sub.add_parser("rgf", help="print the closed rank generating function")
    add_common(p, algebra=True, weight=True, order=True, max_ideals=True)
    p.add_argument("--check-product", action="store_true",
                   help="compare against the enumerated lattice")
    p.set_defaults(fn=cmd_rgf)

    p = sub.add_parser("tableaux", help="stream the admissible tableaux")
    add_common(p, algebra=True, weight=True)
    p.add_argument("--littelmann", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_tableaux)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--seed-range", type=_parse_weight, default=(3, 3), metavar="A,B",
                   help="weight bounds per algebra (default 3,3)")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--structure", default=None, metavar="FIXTURE_OR_FILE",
                      help="only check the structure condition of one poset")
    only.add_argument("--bijection", action="store_true",
                      help="only run the tableau round-trip and weight suites")
    p.add_argument("--out", default=None, help="write report.json here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export", help="re-serialize a poset or lattice file")
    p.add_argument("--in", required=True)
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument("--out", default=None)
    add_common(p, max_ideals=True)
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TooManyIdeals as exc:  # the input is fine, only too large to check
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
