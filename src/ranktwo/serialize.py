"""Canonical JSON and DOT serialization for posets and ideal lattices.

JSON layouts:
  poset    {"kind": "vertex"|"edge", "vertices": [{"id", "color"}], "covers": [...]}
           (vertex posets may add "chain": [{"id", "chain"}] for grid posets)
  lattice  {"poset": ..., "elements": [[vertex ids]], "covers": [[i, j, color]],
            "weights": [[m_a, m_b]]}

Serialization is canonical: keys sorted, fixed separators, lists in a
deterministic order, so parse -> re-serialize is byte-identical.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

from .algebras import ALPHA, BETA, Color
from .grid import GridPoset
from .lattice import DEFAULT_MAX_IDEALS, IdealLattice, order_ideals
from .poset import EdgeColoredPoset, VertexColoredPoset, find_rank_function


def poset_to_obj(p: VertexColoredPoset | EdgeColoredPoset | GridPoset) -> dict[str, Any]:
    if isinstance(p, GridPoset):
        obj = poset_to_obj(p.base)
        obj["chain"] = [{"chain": c, "id": v} for v, c in sorted(p.chains)]
        return obj
    if isinstance(p, VertexColoredPoset):
        return {
            "kind": "vertex",
            "vertices": [{"color": c.value, "id": v} for v, c in p.vertices],
            "covers": [[u, v] for u, v in sorted(p.covers)],
        }
    return {
        "kind": "edge",
        "vertices": [{"id": v} for v in p.elements],
        "covers": [[u, v, c.value] for u, v, c in sorted(p.covers, key=lambda t: (t[0], t[1]))],
    }


def _field(obj: Any, key: str, kind: type, where: str) -> Any:
    """obj[key], checked to be a JSON value of type `kind` (never a bool)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} must be of type {kind.__name__}")
    return value


def _cover(rec: Any, colored: bool) -> tuple:
    """(u, v) or, for an edge-colored poset, (u, v, color) from [u, v(, c)]."""
    size, shape = (3, "[u, v, color]") if colored else (2, "[u, v]")
    if not (isinstance(rec, list) and len(rec) == size
            and all(type(x) is int for x in rec[:2])):
        raise ValueError(f"cover {rec!r} must be {shape} with integer u, v")
    return (rec[0], rec[1], Color(rec[2])) if colored else (rec[0], rec[1])


def _by_id(records: list, key: str, kind: type, where: str) -> dict[int, Any]:
    """{id: record[key]} over records, rejecting repeated ids."""
    out = {_field(rec, "id", int, where): _field(rec, key, kind, where) for rec in records}
    if len(out) != len(records):
        raise ValueError(f"{where}: repeated id")
    return out


def poset_from_obj(obj: Any) -> VertexColoredPoset | EdgeColoredPoset | GridPoset:
    """Parse a poset file; any departure from the layout is a ValueError."""
    kind = _field(obj, "kind", str, "poset")
    vertices = _field(obj, "vertices", list, "poset")
    records = _field(obj, "covers", list, "poset")
    if kind == "vertex":
        colors = {v: Color(c) for v, c in _by_id(vertices, "color", str, "vertex").items()}
        base = VertexColoredPoset.build(colors, [_cover(rec, False) for rec in records])
        if "chain" in obj:
            chain = _by_id(_field(obj, "chain", list, "poset"), "chain", int, "chain entry")
            return GridPoset(base, tuple(sorted(chain.items())))
        return base
    if kind == "edge":
        elements = tuple(_field(rec, "id", int, "vertex") for rec in vertices)
        return EdgeColoredPoset(elements, frozenset(_cover(rec, True) for rec in records))
    raise ValueError(f"unknown poset kind {kind!r}")


def _element_rows(lat: IdealLattice) -> list[list[int]]:
    """Each element's vertex ids, sorted: an element's row is its first
    lower cover's, whose row is already made, with the one vertex it adds
    inserted (by sorting a concatenation, which leaves no slack in the
    list)."""
    order = lat.vertex_order
    first, added = lat.first_lower
    rows: list[list[int]] = [[]]  # the bottom, the empty ideal
    for i, b in zip(first[1:], added[1:]):
        row = rows[i] + [order[b]]
        row.sort()
        rows.append(row)
    return rows


def _cover_rows(lat: IdealLattice) -> list[list]:
    """[i, j, color] per cover, in the stored (i, j) order, with one int
    object per element index."""
    names = (ALPHA.value, BETA.value)
    return [[i, j, names[b]] for i, j, b in lat.covers.shared(len(lat))]


def _weight_rows(lat: IdealLattice) -> list[list[int]]:
    return list(map(list, lat.weights))


# the rows of each lattice-file field, in the order a file is checked
_ROWS = {"elements": _element_rows, "covers": _cover_rows, "weights": _weight_rows}


def lattice_to_obj(lat: IdealLattice) -> dict[str, Any]:
    return {"poset": poset_to_obj(lat.poset),
            **{key: render(lat) for key, render in _ROWS.items()}}


def lattice_from_obj(obj: Any, max_ideals: int = DEFAULT_MAX_IDEALS) -> IdealLattice:
    """Rebuild the lattice from its poset, refusing beyond `max_ideals`, and
    check the file against it one field at a time: elements, covers with
    their colors, then weights must each equal the canonical rows."""
    lat = order_ideals(poset_from_obj(_field(obj, "poset", dict, "lattice file")), max_ideals)
    for key, render in _ROWS.items():
        rows = _field(obj, key, list, "lattice file")
        # == takes 1.0 and True for 1, so the items' types are checked too;
        # only after ==, which makes every row a list that chain can take
        if rows != render(lat) or not set(map(type, chain.from_iterable(rows))) <= {int, str}:
            raise ValueError(f"lattice file {key} do not match its poset")
    return lat


def dumps(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # a malformed file, like any other
            raise ValueError(f"{path}: JSON nested too deeply") from None


# --- DOT ---------------------------------------------------------------------

_DOT_COLOR = {"a": "firebrick", "b": "royalblue"}


def poset_to_dot(p: VertexColoredPoset | EdgeColoredPoset | GridPoset | IdealLattice) -> str:
    """Hasse diagram, drawn bottom to top, colors as labels.

    An ideal lattice is drawn from its own covers, ranked by ideal size.
    """
    if isinstance(p, GridPoset):
        p = p.base
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=circle];"]
    if isinstance(p, VertexColoredPoset):
        for v, c in p.vertices:
            lines.append(
                f'  "{v}" [label="{v}:{c.value}", color={_DOT_COLOR[c.value]}];')
        for u, v in sorted(p.covers):
            lines.append(f'  "{u}" -> "{v}";')
    else:
        for v in range(len(p)) if isinstance(p, IdealLattice) else p.elements:
            lines.append(f'  "{v}";')
        # a lattice's covers are stored in (i, j) order already
        covers = p.covers if isinstance(p, IdealLattice) else sorted(
            p.covers, key=lambda t: (t[0], t[1]))
        for u, v, c in covers:
            lines.append(
                f'  "{u}" -> "{v}" [label="{c.value}", color={_DOT_COLOR[c.value]}];')
    if isinstance(p, IdealLattice):
        ranks = enumerate(map(int.bit_count, p.elements))
    else:
        rank = find_rank_function(p)
        ranks = () if rank is None else rank.ranks
    by_rank: dict[int, list[int]] = {}
    for v, r in ranks:
        by_rank.setdefault(r, []).append(v)
    for r in sorted(by_rank):
        members = " ".join(f'"{v}"' for v in sorted(by_rank[r]))
        lines.append(f"  {{ rank=same; {members} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
