"""Canonical JSON and DOT serialization for posets and ideal lattices.

JSON layouts:
  poset    {"kind": "vertex"|"edge", "vertices": [{"id", "color"}], "covers": [...]}
           (vertex posets may add "chain": [{"id", "chain"}] for grid posets)
  lattice  {"poset": ..., "elements": [[vertex ids]], "covers": [[i, j, color]],
            "weights": [[m_a, m_b]]}

Serialization is canonical: keys sorted, fixed separators, lists in a
deterministic order, so parse -> re-serialize is byte-identical.  A lattice
file is the canonical text of the lattice of its poset, so reading one
compares bytes: its poset is read at its canonical place, the lattice is
enumerated once, and the text is compared in place with the canonical text
that `render` makes from the lattice's columns.  Only a file that differs is
parsed whole and checked field by field.  Writing renders the rows of
`lattice_to_obj`.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from itertools import chain, count, islice, repeat

from .algebras import ALPHA, BETA, Color
from .grid import GridPoset
from .lattice import DEFAULT_MAX_IDEALS, IdealLattice, TooManyIdeals, order_ideals
from .poset import EdgeColoredPoset, VertexColoredPoset, find_rank_function
TYPE_CHECKING = False  # as typing's, without importing typing
if TYPE_CHECKING:
    from typing import Any


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
    rows: list[list[int]] = [[]]  # the bottom, the empty ideal
    for i, b in islice(zip(*lat.first_lower), 1, None):
        row = rows[i] + [order[b]]
        row.sort()
        rows.append(row)
    return rows


def _cover_rows(lat: IdealLattice) -> list[list]:
    """[i, j, color] per cover, in the stored (i, j) order, with one int
    object per element index: reading a column makes an int per entry, so
    the indices are read through one list of the elements."""
    names, ids, cov = (ALPHA.value, BETA.value), list(range(len(lat))), lat.covers
    return [[i, j, names[b]] for i, j, b in
            zip(cov.per_cover(ids), map(ids.__getitem__, cov.upper), cov.beta)]


def _weight_rows(lat: IdealLattice) -> list[list[int]]:
    return list(map(list, lat.weights))


_RENDER = {"poset": lambda lat: poset_to_obj(lat.poset), "elements": _element_rows,
           "covers": _cover_rows, "weights": _weight_rows}


def lattice_to_obj(lat: IdealLattice) -> dict[str, Any]:
    return {key: render(lat) for key, render in _RENDER.items()}


_BLOCK = 4096  # rows per piece: a piece is made, compared or written, then freed


def _field_text(lat: IdealLattice, key: str, rows: list[list]) -> Iterator[str]:
    """The canonical text of a row field in pieces of _BLOCK rows, the rows'
    ints read through string tables made once per lattice: vertex ids,
    element indices and weight values."""
    if key == "elements":
        ids = {v: str(v) for v in lat.vertex_order}
        texts = (",".join(map(ids.__getitem__, row)) for row in rows)
    elif key == "covers":
        index = list(map(str, range(len(lat))))
        color = {c.value: f'"{c.value}"' for c in (ALPHA, BETA)}
        texts = (f"{index[i]},{index[j]},{color[c]}" for i, j, c in rows)
    else:
        n = len(lat.vertex_order)  # every weight coordinate lies in -n..n
        values = {m: str(m) for m in range(-n, n + 1)}
        texts = (f"{values[a]},{values[b]}" for a, b in rows)
    sep = "[["
    while block := list(islice(texts, _BLOCK)):
        yield sep + "],[".join(block)
        sep = "],["
    yield "[]" if sep == "[[" else "]]"


def _pieces(lat: IdealLattice, field: Callable[[str], Any]) -> Iterator[str]:
    """The canonical text of lat's lattice file in pieces, keys sorted;
    field(key) gives the poset's object or a row field's rows."""
    sep = "{"
    for key in sorted(_RENDER):
        yield f'{sep}"{key}":'
        sep = ","
        if key == "poset":
            yield _json(field(key))
        else:
            yield from _field_text(lat, key, field(key))
    yield "}\n"


def lattice_text(lat: IdealLattice) -> str:
    """dumps(lattice_to_obj(lat)), byte for byte, with the rows' ints read
    through string tables; each field's rows are freed once written."""
    return "".join(_pieces(lat, lattice_to_obj(lat).pop))


# in a canonical lattice file, after covers and elements with no object in
# them, and before weights, after which no string comes
_POSET_KEY, _WEIGHTS_KEY = ',"poset":', ',"weights":'
_DECODER = json.JSONDecoder()


def canonical_lattice(text: str, path: str,
                      max_ideals: int = DEFAULT_MAX_IDEALS) -> IdealLattice | None:
    """The lattice of a lattice file's text when the text is that lattice's
    canonical file, else None.  The poset is read at its canonical place and
    the lattice enumerated once, refusing beyond `max_ideals`; the poset is
    trusted only once every byte of the text equals the canonical pieces,
    each rendered one field at a time.  A poset key elsewhere, nested or
    repeated, or more ideals than "[" before it, goes to the whole-file path."""
    at = text.find(_POSET_KEY)
    if at < 0 or text.find("{", 1, at) >= 0:
        return None
    try:
        obj, end = _DECODER.raw_decode(text, at + len(_POSET_KEY))
        if not text.startswith(_WEIGHTS_KEY, end) or text.find('"', end + len(_WEIGHTS_KEY)) >= 0:
            return None
        poset = poset_from_obj(obj)
    except RecursionError:  # a malformed file, like any other
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # not a poset at this place: the whole file decides
        return None
    from .render import equals, file_text  # deferred: only a read renders this text

    rows = text.count("[", 0, at)  # a canonical file opens one per ideal, and more
    try:
        lat = order_ideals(poset, min(max_ideals, rows))
    except TooManyIdeals:
        if rows < max_ideals:
            return None
        raise
    return lat if equals(text, file_text(lat)) else None


def lattice_from_obj(obj: Any, max_ideals: int = DEFAULT_MAX_IDEALS) -> IdealLattice:
    """Rebuild the lattice from its poset, refusing beyond `max_ideals`, and
    check the file against it one field at a time: elements, covers with
    their colors, then weights must each re-serialize to the canonical text,
    which 1.0 or true for 1 does not."""
    from .render import equals, field_text  # deferred: only a read renders this text

    lat = order_ideals(poset_from_obj(_field(obj, "poset", dict, "lattice file")), max_ideals)
    for key in ("elements", "covers", "weights"):
        text = _json(_field(obj, key, list, "lattice file"))
        if not equals(text, field_text(lat, key)):
            raise ValueError(f"lattice file {key} do not match its poset")
    return lat


def _json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def dumps(obj: dict[str, Any]) -> str:
    return _json(obj) + "\n"


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def parse(text: str, path: str) -> Any:
    try:
        return json.loads(text)
    except RecursionError:  # a malformed file, like any other
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load(path: str) -> Any:
    return parse(read(path), path)


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
    if isinstance(p, IdealLattice):  # the size blocks, in element order
        ranks = enumerate(chain.from_iterable(map(repeat, count(), p.rank_sizes)))
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
