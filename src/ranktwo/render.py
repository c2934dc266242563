"""The canonical text of a lattice file, rendered from the lattice's columns
for the readers, `serialize.canonical_lattice` and
`serialize.lattice_from_obj`, to compare a file with.

Each row field is rendered in blocks of `_BLOCK` rows, each block's rows
joined by "],[", and no row is made as a list or tuple:
  elements  every element's mask is carried once more along the first lower
            covers, bit p + 8 for the p-th vertex id in numeric order; each
            mask is split into bytes by `int.to_bytes`, byte 0 (always 0)
            read as the "],[" before the row and byte k + 1 through a table
            of the ",id" texts of ids 8k..8k+7, so a row is its ids
            ascending after one comma too many, which a replace drops;
  covers    per element index, its text with a comma for the lower end
            and, picked by the color byte, its text with the color;
  weights   per raw value 0..2n of the raised columns, its weight's text,
            and with a comma for m_a.
The masks are transient: carried for one read, not kept on the lattice.

The writer, `serialize.lattice_text`, renders the same bytes from the rows
of `lattice_to_obj`.  This module is imported on the first read, so a
process that reads no lattice file does not compile it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import cycle, repeat
from operator import add, getitem

from .algebras import ALPHA, BETA
from .lattice import IdealLattice
from .serialize import _BLOCK, _json, poset_to_obj

_SEP = "],["  # between two rows


def _rows(blocks: Iterator[str]) -> Iterator[str]:
    """A row field's text from its blocks' texts."""
    sep = "[["
    for block in blocks:
        yield sep + block
        sep = _SEP
    yield "[]" if sep == "[[" else "]]"


def _id_tables(ids: list[int]) -> list[list[str]]:
    """Per byte of a carried mask, its value's text: the row separator for
    byte 0, and for byte k + 1 the ",id" texts of its set bits, ids 8k..8k+7
    ascending."""
    tables = [[_SEP]]
    for k in range(0, len(ids), 8):
        table = [""]
        for v in ids[k:k + 8]:  # bit t: the values 2**t.. add id t to those below
            table += [text + f",{v}" for text in table]
        tables.append(table)
    return tables


def _element_blocks(lat: IdealLattice) -> Iterator[str]:
    ids = sorted(lat.vertex_order)
    place = {v: p for p, v in enumerate(ids)}
    masks = lat.carry([1 << (8 + place[v]) for v in lat.vertex_order])
    tables = _id_tables(ids)
    size = len(tables)  # bytes per mask
    for s in range(0, len(masks), _BLOCK):
        raw = b"".join(map(int.to_bytes, masks[s:s + _BLOCK], repeat(size), repeat("little")))
        # every row after "],[": drop the first one, which _rows writes
        yield "".join(map(getitem, cycle(tables), raw)).replace("[,", "[")[len(_SEP):]


def _cover_blocks(lat: IdealLattice) -> Iterator[str]:
    lower = list(map(add, map(str, range(len(lat))), repeat(",")))
    upper = [list(map(add, lower, repeat(f'"{c.value}"'))) for c in (ALPHA, BETA)]
    cov = lat.covers
    for s in range(0, len(cov), _BLOCK):
        cut = slice(s, s + _BLOCK)
        yield _SEP.join(map(add, map(lower.__getitem__, cov.lower[cut]),
                            map(getitem, map(upper.__getitem__, cov.beta[cut]), cov.upper[cut])))


def _weight_blocks(lat: IdealLattice) -> Iterator[str]:
    w = lat.weights  # raised by n: raw values 0..2n are the weights -n..n
    values = [str(r - w.offset) for r in range(2 * w.offset + 1)]
    firsts = [f"{m}," for m in values]
    for s in range(0, len(w), _BLOCK):
        cut = slice(s, s + _BLOCK)
        yield _SEP.join(map(add, map(firsts.__getitem__, w.alpha[cut]),
                            map(values.__getitem__, w.beta[cut])))


_FIELDS = {"elements": _element_blocks, "covers": _cover_blocks, "weights": _weight_blocks}


def field_text(lat: IdealLattice, key: str) -> Iterator[str]:
    """The canonical text of a row field in pieces of _BLOCK rows."""
    return _rows(_FIELDS[key](lat))


def file_text(lat: IdealLattice) -> Iterator[str]:
    """The canonical text of lat's lattice file in pieces, keys sorted, each
    field rendered only when its text is reached."""
    yield '{"covers":'
    yield from field_text(lat, "covers")
    yield ',"elements":'
    yield from field_text(lat, "elements")
    yield f',"poset":{_json(poset_to_obj(lat.poset))},"weights":'
    yield from field_text(lat, "weights")
    yield "}\n"


def equals(text: str, pieces: Iterator[str]) -> bool:
    """Whether text is the concatenation of pieces, compared in place."""
    at = 0
    for piece in pieces:
        if not text.startswith(piece, at):
            return False
        at += len(piece)
    return at == len(text)
