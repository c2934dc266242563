"""A lattice's projection onto the pieces of a decomposition, as byte
columns, and the piece statistics summed along it, by byte translation.

An order ideal meets each run of the vertex order (a chain of covers
contiguous in it) in a bottom segment, so it is fixed by its height in
each run: `project` makes one height column per run by one add per element
along the first lower covers.  A piece of a decomposition whose prefix
unions are ideals meets a run in one segment, from height s to s + len, so
an ideal's part there is its bottom clamp(h - s, 0, len) vertices.  Per
piece, each run's column is translated through a table of that clamp times
the segment's place value, the results are added as exact integers into a
key below the product of len + 1, and the keys are translated once more
into the piece lattice's element indices.  `lattice.weight_via_decomposition`
and `lattice.piece_rank_stats` read their sums from the `Projection`: each
piece lattice keeps its planes, per statistic one table per byte of its
values, and each piece's column is translated through them into the fields
of one exact integer per piece, all six statistics at once.  The code is a
module of its own, imported when a lattice is first projected: a process
that projects nothing does not compile it, and one that imports `ranktwo`
from source peaks while compiling its largest module, lattice.py.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from functools import cached_property
from itertools import count, repeat
from operator import add, and_, rshift, sub


def _code(size: int) -> str:
    """The array code of an entry of 1, 2, 4 or 8 bytes."""
    return "BHIQ"[size.bit_length() - 1]


def _width(top: int) -> int:
    """The fewest of 1, 2, 4 or 8 bytes that hold every value 0..top."""
    return 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4 if top < 1 << 32 else 8


def _through(column: Sequence[int], table: Sequence[int], size: int) -> bytes | array:
    """Each entry of `column` read through `table`: bytes, or an array of
    `size`-byte entries; a byte column into bytes is one translate."""
    if size > 1:
        return array(_code(size), map(table.__getitem__, column))
    if isinstance(column, bytes):
        return column.translate(bytes(table).ljust(256, b"\0"))
    return bytes(map(table.__getitem__, column))


def project(lattice, runs: list[list[int]], pieces) -> Projection:
    """Per piece lattice, it and the column of each element's index in it,
    bytes unless the piece lattice has more than 256 elements.  `runs` are
    the runs of the lattice's vertex order, each as its bits bottom up; a
    piece that meets a run in two segments raises."""
    order, n = sys.byteorder, len(lattice)
    w = _width(max(map(len, runs), default=0))  # a height's bytes
    per, code = 8 // w, _code(w)  # heights in a word
    place = {lattice.vertex_order[b]: (c, h)  # vertex -> its run, its height there from 0
             for c, run in enumerate(runs) for h, b in enumerate(run)}
    heights = []  # per run, each element's height in it
    for first in range(0, len(runs), per):  # `per` runs at a time, one word an element
        unit = [0] * len(lattice.vertex_order)
        for c in range(first, min(first + per, len(runs))):
            for b in runs[c]:
                unit[b] = 1 << 8 * w * (c - first)
        words = array("Q", lattice.carry(unit)).tobytes()
        view = memoryview(words).cast(code)
        for c in range(first, min(first + per, len(runs))):
            at = c - first if order == "little" else first + per - 1 - c
            heights.append(words[at::per] if w == 1 else view[at::per])
    out = Projection()
    for piece in pieces:
        segments = {}  # run -> the piece's lowest height in it, its vertex count there
        for c, h in sorted(map(place.__getitem__, piece.vertex_order)):
            lo, k = segments.get(c, (h, 0))
            if h != lo + k:
                raise ValueError("a piece meets a run of the vertex order in two segments")
            segments[c] = lo, k + 1
        radix, keys = {}, 1  # per run, its segment's place value in a key; the keys
        for c, (_, k) in segments.items():
            radix[c], keys = keys, keys * (k + 1)
        size, key = _width(keys - 1), 0
        for c, (lo, k) in segments.items():  # per height: 0, the segment's, its top
            r = radix[c]
            clamp = [0] * lo + list(range(0, (k + 1) * r, r)) + [k * r] * (len(runs[c]) - lo - k)
            key += int.from_bytes(_through(heights[c], clamp, size), order)
        key = key.to_bytes(n * size, order)
        if size > 1:
            key = array(_code(size), key)
        image = tuple(radix[place[v][0]] for v in piece.vertex_order)
        out.append((piece, _through(key, _key_table(piece, image), _width(len(piece) - 1))))
    return out


def _key_table(piece, image: tuple[int, ...]) -> bytes | dict[int, int]:
    """Key -> piece element, each element's key made by the same adds over
    the piece's own order, bit b adding image[b]: a translate table while the
    keys fit a byte.  Kept on the piece lattice by `image`, and shared with
    its copies (`IdealLattice.shifted`)."""
    tables = vars(piece).setdefault("_keys", {})
    index = tables.get(image)
    if index is None:
        own = piece.carry(image)
        index = tables[image] = (bytes.maketrans(bytes(own), bytes(range(len(own))))
                                 if own[-1] < 256 else dict(zip(own, count())))
    return index


def planes(piece) -> tuple[list[list[bytes]], list[int]]:
    """A piece lattice's six statistics as translate tables, and each one's
    largest value: rho and length of alpha, of beta, then m_a and m_b raised
    by the piece's vertex count, each as one plane per byte of its values,
    plane k holding byte k of every element's.  They are kept in the piece
    lattice with the component bounds and weights they are read from, and
    made again once either is replaced.  A negative value raises, so no sum
    borrows."""
    kept = vars(piece).get("_planes")
    if kept is None or kept[0] is not piece._component_bounds or kept[1] is not piece.weights:
        kept = vars(piece)["_planes"] = piece._component_bounds, piece.weights, _plane_set(piece)
    return kept[2]


def _plane_set(piece) -> tuple[list[list[bytes]], list[int]]:
    sizes = list(piece._per_size(count()))
    stats = [list(map(sub, sizes, lo)) if rho else list(map(sub, hi, lo))
             for lo, hi in piece._component_bounds for rho in (1, 0)]
    stats += [piece.weights.alpha, piece.weights.beta]  # as kept, raised by the vertex count
    if min(map(min, stats)) < 0:
        raise OverflowError("a piece statistic lies below its field")
    tops = list(map(max, stats))
    return [[bytes(map(and_, map(rshift, stat, repeat(8 * k)), repeat(255)))
             for k in range(max(1, (top.bit_length() + 7) // 8))]
            for stat, top in zip(stats, tops)], tops


class Projection(list):
    """`projection_columns` of a lattice: per piece, its lattice and the
    column of each element's index in it.  Read-only: its piece sums are
    packed on first read and kept for the next reader."""

    @cached_property
    def packed(self) -> tuple[list[memoryview], int]:
        """Per element, six statistics summed over its intersections with
        the pieces: rho and length of alpha, of beta, then m_a and m_b
        raised by the piece's vertex count; as a view of each, and n, the
        pieces' vertex count.  Every field has the fewest of 1, 2, 4 or 8
        bytes that hold 2n, the six side by side in one exact integer.  A
        piece translates its column through each of its planes (`planes`),
        puts byte k of field f at f * size + k of each element's 6 * size
        bytes, and is added as one integer, so each sum adds in its own
        field.  A negative entry, or the planes' largest entries summing
        past 2n, raises, so nothing borrows or carries."""
        n = sum(len(piece.vertex_order) for piece, _ in self)
        size, bounds = _width(2 * n), [0] * 6
        for piece, _ in self:
            bounds = list(map(add, bounds, planes(piece)[1]))
        if max(bounds, default=0) > min(2 * n, (1 << 8 * size) - 1):  # past 2n, or a field
            raise OverflowError("the piece sums do not fit their fields")
        order, stride = sys.byteorder, 6 * size
        elements, total = len(self[0][1]) if self else 0, 0
        for piece, column in self:
            packed = bytearray(stride * elements)
            for f, field in enumerate(planes(piece)[0]):
                for k, plane in enumerate(field):
                    at = f * size + (k if order == "little" else size - 1 - k)
                    packed[at::stride] = _through(column, plane, 1)
            total += int.from_bytes(packed, order)
        view = memoryview(total.to_bytes(stride * elements, order)).cast(_code(size))
        return [view[f::6] for f in range(6)], n
