"""Piece statistics along a decomposition, summed as packed integers.

`lattice.projection_columns` gives a `Projection`: per piece of a
decomposition, the piece lattice and the column of each element's index in
it.  `lattice.weight_via_decomposition` and `lattice.piece_rank_stats` read
their sums from it, all six summed once as the fields of exact packed
integers, one pass per piece.  The class is a module of its own because a
process that imports `ranktwo` from source peaks while compiling its largest
module, lattice.py, and this code there raised that peak.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property
from itertools import count, repeat
from operator import add, lshift, sub


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
        bytes that hold 2n, packed in 8-byte words, all six in one while
        2n < 256.  A label's pieces share one table of packed words; a piece
        reads its column's words into an array("Q") and adds them as one
        exact integer, so each sum adds in its own field.  A negative entry,
        or the tables' largest entries summing past 2n, raises, so nothing
        borrows or carries."""
        n = sum(len(piece.vertex_order) for piece, _ in self)
        size = next(b for b in (1, 2, 4, 8) if not (2 * n) >> 8 * b)
        per, order = 8 // size, sys.byteorder  # fields a word
        starts = range(0, 6, per)  # each word's first field
        tables, bounds, totals = {}, [0] * 6, [0] * len(starts)
        for piece, column in self:
            key = id(piece._component_bounds), id(piece.weights)  # shared by a label's pieces
            if key not in tables:
                m, sizes = len(piece.vertex_order), list(piece._per_size(count()))
                stats = [list(map(sub, sizes, lo)) if rho else list(map(sub, hi, lo))
                         for lo, hi in piece._component_bounds for rho in (1, 0)]
                stats += [[x + m for x in w] for w in (piece.weights.alpha, piece.weights.beta)]
                if min(map(min, stats)) < 0:
                    raise OverflowError("a piece statistic lies below its field")
                placed = [map(lshift, c, repeat(8 * size * (f % per))) for f, c in enumerate(stats)]
                words = [list(map(sum, zip(*placed[start:start + per]))) for start in starts]
                tables[key] = words, list(map(max, stats))
            bounds = list(map(add, bounds, tables[key][1]))
            totals = [total + int.from_bytes(array("Q", map(word.__getitem__, column)), order)
                      for total, word in zip(totals, tables[key][0])]
        if max(bounds, default=0) > min(2 * n, (1 << 8 * size) - 1):  # past 2n, or a field
            raise OverflowError("the piece sums do not fit their fields")
        elements, code = len(self[0][1]) if self else 0, "BHIQ"[size.bit_length() - 1]
        items = [memoryview(total.to_bytes(8 * elements, order)).cast(code) for total in totals]
        at = [j if order == "little" else per - 1 - j for j in range(per)]  # in its word
        return [items[f // per][at[f % per]::per] for f in range(6)], n

    def fields(self, length: int, wanted: tuple[int, int]) -> list[list[int]]:
        """Fresh columns of two of the packed sums, `length` entries each,
        read through a table of their values, so equal values share one int."""
        if not self:  # no piece: every sum is 0
            return [[0] * length for _ in wanted]
        fields, n = self.packed
        values = [list(range(2 * n + 1)), list(range(-n, n + 1))]  # per raw sum: rho or length, m
        return [list(map(values[f >= 4].__getitem__, fields[f])) for f in wanted]
