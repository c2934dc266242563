"""Spans and counters recorded from outside the library.

`install` wraps public functions of `ranktwo` and rebinds every module
attribute that refers to them, so calls through names that other modules
imported (`from .lattice import order_ideals`) are traced as well.  Spans are
kept in flat arrays with the index of their parent span and written out at
the end; `aggregate` turns them into calls, total and self milliseconds per
span name.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import cached_property

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self.counts: Counter = Counter()

    def _append(self, name: str, start: float, end: float) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, e.g. set-up before the tracer existed."""
        self._append(name, start, end)

    def open(self, name: str) -> int:
        sid = self._append(name, time.monotonic(), 0.0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.monotonic()
        self._stack.pop()

    def current(self) -> str | None:
        sid = self._stack[-1]
        return None if sid == NO_PARENT else self.names[self.name[sid]]

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(result, *args)
            return result
        return traced

    def count(self, name: str, fn, on_call=None):
        """Count calls of fn without a span (for very frequent calls)."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            if on_call is not None:
                on_call()
            return fn(*args, **kwargs)
        return counted

    def dump(self) -> dict:
        return {"names": self.names,
                "name": self.name.tobytes().hex(),
                "parent": self.parent.tobytes().hex(),
                "start": self.start.tobytes().hex(),
                "end": self.end.tobytes().hex(),
                "counts": dict(self.counts)}


def load_spans(obj: dict) -> list[tuple[str, int, float, float]]:
    """(name, parent index, start, end) per span, in opening order."""
    cols = {}
    for key, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
        arr = array(code)
        arr.frombytes(bytes.fromhex(obj[key]))
        cols[key] = arr
    names = obj["names"]
    return [(names[n], p, s, e) for n, p, s, e in
            zip(cols["name"], cols["parent"], cols["start"], cols["end"])]


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ms and self ms (total minus child spans)."""
    child_s = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent != NO_PARENT:
            child_s[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for k, (name, _, start, end) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["ms"] += (end - start) * 1000
        row["self_ms"] += (end - start - child_s[k]) * 1000
    return out


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap_cached(tracer: Tracer, cls, attr: str, name: str, on_result=None) -> None:
    prop = cls.__dict__[attr]
    wrapped = cached_property(tracer.wrap(name, prop.func, on_result))
    wrapped.__set_name__(cls, attr)
    setattr(cls, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ranktwo module."""
    import ranktwo
    import ranktwo.cli
    import ranktwo.serialize
    import ranktwo.tableaux
    import ranktwo.verify
    from ranktwo import build, grid, lattice, poset, serialize, tableaux, weyl
    from ranktwo.lattice import IdealLattice
    from ranktwo.poset import EdgeColoredPoset
    from ranktwo.verify import Verifier

    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "ranktwo" or k.startswith("ranktwo."))]
    counts = tracer.counts

    def on_lattice(lat, *_):
        counts["lattice.ideals"] += len(lat)

    def on_covers(covers, *_):
        counts["lattice.covers.count"] += len(covers)

    def on_tableau_lattice(tl, *_):
        counts["tableaux.decrement_covers"] += len(tl.edge_poset.covers)

    def on_dumps(text, *_):
        counts["serialize.bytes"] += len(text.encode())

    def on_load(_obj, path, *_):
        counts["serialize.bytes"] += os.path.getsize(path)

    def on_is_semistandard():
        if tracer.current() == "tableaux.tableau_lattice":
            counts["tableaux.decrement_candidates"] += 1

    functions = [
        ("build.semistandard_poset", build.semistandard_poset, None),
        ("lattice.order_ideals", lattice.order_ideals, on_lattice),
        ("lattice.weight_via_decomposition", lattice.weight_via_decomposition, None),
        ("lattice.piece_rank_stats", lattice.piece_rank_stats, None),
        ("grid.decompose", grid.decompose, None),
        ("poset.edge_color_iso", poset.edge_color_isomorphism, None),
        ("poset.vertex_color_iso", poset.vertex_color_isomorphism, None),
        ("weyl.character", weyl.character_from_lattice, None),
        ("weyl.character", weyl.verify_weyl_character, None),
        ("weyl.rgf", weyl.rgf_from_lattice, None),
        ("weyl.rgf", weyl.rgf_product, None),
        ("tableaux.ideal_of_tableau", tableaux.ideal_of_tableau, None),
        ("tableaux.tableau_of_ideal", tableaux.tableau_of_ideal, None),
        ("tableaux.tableau_lattice", tableaux.tableau_lattice, on_tableau_lattice),
        ("serialize.lattice_to_obj", serialize.lattice_to_obj, None),
        ("serialize.lattice_from_obj", serialize.lattice_from_obj, None),
        ("cli.enumerate", ranktwo.cli.cmd_enumerate, None),
        ("cli.character", ranktwo.cli.cmd_character, None),
        ("cli.export", ranktwo.cli.cmd_export, None),
    ]
    for name, fn, hook in functions:
        _rebind(modules, fn, tracer.wrap(name, fn, hook))
    _rebind(modules, tableaux.is_semistandard,
            tracer.count("tableaux.is_semistandard.calls", tableaux.is_semistandard,
                         on_is_semistandard))
    _rebind(modules, serialize.dumps, _with_result(serialize.dumps, on_dumps))
    _rebind(modules, serialize.load, _with_result(serialize.load, on_load))

    _wrap_cached(tracer, IdealLattice, "covers", "lattice.covers", on_covers)
    _wrap_cached(tracer, IdealLattice, "edge_poset", "lattice.edge_poset")
    _wrap_cached(tracer, IdealLattice, "weights", "lattice.weights")
    IdealLattice.rank_stats = tracer.wrap("lattice.rank_stats", IdealLattice.rank_stats)
    EdgeColoredPoset.__post_init__ = tracer.wrap("poset.edge_colored_init",
                                                 EdgeColoredPoset.__post_init__)

    run_check = Verifier.run_check

    def traced_run_check(self, name, params, fn):
        with tracer.span(f"verify.{name}"):
            return run_check(self, name, params, fn)
    Verifier.run_check = traced_run_check

    seen: dict[int, object] = {}
    verifier_lattice = Verifier.lattice

    def counted_lattice(self, *args):
        lat = verifier_lattice(self, *args)
        counts["verify.lattice_calls"] += 1
        if id(lat) in seen:
            counts["verify.lattice_hits"] += 1
        seen[id(lat)] = lat  # keeps ids unique for the life of the run
        return lat
    Verifier.lattice = counted_lattice


def _with_result(fn, on_result):
    @functools.wraps(fn)
    def observed(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result, *args)
        return result
    return observed
