"""Run one benchmark workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload battery --seed 1 --seconds 20 --trace 0

Each iteration of a workload starts fresh processes (one per `ranktwo`
command for `file_roundtrip`), because every real invocation pays the cold
costs of module-level caches.  Iterations run back to back, one at a time
(a closed loop with one client), until `--seconds` have passed; set-up-only
processes run before each iteration.  All processes are pinned to one CPU
together with a probe that samples how fast that CPU runs (see
SpeedProbe); times are reported in seconds at the probe's reference speed,
and the measured times are on the detail line.  The children's string-hash
seed is derived from `--seed`, as real invocations each get a random one.

The last line of standard output is the result: with `--trace 0` the
end-to-end metrics of untraced iterations; with `--trace 1` the per-layer
metrics of traced iterations, each paired with an untraced one to measure
the overhead of tracing.  The line before it gives sample counts, the
measured times and host speeds, input hashes and any failed checks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import NO_PARENT, aggregate, load_spans
from workloads import (CRITERIA, STAGES, WORKLOADS, check_roundtrip, prepare,
                       roundtrip_commands)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = HERE / "child.py"
SETUP_RUNS = 4  # set-up-only processes before each iteration
RUN_LIMIT_S = 170  # every run ends within 180 s; a process still alive is killed
PROBE_INTERVAL_S = 0.2
PROBE_REFERENCE_S = 0.0021  # _probe_work's CPU time on an idle host (Python 3.11)

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "build.semistandard_poset.calls": "count",
    "build.semistandard_poset.ms": "ms",
    "lattice.order_ideals.calls": "count",
    "lattice.order_ideals.ms": "ms",
    "lattice.ideals": "count",
    "lattice.covers.ms": "ms",
    "lattice.covers.count": "count",
    "lattice.edge_poset.ms": "ms",
    "lattice.weights.self_ms": "ms",
    "lattice.bytes_per_ideal": "B",
    "lattice.weight_via_decomposition.calls": "count",
    "lattice.weight_via_decomposition.ms": "ms",
    "lattice.piece_rank_stats.calls": "count",
    "lattice.piece_rank_stats.ms": "ms",
    "lattice.rank_stats.calls": "count",
    "lattice.rank_stats.ms": "ms",
    "grid.decompose.calls": "count",
    "grid.decompose.ms": "ms",
    "poset.edge_color_iso.calls": "count",
    "poset.edge_color_iso.ms": "ms",
    "poset.vertex_color_iso.calls": "count",
    "poset.vertex_color_iso.ms": "ms",
    "poset.edge_colored_init.calls": "count",
    "poset.edge_colored_init.ms": "ms",
    "weyl.character.ms": "ms",
    "weyl.rgf.ms": "ms",
    "tableaux.ideal_of_tableau.calls": "count",
    "tableaux.ideal_of_tableau.ms": "ms",
    "tableaux.tableau_of_ideal.calls": "count",
    "tableaux.tableau_of_ideal.ms": "ms",
    "tableaux.tableau_lattice.ms": "ms",
    "tableaux.is_semistandard.calls": "count",
    "tableaux.decrement_yield": "ratio",
    **{f"verify.{name}.ms": "ms" for name in CRITERIA},
    "verify.lattice_cache_hit_ratio": "ratio",
    "serialize.lattice_to_obj.ms": "ms",
    "serialize.lattice_from_obj.self_ms": "ms",
    "serialize.bytes": "B",
    "cli.enumerate.ms": "ms",
    "cli.character.ms": "ms",
    "cli.export.ms": "ms",
    "cli.startup.ms": "ms",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_s": "s",
}
# per-layer metrics read from counters rather than from spans
COUNTERS = ("lattice.ideals", "lattice.covers.count",
            "tableaux.is_semistandard.calls", "serialize.bytes")


def _probe_work() -> int:
    """A fixed slice of interpreter work: integer arithmetic, dicts, sets."""
    d = {}
    for i in range(12_000):
        d[i] = (i * 7919) % 1009
    s = frozenset(d.values())
    return sum(k for k in d if d[k] in s)


class SpeedProbe:
    """How fast the workload's CPU runs, sampled while the workload runs.

    The host is shared, and the same work takes up to 1.8 times as long from
    one minute to the next, and noticeably longer from one second to the
    next.  A thread of this process, pinned with the workload's processes to
    one CPU, runs `_probe_work` twice every PROBE_INTERVAL_S, between the
    workload's time slices, and times the second run by its own CPU time.
    The first run refills the caches that the workload evicted, so the timed
    run reads the CPU's speed, not the memory footprint of the program under
    test.  `factor` is the median of the times in a window over
    PROBE_REFERENCE_S.  Times divided by it are seconds at the reference
    speed: host contention slows both the probe and the program, a slower
    program only the program.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            _probe_work()
            start = time.thread_time()
            _probe_work()
            self.samples.append((time.monotonic(), time.thread_time() - start))

    def factor(self, start: float, end: float) -> float:
        window = [dt for t, dt in self.samples if start <= t <= end]
        if not window:
            window = [dt for _, dt in self.samples] or [PROBE_REFERENCE_S]
        return statistics.median(window) / PROBE_REFERENCE_S


@dataclass
class Proc:
    code: int
    start: float
    end: float
    rss_kb: int
    cpu_s: float
    stdout: str
    stderr: str
    result: dict | None

    @property
    def setup_s(self) -> float | None:
        return None if self.result is None else self.result["setup_s"]


@dataclass
class Iteration:
    start: float
    wall_s: float
    procs: list[Proc]
    ops: list[tuple] = field(default_factory=list)
    speed: float = 1.0  # SpeedProbe.factor over the iteration

    @property
    def norm_s(self) -> float:
        """The iteration's wall time in seconds at the reference speed."""
        return self.wall_s / self.speed

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_kb for p in self.procs) / 1024


class Runner:
    def __init__(self, spec: dict, work: Path, deadline: float, hash_seed: int = 0):
        self.spec = spec
        self.work = work
        self.deadline = deadline
        # the string-hash seed sets the iteration order of sets, and with it
        # the path of the isomorphism searches
        self.env = {**os.environ, "PYTHONPATH": str(SRC),
                    "PYTHONHASHSEED": str(hash_seed % 2**32)}
        self._n = itertools.count()
        self.spec_path = work / "spec.json"
        self.spec_path.write_text(json.dumps(spec), encoding="utf-8")

    def spawn(self, mode: str, trace: bool, args=()) -> Proc:
        n = next(self._n)
        result = self.work / f"proc{n}.json"
        out, err = self.work / f"proc{n}.out", self.work / f"proc{n}.err"
        start = time.monotonic()
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(self.spec_path), str(result),
                 repr(start), mode, "1" if trace else "0", *args],
                stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage: the per-process figure
                # that RUSAGE_CHILDREN accumulates
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        loaded = None
        if result.exists():
            loaded = json.loads(result.read_text(encoding="utf-8"))
            result.unlink()
        return Proc(proc.returncode, start, end, usage.ru_maxrss,
                    usage.ru_utime + usage.ru_stime,
                    out.read_text(encoding="utf-8", errors="replace"),
                    err.read_text(encoding="utf-8", errors="replace"), loaded)

    def setup_run(self) -> Proc:
        proc = self.spawn("setup", False)
        if proc.code != 0 or proc.setup_s is None:
            raise SystemExit(f"benchmark: set-up failed (exit {proc.code}):\n"
                             f"{proc.stderr[-2000:]}")
        return proc

    def iterate(self, trace: bool) -> Iteration:
        if self.spec["workload"] == "file_roundtrip":
            return self._roundtrip(trace)
        start = time.monotonic()
        proc = self.spawn("run", trace)
        names = CRITERIA if self.spec["workload"] == "battery" else STAGES
        if proc.code == 0 and proc.result is not None:
            ops = [tuple(op) for op in proc.result["ops"]]
        else:
            why = f"process exit {proc.code}: {proc.stderr[-300:].strip()}"
            ops = [(name, False, why) for name in names]
        return Iteration(start, time.monotonic() - start, [proc], ops)

    def _roundtrip(self, trace: bool) -> Iteration:
        for stale in ("lattice.json", "export.json"):
            (self.work / stale).unlink(missing_ok=True)
        start = time.monotonic()
        procs, ops = [], []
        for name, argv in roundtrip_commands(self.spec, self.work):
            proc = self.spawn("cli", trace, argv)
            procs.append(proc)
            try:
                ops.append(check_roundtrip(self.spec, self.work, name,
                                           proc.code, proc.stdout))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ops.append((name, False, f"unreadable output: {exc}"))
        return Iteration(start, time.monotonic() - start, procs, ops)


def layer_metrics(plain: Iteration, traced: Iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, with its untraced twin.

    Times are in seconds at the reference speed, like `wall_s`: each is
    divided by the speed factor of its own iteration."""
    rows: dict[str, dict[str, float]] = {}
    counts: Counter = Counter()
    top_level_s = 0.0
    bytes_per_ideal = 0.0
    for untraced, proc in zip(plain.procs, traced.procs):
        if proc.result is None or "trace" not in proc.result:
            continue
        spans = load_spans(proc.result["trace"])
        spans.append(("exit", NO_PARENT, proc.result["work_end"], proc.end))
        top_level_s += sum(e - s for _, parent, s, e in spans if parent == NO_PARENT)
        for name, row in aggregate(spans).items():
            acc = rows.setdefault(name, Counter())
            acc.update(row)
        own = Counter(proc.result["trace"]["counts"])
        counts.update(own)
        if own["lattice.ideals"] and untraced.result is not None:
            growth = (untraced.result["rss_peak_kb"]
                      - untraced.result["rss_setup_kb"]) * 1024
            bytes_per_ideal = max(bytes_per_ideal, growth / own["lattice.ideals"])

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, key = name.rpartition(".")
        if name in COUNTERS:
            out[name] = counts[name]
        elif key == "calls":
            out[name] = rows.get(span, {}).get(key, 0)
        elif key in ("ms", "self_ms"):
            out[name] = rows.get(span, {}).get(key, 0) / traced.speed
    out.update({
        "lattice.bytes_per_ideal": bytes_per_ideal,
        "tableaux.decrement_yield": ratio(counts["tableaux.decrement_covers"],
                                          counts["tableaux.decrement_candidates"]),
        "verify.lattice_cache_hit_ratio": ratio(counts["verify.lattice_hits"],
                                                counts["verify.lattice_calls"]),
        "proc.cpu_s": sum(p.cpu_s for p in plain.procs) / plain.speed,
        "trace.overhead_s": traced.norm_s - plain.norm_s,
        "trace.top_level_s": top_level_s / traced.speed,
    })
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, deadline: float) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import ranktwo

    if not ranktwo.__file__.startswith(str(SRC)):
        raise SystemExit(f"benchmark: ranktwo imported from {ranktwo.__file__}")
    spec = {**prepare(workload, seed, work), "src": str(SRC)}
    runner = Runner(spec, work, deadline, hash_seed=seed)
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    setup: list[Proc] = []
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit
    with SpeedProbe() as probe:
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            setup += [runner.setup_run() for _ in range(SETUP_RUNS)]
            plain.append(runner.iterate(False))
            if trace:
                traced.append(runner.iterate(True))
            now = time.monotonic()
            if now - start >= seconds or now + (now - t0) > deadline:
                break
    for it in plain + traced:
        it.speed = probe.factor(it.start, it.start + it.wall_s)
    ops = [op for it in plain + traced for op in it.ops]
    failures = [op for op in ops if not op[1]]
    setup += [p for it in plain for p in it.procs if p.setup_s is not None]
    measured = {"wall_s": [it.wall_s for it in plain],
                "speed": [it.speed for it in plain]}
    if trace:
        pairs = [layer_metrics(p, t) for p, t in zip(plain, traced)]
        metrics = {name: {"value": statistics.median(m[name] for m in pairs),
                          "unit": unit} for name, unit in PER_LAYER.items()}
        samples = {name: len(pairs) for name in PER_LAYER}
        measured.update({"traced_wall_s": [it.wall_s for it in traced],
                         "traced_speed": [it.speed for it in traced]})
    else:
        # a set-up process lives ~0.1 s, so its speed is read from the
        # probes around it
        values = {"wall_s": [it.norm_s for it in plain],
                  "peak_rss_mb": [it.peak_rss_mb for it in plain],
                  "setup_s": [p.setup_s / probe.factor(p.start - 1, p.end + 1)
                              for p in setup]}
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        samples = {name: len(v) for name, v in values.items()}
        measured["setup_s"] = statistics.median(p.setup_s for p in setup)
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "inputs": {k: spec[k] for k in ("order", "sha256") if k in spec},
        "samples": samples,
        "measured": measured,
        "fail_ratio": len(failures) / len(ops),
        "failures": [list(op) for op in failures][:20],
    }
    result = {"correct": not failures, "attempted": len(ops),
              "failed": len(failures), "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "ranktwo" / "__init__.py").is_file():
        print(f"benchmark: no ranktwo sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        detail, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
