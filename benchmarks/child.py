"""One workload process: `python3 child.py SPEC RESULT SPAWN_T MODE TRACE [ARGS...]`.

MODE is `setup` (import and load inputs, then exit), `run` (the battery or
the lattice pipeline) or `cli` (one `ranktwo` command, ARGS as its argv).
SPAWN_T is the parent's time.monotonic() just before the spawn, on the
same system-wide clock, so set-up time counts interpreter start-up too.
The process writes its measurements as JSON to RESULT.
"""

import sys
import time

SPEC, RESULT, SPAWN_T, MODE, TRACE = sys.argv[1:6]
ARGS = sys.argv[6:]

import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spawn_t = float(SPAWN_T)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    import ranktwo

    if not ranktwo.__file__.startswith(spec["src"]):
        print(f"ranktwo imported from {ranktwo.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 3
    poset = None
    if MODE == "cli" or spec["workload"] == "file_roundtrip":
        import ranktwo.cli
    elif spec["workload"] == "battery":
        import ranktwo.verify  # noqa: F401
    else:
        from ranktwo.serialize import load, poset_from_obj
        poset = poset_from_obj(load(spec["poset"]))
    ready = time.monotonic()
    out = {"setup_s": ready - spawn_t, "rss_setup_kb": _rss_kb(), "ops": []}

    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if TRACE == "1":
        from spans import Tracer, install

        tracer = Tracer()
        tracer.record("cli.startup" if MODE == "cli" else "setup", spawn_t, ready)
        with tracer.span("trace.install"):
            install(tracer)
        span = tracer.span

    code = 0
    if MODE != "setup":
        with span("workload"):
            if MODE == "cli":
                code = ranktwo.cli.main(ARGS)
            elif spec["workload"] == "battery":
                from workloads import run_battery
                out["ops"] = run_battery(spec)
            else:
                from workloads import run_lattice_pipeline
                out["ops"] = run_lattice_pipeline(spec, poset, span)
    out["work_end"] = time.monotonic()
    out["rss_peak_kb"] = _rss_kb()
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(RESULT, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
