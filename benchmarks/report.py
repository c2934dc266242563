"""Run every workload and print each metric by name, unit and sample count.

    python3 benchmarks/report.py --seed 1 --seconds 20 [--trace]

Prints wall_s, peak_rss_mb, setup_s and fail_ratio for each workload (and,
with --trace, the per-layer metrics of a traced run).  Exits 1 if any
output check failed or a run produced no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_one(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=RUN.parent.parent)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{workload}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None, None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true",
                        help="also print the per-layer metrics of a traced run")
    args = parser.parse_args(argv)
    ok = True
    print(f"{'workload':15} {'metric':42} {'value':>14} {'unit':6} samples")
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            detail, result = run_one(workload, args.seed, args.seconds, trace)
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                print(f"{workload:15} {name:42} {m['value']:14.4f} {m['unit']:6} "
                      f"{detail['samples'][name]}")
            if not trace:
                print(f"{workload:15} {'fail_ratio':42} {detail['fail_ratio']:14.4f} "
                      f"{'ratio':6} {result['attempted']}")
            for failure in detail["failures"]:
                print(f"{workload:15} FAILED {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
