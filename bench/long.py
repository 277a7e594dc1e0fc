#!/usr/bin/env python3
"""Measure the long cases once each: too slow to be workloads.

    python3 bench/long.py [name ...]

Each case runs through the library (`principalize` or `reduce` on
`bench/long_cases/<name>.json`) in a child process of its own, one at a
time.  The script prints the operation's time, the child's peak RSS and the
blow-up and chart counts.  The figures in README.md come from this script.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CASES = {
    "tower200": "principalize",
    "tower400": "principalize",
    "principalize_mark3": "principalize",
    "reduce_mark4": "reduce",
    "worked_example": "principalize",
}


def child(name: str) -> None:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from monored.reduction import reduce
    from monored.resolution import principalize
    from monored.serialize import load_config_file

    cfg = load_config_file(str(BENCH / "long_cases" / f"{name}.json"))
    t0 = time.perf_counter()
    if CASES[name] == "principalize":
        trace = principalize(cfg)
        final, records = trace.final, trace.records
    else:
        final, records = reduce(cfg)
    print(f"{time.perf_counter() - t0:.1f} {len(records)} {len(final.charts)}")


def measure(name: str) -> str:
    proc = subprocess.Popen([sys.executable, __file__, "--child", name], stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds, blowups, charts = stdout.split() if proc.returncode == 0 else ("?", "?", "?")
    return (
        f"{name:20s} {CASES[name]:13s} exit {proc.returncode}  {seconds:>7s} s  "
        f"peak RSS {usage.ru_maxrss / 1024:6.0f} MB  blow-ups {blowups}  final charts {charts}"
    )


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
        return 0
    for name in sys.argv[1:] or CASES:
        print(measure(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
