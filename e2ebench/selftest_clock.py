"""Self-test of the host-normalised clock.

Runs a fixed synthetic task in a fresh interpreter pinned to one CPU,
first alone and then next to a busy process pinned to the same CPU.
Raw wall time must rise by at least ``MIN_RAW_RATIO`` and normalised
time must stay within ``BOUND`` of the quiet run (the ``pipeline_s``
bound in ``BENCHMARK.json``).  Exits 0 when both hold.

    python3 e2ebench/selftest_clock.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_RAW_RATIO = 1.5
BOUND = {m["name"]: m["bound"] for m in json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}["pipeline_s"]
REPEATS = 3


def _task() -> None:
    """Fixed mixed work: Python dict/loop churn plus small numpy ops."""
    import numpy as np

    table = {}
    for i in range(3_000_000):
        table[i % 5003] = table.get(i % 5003, 0) + i
    vec = np.arange(20_000, dtype=float)
    for _ in range(2_000):
        vec = np.sqrt(vec * vec + 1.0)


def _child(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(HERE))
    from clock import NormClock

    clock = NormClock().start()
    n0, w0 = clock.now(), clock.wall()
    _task()
    n1, w1 = clock.now(), clock.wall()
    clock.stop()
    print(json.dumps({"norm_s": n1 - n0, "wall_s": w1 - w0}))


def _measure(cpu: int) -> dict:
    out = subprocess.run([sys.executable, __file__, "--child", str(cpu)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _busy(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    while True:
        pass


def main() -> int:
    cpu = max(os.sched_getaffinity(0))
    quiet = [_measure(cpu) for _ in range(REPEATS)]
    hog = subprocess.Popen([sys.executable, __file__, "--busy", str(cpu)])
    try:
        time.sleep(0.2)
        loaded = [_measure(cpu) for _ in range(REPEATS)]
    finally:
        hog.kill()
        hog.wait()

    def med(runs: list, key: str) -> float:
        return sorted(r[key] for r in runs)[len(runs) // 2]

    raw_ratio = med(loaded, "wall_s") / med(quiet, "wall_s")
    norm_ratio = med(loaded, "norm_s") / med(quiet, "norm_s")
    ok = raw_ratio >= MIN_RAW_RATIO and abs(norm_ratio - 1.0) <= BOUND
    print(json.dumps({
        "cpu": cpu, "quiet": quiet, "loaded": loaded,
        "raw_ratio": round(raw_ratio, 3),
        "norm_ratio": round(norm_ratio, 3),
        "bound": BOUND, "ok": ok}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        _child(int(sys.argv[2]))
    elif len(sys.argv) == 3 and sys.argv[1] == "--busy":
        _busy(int(sys.argv[2]))
    else:
        sys.exit(main())
