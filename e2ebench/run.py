"""End-to-end CLASP benchmark: one workload, one seed, one result line.

    python3 e2ebench/run.py --workload pilot --seed 7 --seconds 10 --trace 0

Run from the repository root (it needs ``src/repro``).  Every
measurement runs in a fresh interpreter (``child.py``) pinned to one
CPU, with BLAS/OpenMP threads set to 1, timed on the host-normalised
clock of ``clock.py``:

* ``--trace 0``: a few set-up-only interpreters give ``setup_s``
  (their median, together with the pipeline runs' own set-up); then
  fresh pipeline runs repeat until they have taken ``--seconds`` of
  wall time (at least one), and each end-to-end metric is their
  median.
* ``--trace 1``: one untraced and one traced pipeline run; the traced
  run's layer wrappers (``tracing.py``) give the per-layer metrics,
  and the pair gives ``trace.overhead``.

Every pipeline run is checked (slot accounting, selections deployed,
stream == batch detection, repeatable digests); a failed check makes
the result ``"correct": false`` and the exit code 1.  The last line of
standard output is the JSON result; the lines before it are
diagnostics, including the raw ``wall.*`` timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pilot", "differential", "campaign", "monitor")
#: Set-up-only interpreters per untraced run.
SETUP_RUNS = 5
#: Every run must end within this many seconds.
DEADLINE_S = 170.0
STATE_DIR = ".e2ebench"

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "tests_per_s": "1/s",
    "hour_p50_ms": "ms", "hour_p90_ms": "ms", "peak_rss_mb": "MB",
    "completed_frac": "ratio",
}
#: Per-layer metrics the harness measures itself (units); the layer
#: wrappers add the rest (see ``tracing.PER_LAYER``).
HARNESS_LAYER = {
    "serve.query_p50_us": "us", "serve.query_p99_us": "us",
    "host.slowdown_p50": "ratio", "trace.overhead": "ratio",
    "wall.setup_s": "s", "wall.pipeline_s": "s",
}


class Runner:
    """Starts child interpreters and keeps the run's tally."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.cpu = max(os.sched_getaffinity(0))
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.env = dict(os.environ, OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        NUMEXPR_NUM_THREADS="1", PYTHONHASHSEED="0")

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, mode: str, traced: bool = False) -> Optional[dict]:
        """One fresh-interpreter run; None (and a failure) on error."""
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload,
               str(self.seed), "1" if traced else "0", str(self.cpu)]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.fail(f"{mode} run timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.fail(f"{mode} run exited {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result.get("errors"):
            self.fail("; ".join(result["errors"]))
            return None
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _median(results: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _source_hash(root: Path) -> str:
    """Hash of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_digests(runner: Runner, pipelines: List[dict]) -> None:
    """Every run of one seed repeats the same outputs.

    Within this invocation the runs must agree; across invocations of
    the same code in one checkout the first digest seen is kept under
    ``.e2ebench/digests.json`` and later ones must equal it.
    """
    digests = {r["digest"] for r in pipelines}
    if len(digests) > 1:
        runner.fail(f"digests differ between runs: {sorted(digests)}")
        return
    if not digests:
        return
    state = runner.root / STATE_DIR / "digests.json"
    known: Dict[str, str] = {}
    if state.exists():
        known = json.loads(state.read_text(encoding="utf-8"))
    key = f"{_source_hash(runner.root)}/{runner.workload}/{runner.seed}"
    digest = digests.pop()
    if known.setdefault(key, digest) != digest:
        runner.fail(f"digest {digest} differs from the earlier run's "
                    f"{known[key]}")
        return
    state.parent.mkdir(exist_ok=True)
    state.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n",
                     encoding="utf-8")


def _end_to_end(runner: Runner, seconds: float
                ) -> Tuple[Dict[str, float], Dict[str, float]]:
    setups = [runner.child("setup") for _ in range(SETUP_RUNS)]
    pipelines: List[dict] = []
    measured = 0.0
    while not pipelines or measured < seconds:
        started = runner.elapsed()
        result = runner.child("pipeline")
        if result is None:
            break
        measured += runner.elapsed() - started
        pipelines.append(result)
    _check_digests(runner, pipelines)
    if runner.failed:
        return {}, {}
    samples = setups + pipelines
    metrics = {"setup_s": _median(samples, "setup_s")}
    for name in END_TO_END:
        if name != "setup_s":
            metrics[name] = _median(pipelines, name)
    diagnostics = {
        "pipeline_runs": len(pipelines),
        "setup_samples": len(samples),
        "hours_per_run": pipelines[0]["hours"],
        "scheduled_slots": pipelines[0]["scheduled"],
        "digest": pipelines[0]["digest"],
        "wall.setup_s": _median(samples, "wall.setup_s"),
        "wall.pipeline_s": _median(pipelines, "wall.pipeline_s"),
        "host.slowdown_p50": _median(pipelines, "host.slowdown_p50"),
    }
    return metrics, diagnostics


def _per_layer(runner: Runner) -> Tuple[Dict[str, float], Dict[str, float]]:
    plain = runner.child("pipeline")
    traced = runner.child("pipeline", traced=True)
    if plain is None or traced is None:
        return {}, {}
    _check_digests(runner, [plain, traced])
    if runner.failed:
        return {}, {}
    metrics = dict(traced["layers"])
    metrics.update({
        "serve.query_p50_us": plain.get("serve.query_p50_us", 0.0),
        "serve.query_p99_us": plain.get("serve.query_p99_us", 0.0),
        "host.slowdown_p50": plain["host.slowdown_p50"],
        "trace.overhead": traced["pipeline_s"] / plain["pipeline_s"],
        "wall.setup_s": plain["wall.setup_s"],
        "wall.pipeline_s": plain["wall.pipeline_s"],
    })
    diagnostics = {"traced.pipeline_s": traced["pipeline_s"],
                   "untraced.pipeline_s": plain["pipeline_s"],
                   "spans": f"{STATE_DIR}/{runner.workload}-{runner.seed}"
                            f".spans.jsonl"}
    return metrics, diagnostics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("e2ebench: run from the repository root; src/repro is "
              "missing", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    # Compile bytecode up front so no timed set-up pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    "src/repro", str(HERE)], cwd=root, env=runner.env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)

    if args.trace:
        from tracing import PER_LAYER
        units = {name: unit for name, (unit, _spec) in PER_LAYER.items()}
        units.update(HARNESS_LAYER)
        metrics, diagnostics = _per_layer(runner)
    else:
        units = END_TO_END
        metrics, diagnostics = _end_to_end(runner, args.seconds)

    for name, value in sorted(diagnostics.items()):
        print(f"# {name}: {value}")
    for message in runner.errors:
        print(f"# FAILED: {message}")
    correct = not runner.failed
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": ({name: {"value": metrics[name], "unit": units[name]}
                     for name in units} if correct else {}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
