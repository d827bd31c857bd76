"""One measured run of one workload, in a fresh interpreter.

    python3 e2ebench/child.py {setup|pipeline} WORKLOAD SEED TRACE CPU

The process pins itself to CPU *CPU*, starts the normalised clock
before importing anything heavy, builds the scenario (``setup_s``)
and, in ``pipeline`` mode, runs the workload's pipeline and its output
checks.  With TRACE=1 the layer wrappers from ``tracing.py`` are
installed first and the span rollup is written under
``.e2ebench/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import List

from clock import NormClock


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


def main(clock: NormClock, wall0: float) -> int:
    mode, name, seed, traced = (sys.argv[1], sys.argv[2], int(sys.argv[3]),
                                sys.argv[4] == "1")
    sys.path.insert(0, str(Path.cwd() / "src"))
    tracer = None
    if traced:
        from tracing import Tracer, layer_metrics
        tracer = Tracer(clock)
        tracer.install()
    import workloads

    build, pipeline = workloads.WORKLOADS[name]
    scenario = build(seed)
    setup_s = clock.now()
    out = {"setup_s": setup_s,
           # Before the clock existed the process only computed, so
           # its CPU time stands in for that part of the wall time.
           "wall.setup_s": clock.started_cpu + clock.wall() - wall0}
    if mode == "setup":
        clock.stop()
        print(json.dumps(out))
        return 0

    harness = workloads.Harness(clock)
    gc.collect()
    t0, w0 = clock.now(), clock.wall()
    result = pipeline(scenario, seed, harness)
    t1, w1 = clock.now(), clock.wall()
    clock.stop()
    if tracer is not None:
        tracer.active = False

    errors = workloads.check(name, result, harness)
    hours = harness.hours_s
    out.update({
        # The collections before each campaign phase are not the
        # pipeline's own work.
        "pipeline_s": t1 - t0 - harness.gc_s,
        "wall.pipeline_s": w1 - w0,
        "tests_per_s": harness.completed / harness.campaign_s,
        "hour_p50_ms": statistics.median(hours) * 1e3,
        "hour_p90_ms": _percentile(hours, 0.90) * 1e3,
        "hours": len(hours),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": harness.completed / harness.scheduled,
        "scheduled": harness.scheduled,
        "host.slowdown_p50": clock.slowdown_p50(),
        "digest": workloads.digest(result, harness.datasets),
        "errors": errors,
    })
    if harness.queries_s:
        out["serve.query_p50_us"] = statistics.median(
            harness.queries_s) * 1e6
        out["serve.query_p99_us"] = _percentile(harness.queries_s,
                                                0.99) * 1e6
        out["queries"] = len(harness.queries_s)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, {
            "alerts.notifications": result.get("notifications", 0),
            "faults.injected": sum(len(injector.events)
                                   for injector in harness.injectors),
            "serve.cache_hit_frac": (result["service"].load_report()
                                     .hit_rate if "service" in result
                                     else 0.0)})
        tracer.write(Path.cwd() / ".e2ebench", f"{name}-{seed}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[5])})
    # Start the clock before any heavy import: set-up time counts from
    # interpreter start.
    CLOCK = NormClock().start()
    try:
        code = main(CLOCK, CLOCK.wall())
    finally:
        CLOCK.stop()
    sys.exit(code)
