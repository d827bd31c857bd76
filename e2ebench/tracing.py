"""Traced runs: wrappers around each layer's public functions.

The wrappers live here, in the benchmark, not in the program: the
program is measured from outside, exactly as an untraced run drives
it.  ``Tracer.install()`` patches every target below; each call then
records a span ``(key, start, end, parent, self)`` in memory, timed on
the benchmark's normalised clock.  Functions called around 10^5 times
or more per run are only counted, so tracing does not swamp them.
``rollup()`` groups the spans by (layer, name) and ``write()`` dumps
spans and rollup at exit.

A target is ``(module, attribute path, layer, name, mode, outcome)``:
*mode* is ``span`` or ``count``; *outcome*, when set, maps a call's
return value to a number summed into ``outcomes[(layer, name)]``.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Key = Tuple[str, str]


def _unreached(trace: Any) -> int:
    return int(trace is None or not trace.reached)


def _answered(rtt: Any) -> int:
    return int(rtt is not None)


def _retried(artefacts: Any) -> int:
    return int(artefacts.attempts > 1)


def _selected(selection: Any) -> int:
    return len(selection.selected_ids())


_FAULT_QUERIES = ("vm_preempted", "slow_start_hours", "speedtest_fails",
                  "truncation_fraction", "upload_fails",
                  "link_flap_utilization")

TARGETS: List[Tuple[str, str, str, str, str, Optional[Callable]]] = [
    # world build (set-up)
    ("repro.netsim.generator", "TopologyGenerator.generate",
     "netsim", "generate", "span", None),
    ("repro.experiments.scenario", "build_catalog",
     "speedtest", "catalog", "span", None),
    ("repro.core.clasp", "build_prefix2as",
     "tools", "prefix2as_build", "span", None),
    # selection
    ("repro.core.selection.topology_based", "TopologySelector.run",
     "selection", "topology", "span", _selected),
    ("repro.core.selection.differential", "DifferentialSelector.select",
     "selection", "differential", "span", None),
    # tools
    ("repro.tools.bdrmap", "Bdrmap.run", "tools", "bdrmap", "span", None),
    ("repro.tools.traceroute", "Scamper.trace",
     "tools", "traceroute", "span", _unreached),
    ("repro.tools.prefix2as", "Prefix2AS.lookup",
     "tools", "prefix2as.lookup", "count", None),
    ("repro.tools.speedchecker", "Speedchecker.measure",
     "tools", "speedchecker", "span", None),
    ("repro.tools.speedchecker", "Speedchecker.probe",
     "tools", "speedchecker.probe", "count", _answered),
    # netsim
    ("repro.netsim.routing", "Router.route", "netsim", "route", "span",
     None),
    ("repro.netsim.pathmodel", "PathPerformanceModel.evaluate",
     "netsim", "path", "span", None),
    ("repro.netsim.linkstate", "LinkStateEvaluator.observe",
     "netsim", "linkstate.observe", "count", None),
    ("repro.speedtest.protocol", "multiflow_throughput_mbps",
     "netsim", "tcp.transfer", "count", None),
    # cloud
    ("repro.cloud.api", "CloudPlatform.route", "cloud", "route", "count",
     None),
    ("repro.cloud.api", "CloudPlatform.create_vm", "cloud", "create_vm",
     "count", None),
    # speedtest
    ("repro.speedtest.browser", "HeadlessBrowser.run_test",
     "speedtest", "run_test", "span", _retried),
    ("repro.speedtest.protocol", "SpeedTestEngine.run",
     "speedtest", "engine", "span", None),
    # engine + campaign
    ("repro.engine.bus", "EventBus.emit", "engine", "emit", "span", None),
    ("repro.core.campaign", "LaneExecutor.step", "engine", "lane_step",
     "span", None),
    ("repro.core.campaign", "CampaignRunner.run", "campaign", "run",
     "span", None),
    # shard
    ("repro.shard.batch", "BatchPlanner.plan_hour", "shard", "plan_hour",
     "span", None),
    # analysis
    ("repro.core.congestion", "detect", "analysis", "detect", "span",
     None),
    ("repro.core.streaming", "StreamingCongestionDetector.finalize",
     "analysis", "detect", "span", None),
    ("repro.core.streaming", "StreamingCongestionDetector.observe_record",
     "analysis", "stream.observe", "span", None),
    ("repro.core.streaming", "StreamingCongestionDetector.advance",
     "analysis", "stream.advance", "span", None),
    # alerts
    ("repro.alerts.collector", "Collector.advance", "alerts", "advance",
     "span", None),
    ("repro.alerts.engine", "RuleEvaluator.evaluate", "alerts", "evaluate",
     "span", None),
    ("repro.alerts.history", "MetricHistory.record_test", "alerts",
     "history", "span", None),
    ("repro.alerts.history", "MetricHistory.record_vh_event", "alerts",
     "history", "span", None),
    ("repro.alerts.history", "MetricHistory.snapshot_registry", "alerts",
     "history", "span", None),
    # serve
    ("repro.serve", "MonitorService.query", "serve", "query", "span",
     None),
] + [
    ("repro.faults.injector", f"FaultInjector.{name}", "faults",
     "decision", "span", None) for name in _FAULT_QUERIES
]


class Tracer:
    """In-memory span recorder over the benchmark's clock."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.active = True
        self.keys: List[Key] = []
        self._key_index: Dict[Key, int] = {}
        #: (key index, start, end, parent span index, self seconds)
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[Key, int] = defaultdict(int)
        self.outcomes: Dict[Key, float] = defaultdict(float)
        # Open spans: [span index, key index, seconds covered by children].
        self._stack: List[list] = []
        self._open: Dict[int, int] = defaultdict(int)
        #: Seconds per key, counting only the outermost of nested calls.
        self.totals: Dict[int, float] = defaultdict(float)

    def _key(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._key_index:
            self._key_index[key] = len(self.keys)
            self.keys.append(key)
        return self._key_index[key]

    # ------------------------------------------------------------------

    def _span(self, kidx: int, fn: Callable, outcome: Optional[Callable]
              ) -> Callable:
        tracer = self
        key = self.keys[kidx]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            now = tracer.clock.now
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, kidx, 0.0]
            stack.append(frame)
            tracer._open[kidx] += 1
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                tracer._open[kidx] -= 1
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                if not tracer._open[kidx]:
                    tracer.totals[kidx] += duration
                tracer.spans[index] = (kidx, start, end, parent,
                                       duration - frame[2])
            if outcome is not None:
                tracer.outcomes[key] += outcome(result)
            return result

        return wrapper

    def _count(self, kidx: int, fn: Callable, outcome: Optional[Callable]
               ) -> Callable:
        tracer = self
        key = self.keys[kidx]
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if tracer.active:
                counts[key] += 1
                if outcome is not None:
                    tracer.outcomes[key] += outcome(result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, layer, name, mode, outcome in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            kidx = self._key(layer, name)
            make = self._span if mode == "span" else self._count
            setattr(owner, attr, make(kidx, fn, outcome))

    # ------------------------------------------------------------------

    def rollup(self) -> Dict[Key, Dict[str, float]]:
        """``(layer, name) -> calls, total_s, self_s`` over the run."""
        out: Dict[Key, Dict[str, float]] = {
            key: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for key in self.keys}
        for span in self.spans:
            if span is None:
                continue
            row = out[self.keys[span[0]]]
            row["calls"] += 1
            row["self_s"] += span[4]
        for kidx, total in self.totals.items():
            out[self.keys[kidx]]["total_s"] = total
        for key, calls in self.counts.items():
            out[key]["calls"] += calls
        return out

    def write(self, directory: Path, stem: str) -> None:
        """Spans as JSON lines plus the rollup, for offline reading."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans.jsonl", "w",
                  encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, name = self.keys[span[0]]
                out.write(json.dumps(
                    [index, layer, name, round(span[1], 7),
                     round(span[2], 7), span[3]]) + "\n")
        rows = [{"layer": layer, "name": name, **row}
                for (layer, name), row in sorted(self.rollup().items())]
        (directory / f"{stem}.rollup.json").write_text(
            json.dumps(rows, indent=1) + "\n", encoding="utf-8")


#: Per-layer metrics of a traced run: name -> (unit, how to read it).
#: ``("total", layer, name)`` is busy seconds, ``("calls", ...)`` a call
#: count, ``("outcome", ...)`` a summed outcome, ``("frac", a, b)`` the
#: ratio of two of those; ``("extra",)`` comes from the workload.
PER_LAYER: Dict[str, Tuple[str, tuple]] = {
    "netsim.generate_s": ("s", ("total", "netsim", "generate")),
    "speedtest.catalog_s": ("s", ("total", "speedtest", "catalog")),
    "tools.prefix2as_build_s": ("s", ("total", "tools", "prefix2as_build")),
    "selection.topology_s": ("s", ("total", "selection", "topology")),
    "selection.topology.selected": (
        "count", ("outcome", "selection", "topology")),
    "selection.differential_s": (
        "s", ("total", "selection", "differential")),
    "tools.bdrmap_s": ("s", ("total", "tools", "bdrmap")),
    "tools.traceroute.calls": ("count", ("calls", "tools", "traceroute")),
    "tools.traceroute_s": ("s", ("total", "tools", "traceroute")),
    "tools.traceroute.unreached_frac": (
        "ratio", ("frac", ("outcome", "tools", "traceroute"),
                  ("calls", "tools", "traceroute"))),
    "tools.prefix2as.lookups": (
        "count", ("calls", "tools", "prefix2as.lookup")),
    "tools.speedchecker_s": ("s", ("total", "tools", "speedchecker")),
    "tools.speedchecker.probes": (
        "count", ("calls", "tools", "speedchecker.probe")),
    "tools.speedchecker.answered_frac": (
        "ratio", ("frac", ("outcome", "tools", "speedchecker.probe"),
                  ("calls", "tools", "speedchecker.probe"))),
    "netsim.route.calls": ("count", ("calls", "netsim", "route")),
    "netsim.route_s": ("s", ("total", "netsim", "route")),
    "netsim.path.evaluations": ("count", ("calls", "netsim", "path")),
    "netsim.path_s": ("s", ("total", "netsim", "path")),
    "netsim.linkstate.observes": (
        "count", ("calls", "netsim", "linkstate.observe")),
    "netsim.tcp.transfers": ("count", ("calls", "netsim", "tcp.transfer")),
    "cloud.route.calls": ("count", ("calls", "cloud", "route")),
    "cloud.vms_created": ("count", ("calls", "cloud", "create_vm")),
    "speedtest.tests": ("count", ("calls", "speedtest", "run_test")),
    "speedtest.run_test_s": ("s", ("total", "speedtest", "run_test")),
    "speedtest.engine_s": ("s", ("total", "speedtest", "engine")),
    "speedtest.retried": ("count", ("outcome", "speedtest", "run_test")),
    "engine.events": ("count", ("calls", "engine", "emit")),
    "engine.emit_s": ("s", ("total", "engine", "emit")),
    "engine.lane_steps": ("count", ("calls", "engine", "lane_step")),
    "campaign.run_s": ("s", ("total", "campaign", "run")),
    "shard.plan_hour.calls": ("count", ("calls", "shard", "plan_hour")),
    "shard.plan_hour_s": ("s", ("total", "shard", "plan_hour")),
    "faults.decisions": ("count", ("calls", "faults", "decision")),
    "faults.decision_s": ("s", ("total", "faults", "decision")),
    "faults.injected": ("count", ("extra",)),
    "faults.injected_frac": (
        "ratio", ("frac", ("extra", "faults.injected"),
                  ("calls", "faults", "decision"))),
    "analysis.detect_s": ("s", ("total", "analysis", "detect")),
    "analysis.stream.observes": (
        "count", ("calls", "analysis", "stream.observe")),
    "analysis.stream_s": ("s", ("sum", ("total", "analysis",
                                        "stream.observe"),
                                ("total", "analysis", "stream.advance"))),
    "alerts.advance.calls": ("count", ("calls", "alerts", "advance")),
    "alerts.advance_s": ("s", ("total", "alerts", "advance")),
    "alerts.evaluate_s": ("s", ("total", "alerts", "evaluate")),
    "alerts.history_s": ("s", ("total", "alerts", "history")),
    "alerts.notifications": ("count", ("extra",)),
    "serve.queries": ("count", ("calls", "serve", "query")),
    "serve.cache_hit_frac": ("ratio", ("extra",)),
    "serve.query_s": ("s", ("total", "serve", "query")),
}


def layer_metrics(tracer: Tracer, extra: Dict[str, float]
                  ) -> Dict[str, float]:
    """Evaluate ``PER_LAYER`` over a finished traced run."""
    rollup = tracer.rollup()

    def read(name: str, spec: tuple) -> float:
        kind = spec[0]
        if kind == "extra":
            return float(extra[spec[1] if len(spec) > 1 else name])
        if kind == "frac":
            den = read(name, spec[2])
            return read(name, spec[1]) / den if den else 0.0
        if kind == "sum":
            return read(name, spec[1]) + read(name, spec[2])
        key = (spec[1], spec[2])
        if kind == "outcome":
            return float(tracer.outcomes.get(key, 0.0))
        return float(rollup[key]["calls" if kind == "calls"
                                 else "total_s"])

    return {name: read(name, spec) for name, (_unit, spec)
            in PER_LAYER.items()}
