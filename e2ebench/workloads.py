"""The four benchmark workloads, each driving the public CLASP pipeline.

Every workload is split in two:

* ``build(seed)`` - the set-up phase: ``build_scenario`` (world,
  catalog, CLASP stack).  ``setup_s`` times a fresh interpreter up to
  its return.
* ``pipeline(scenario, seed, harness)`` - world built to final report:
  selection, deploy, campaign, detection.  It returns what the output
  checks need; the checks themselves run after the clock stops.

The :class:`Harness` owns the clock; workloads only mark the campaign
phases and hand it their datasets.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.alerts import concat_datasets, default_rules
from repro.core import congestion
from repro.core.clasp import Clasp
from repro.core.export import dataset_digest
from repro.engine.observers import Observer
from repro.experiments import apply_differential_story, build_scenario
from repro.faults import FaultPlan
from repro.rng import SeedTree
from repro.serve import MonitorService
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR

START = float(CAMPAIGN_START)
#: Every workload measures the same world; ``--seed`` drives the CLASP
#: stack (traceroute, alias resolution, Speedchecker, speed-test and
#: campaign streams) and the benchmark's own draws.
WORLD_SEED = 7

#: Regions that pilot and monitor select servers for by topology.
TOPOLOGY_REGIONS = ("us-west1", "us-east1")
#: Servers each pilot region deploys (the rest of the selection is cut).
PILOT_BUDGET = 40
#: Campaign days after pilot and differential selection: 119 hour
#: samples, and a campaign phase long enough to span several host
#: speed phases; still a thin tail next to selection.
TAIL_DAYS = 5
#: Differential targets per study region.
DIFFERENTIAL_TARGET = 15
#: Catalog servers drawn per region in the campaign workload.
CAMPAIGN_SERVERS = 25
CAMPAIGN_DAYS = 5
#: Monitor: two successive daemon runs of this many days each.
MONITOR_RUNS = 2
MONITOR_DAYS = 3
#: Servers deployed per monitor region and run, so every seed measures
#: as many.  With one region, hours of ~13 ms made ``hour_p90_ms``
#: spread by 10-12% across ten seeds; with two, ~23 ms hours spread by
#: 4%.
MONITOR_BUDGET = 24
#: Closed-loop MonitorService queries per simulated hour.
QUERIES_PER_HOUR = 60


class Harness:
    """What a workload reports while it runs: phases, hours, queries."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.hours_s: List[float] = []
        self.queries_s: List[float] = []
        self.query_total_s = 0.0
        self.campaign_s = 0.0
        self.gc_s = 0.0
        self.datasets: List[Any] = []
        self.scheduled = 0
        self.completed = 0
        self.slot_lost = 0
        self.injectors: List[Any] = []

    def collect(self) -> None:
        """``gc.collect()`` before a timed phase, kept off its clock."""
        t0 = self.clock.now()
        gc.collect()
        self.gc_s += self.clock.now() - t0

    @contextmanager
    def campaign_phase(self) -> Iterator[None]:
        self.collect()
        queries0 = self.query_total_s
        t0 = self.clock.now()
        yield
        self.campaign_s += (self.clock.now() - t0
                            - (self.query_total_s - queries0))


class HourClock(Observer):
    """Times each simulated hour and runs the monitor's query loop.

    One sample is the normalised time from one ``hour-started`` event
    to the next, leaving out this observer's own work in between.
    With a *service*, each hour starts with ``QUERIES_PER_HOUR``
    closed-loop ``MonitorService.query`` calls spread over the
    simulated hour.
    """

    def __init__(self, harness: Any,
                 service: Optional[MonitorService] = None) -> None:
        self.harness = harness
        self.service = service
        self._last: Optional[float] = None

    def on_hour_started(self, event: Any) -> None:
        self.harness.clock.sample()
        now = self.harness.clock.now
        t = now()
        if self._last is not None:
            self.harness.hours_s.append(t - self._last)
        if self.service is not None:
            query = self.service.query
            latencies = self.harness.queries_s
            for q in range(QUERIES_PER_HOUR):
                q0 = now()
                query(event.ts + q * (HOUR / QUERIES_PER_HOUR))
                latencies.append(now() - q0)
            self.harness.query_total_s += now() - t
        self._last = now()

    def on_campaign_finished(self, event: Any) -> None:
        # Hours of the next campaign run start a fresh chain.
        self._last = None


def scheduled_slots(plans: List[Any], days: int) -> int:
    """Slots the schedule draws: one per (VM, assigned server, hour)."""
    return sum(len(ids) for plan in plans
               for _vm, ids in plan.assignments) * days * 24


def _slot_losses(dataset: Any) -> int:
    """Lost slots; an ``upload`` loss tags an hour, not a test slot."""
    by_reason = dataset.lost_by_reason()
    return dataset.lost_tests - by_reason.get("upload", 0)


def _campaign(harness: Any, clasp: Any, plans: List[Any], days: int,
              **kwargs: Any) -> Any:
    """One timed campaign phase plus its slot accounting."""
    with harness.campaign_phase():
        dataset = clasp.run_campaign(plans, days=days, **kwargs)
    harness.datasets.append(dataset)
    if clasp.fault_injector is not None:
        harness.injectors.append(clasp.fault_injector)
    harness.scheduled += scheduled_slots(plans, days)
    harness.completed += dataset.completed_tests
    harness.slot_lost += _slot_losses(dataset)
    return dataset


def scenario_for(seed: int, scale: float,
                 faults: Optional[FaultPlan] = None) -> Any:
    """The seed-7 world with a fresh CLASP stack seeded from *seed*.

    Worlds of different seeds differ in size (over seeds 1-4 the
    differential pipeline ranged from 9.2 to 12.8 s), which would
    swamp any change a later commit measures; the measurement
    randomness is what a seed varies.  The stack is rebuilt for every
    seed, 7 included, so every seed pays the same set-up.
    """
    scenario = build_scenario(seed=WORLD_SEED, scale=scale, faults=faults)
    scenario.clasp = Clasp.build(
        scenario.internet, scenario.catalog, SeedTree(seed).child("clasp"),
        fault_plan=faults, provider="gcp",
        cloud_asn=scenario.wan_asns["gcp"])
    return scenario


# ----------------------------------------------------------------------
# pilot: topology selection dominates


def build_pilot(seed: int) -> Any:
    return scenario_for(seed, scale=0.35)


def run_pilot(scenario: Any, seed: int, harness: Any) -> Dict[str, Any]:
    clasp = scenario.clasp
    plans, selections = [], []
    for region in TOPOLOGY_REGIONS:
        selection = clasp.select_topology_servers(region)
        selections.append(selection.selected_ids())
        plans.append(clasp.deploy_topology(region, selection,
                                           budget_servers=PILOT_BUDGET))
    hours = HourClock(harness)
    dataset = _campaign(harness, clasp, plans, days=TAIL_DAYS,
                        observers=[hours])
    congestion.detect(dataset)
    return {"selections": selections, "plans": plans,
            "budget": PILOT_BUDGET}


# ----------------------------------------------------------------------
# differential: the Speedchecker study


def build_differential(seed: int) -> Any:
    return scenario_for(seed, scale=0.05)


def run_differential(scenario: Any, seed: int,
                     harness: Any) -> Dict[str, Any]:
    clasp = scenario.clasp
    regions = list(scenario.differential_regions)
    plans, selections = [], []
    for region in regions:
        selection = clasp.select_differential_servers(
            region, regions_for_study=regions,
            target_count=DIFFERENTIAL_TARGET)
        apply_differential_story(scenario, selection)
        selections.append(selection.server_ids())
        plans.append(clasp.deploy_differential(region, selection))
    hours = HourClock(harness)
    dataset = _campaign(harness, clasp, plans, days=TAIL_DAYS,
                        observers=[hours])
    congestion.detect(dataset)
    return {"selections": selections, "plans": plans, "budget": None}


# ----------------------------------------------------------------------
# campaign: per-test work on the scalar executor


def build_campaign(seed: int) -> Any:
    return scenario_for(seed, scale=0.05)


def run_campaign(scenario: Any, seed: int, harness: Any) -> Dict[str, Any]:
    clasp = scenario.clasp
    us_ids = sorted(server.server_id for server in scenario.catalog
                    if server.country == "US")
    draw = np.random.default_rng(seed)
    plans = []
    for region in scenario.us_regions:
        picked = draw.choice(len(us_ids), size=CAMPAIGN_SERVERS,
                             replace=False)
        ids = [us_ids[int(i)] for i in sorted(picked)]
        plans.append(clasp.orchestrator.deploy_topology(region, ids, START))
    hours = HourClock(harness)
    dataset = _campaign(harness, clasp, plans, days=CAMPAIGN_DAYS,
                        observers=[hours])
    congestion.detect(dataset)
    return {}


# ----------------------------------------------------------------------
# monitor: daemon collector + alerts + served queries on the batch path


def build_monitor(seed: int) -> Any:
    return scenario_for(seed, scale=0.05, faults=FaultPlan.default())


def run_monitor(scenario: Any, seed: int, harness: Any) -> Dict[str, Any]:
    collector = None
    service = None
    hours = None
    for run in range(MONITOR_RUNS):
        if run:
            # As in ``repro daemon``: every run rebuilds the world from
            # the seed; only simulated time moves on.
            scenario = build_monitor(seed)
        clasp = scenario.clasp
        plans = [clasp.deploy_topology(
            region, clasp.select_topology_servers(region),
            budget_servers=MONITOR_BUDGET) for region in TOPOLOGY_REGIONS]
        collector, observer = clasp.collector(rules=default_rules(),
                                              collector=collector)
        if service is None:
            service = MonitorService(collector.detector,
                                     evaluator=collector.evaluator)
            hours = HourClock(harness, service)
        _campaign(harness, clasp, plans, days=MONITOR_DAYS,
                  start_ts=START + run * MONITOR_DAYS * DAY,
                  observers=[observer, hours], batch=True)
    report = collector.finalize()
    return {"collector": collector, "report": report, "service": service,
            "notifications": len(collector.evaluator.notifications)}


# ----------------------------------------------------------------------
# output checks (run after the clock stops, with tracing paused)


def check_selection(result: Dict[str, Any]) -> List[str]:
    """Non-empty selections, each deployed (up to the budget)."""
    errors = []
    for selected, plan in zip(result["selections"], result["plans"]):
        if not selected:
            errors.append(f"{plan.region}: empty selection")
            continue
        expected = list(selected)
        if result["budget"] is not None:
            expected = expected[:result["budget"]]
        if set(plan.server_ids) != set(expected):
            errors.append(f"{plan.region}: deployed servers differ from "
                          f"the selection")
    return errors


def check_monitor(result: Dict[str, Any], datasets: List[Any]) -> List[str]:
    batch = congestion.detect(concat_datasets(datasets))
    if result["report"] != batch:
        return ["monitor: finalize() != detect(concat_datasets(...))"]
    return []


WORKLOADS: Dict[str, Tuple[Callable[[int], Any], Callable[..., Dict]]] = {
    "pilot": (build_pilot, run_pilot),
    "differential": (build_differential, run_differential),
    "campaign": (build_campaign, run_campaign),
    "monitor": (build_monitor, run_monitor),
}


def check(name: str, result: Dict[str, Any], harness: Any) -> List[str]:
    """Every output check for one pipeline run; returns the failures."""
    errors = []
    if harness.completed + harness.slot_lost != harness.scheduled:
        errors.append(
            f"slots: completed {harness.completed} + lost "
            f"{harness.slot_lost} != scheduled {harness.scheduled}")
    if name in ("pilot", "differential"):
        errors += check_selection(result)
    if name == "monitor":
        errors += check_monitor(result, harness.datasets)
    return errors


def digest(result: Dict[str, Any], datasets: List[Any]) -> str:
    """Dataset digests (plus the alert count) that every run must repeat."""
    parts = [dataset_digest(dataset)[:16] for dataset in datasets]
    if "notifications" in result:
        parts.append(f"notifications={result['notifications']}")
    return ",".join(parts)
