"""Golden-dataset determinism: same seed => byte-identical dataset.

The digests in ``tests/golden/digests.json`` pin the exact dataset a
fixed campaign shape produces, with faults off and with the default
fault plan, the whole us-west1 topology selection behind it, and the
Speedchecker latency study the differential selection starts from.  Any
drift - a reordered RNG draw, a changed export serialization, a fault
decision keyed differently, a server or border link beyond the
deployment budget - fails here.

Regenerate intentionally with ``scripts/regen_golden.py``.
"""

import json
import pathlib

import pytest

from repro.core.export import dataset_digest
from repro.experiments.scenario import build_scenario
from repro.faults import FaultPlan

from .fixtures_golden import (
    BUDGET_SERVERS, DAYS, REGION, SCALE, SEED, selection_digest,
    speedchecker_digest)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "digests.json"


def _run_campaign(faults):
    scenario = build_scenario(seed=SEED, scale=SCALE, faults=faults)
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(REGION)
    plan = clasp.deploy_topology(REGION, selection,
                                 budget_servers=BUDGET_SERVERS)
    dataset = clasp.run_campaign([plan], days=DAYS)
    return scenario, dataset


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_digest_faults_off(golden):
    _scenario, dataset = _run_campaign(None)
    assert dataset.lost_tests == 0
    assert dataset_digest(dataset) == golden["faults_off"]


def test_golden_digest_faults_default(golden):
    """With the default FaultPlan enabled, the campaign - including
    every injected fault, retry, and tagged loss - reproduces the
    committed digest exactly."""
    scenario, dataset = _run_campaign(FaultPlan.default())
    assert scenario.clasp.fault_injector is not None
    assert dataset_digest(dataset) == golden["faults_default"]


def test_golden_selection_digest(golden):
    """The full pilot scan - every selected server in order, every
    traced server's matched link and RTT, every bdrmap link - not only
    the budget-capped slice the dataset digest sees."""
    scenario = build_scenario(seed=SEED, scale=SCALE)
    selection = scenario.clasp.select_topology_servers(REGION)
    assert len(selection.selected) > BUDGET_SERVERS
    assert len(selection.server_links) > len(selection.selected)
    assert selection_digest(selection) == golden["selection_us_west1"]


def test_golden_speedchecker_digest(golden):
    """Every per-tuple median of the study over the three differential
    regions, in order, with its tier and sample count."""
    scenario = build_scenario(seed=SEED, scale=SCALE)
    medians = scenario.clasp.speedchecker_medians(
        list(scenario.differential_regions))
    assert len(medians) > 100
    assert speedchecker_digest(medians) == golden["speedchecker_medians"]


def test_golden_two_fresh_runs_identical():
    """Same seed, two full stack builds: byte-identical datasets."""
    _s1, first = _run_campaign(FaultPlan.default())
    _s2, second = _run_campaign(FaultPlan.default())
    assert dataset_digest(first) == dataset_digest(second)
    assert first.completed_tests == second.completed_tests
    assert first.lost == second.lost


def test_golden_faults_change_the_digest(golden):
    """Faults on vs off must not collide (the plans differ, so the
    datasets must too)."""
    assert golden["faults_off"] != golden["faults_default"]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("batch", [False, True])
def test_golden_explicit_gcp_provider(golden, shards, batch):
    """``provider="gcp"`` routed through the provider abstraction must
    reproduce the pre-refactor digest byte-for-byte, for every
    execution mode (sharded, vectorized, both)."""
    scenario = build_scenario(seed=SEED, scale=SCALE, provider="gcp")
    assert scenario.clasp.platform.provider.name == "gcp"
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(REGION)
    plan = clasp.deploy_topology(REGION, selection,
                                 budget_servers=BUDGET_SERVERS)
    dataset = clasp.run_campaign([plan], days=DAYS,
                                 shards=shards, batch=batch)
    assert dataset.provider == "gcp"
    assert dataset_digest(dataset) == golden["faults_off"]
