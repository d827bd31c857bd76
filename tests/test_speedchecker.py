"""Speedchecker edge latency probing."""

from typing import List

import numpy as np
import pytest

from repro.cloud.tiers import NetworkTier
from repro.errors import NoRouteError
from repro.experiments import build_scenario
from repro.faults import FaultPlan
from repro.faults.plan import FaultKind
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.tools.speedchecker import Speedchecker, TupleMedian
from repro.units import DAY


@pytest.fixture(scope="module")
def medians(small_scenario):
    return small_scenario.clasp.speedchecker_medians(
        list(small_scenario.differential_regions))


def test_vantage_points(small_scenario):
    checker = small_scenario.clasp.speedchecker
    vps = checker.vantage_points()
    assert vps
    assert len(vps) <= checker.max_vps
    # VPs are cached.
    assert checker.vantage_points() is vps
    for vp in vps[:10]:
        assert vp.asn in small_scenario.internet.access_isp_asns
        assert vp.last_mile_ms > 0


def test_medians_structure(small_scenario, medians):
    assert medians
    regions = {m.region for m in medians}
    assert regions == set(small_scenario.differential_regions)
    for m in medians[:50]:
        assert m.tier in (NetworkTier.PREMIUM, NetworkTier.STANDARD)
        assert m.median_rtt_ms > 0
        assert m.n_samples > 100  # the paper's cut


def test_both_tiers_measured_per_tuple(medians):
    by_tuple = {}
    for m in medians:
        by_tuple.setdefault((m.city_key, m.asn, m.region),
                            set()).add(m.tier)
    both = [k for k, tiers in by_tuple.items() if len(tiers) == 2]
    assert len(both) >= len(by_tuple) * 0.9


def test_tier_latency_differences_exist(medians):
    """The preliminary study must surface both large and small tier
    deltas, or the differential method has nothing to select."""
    deltas = []
    by_tuple = {}
    for m in medians:
        by_tuple.setdefault((m.city_key, m.asn, m.region), {})[m.tier] = m
    for tiers in by_tuple.values():
        if len(tiers) == 2:
            deltas.append(tiers[NetworkTier.STANDARD].median_rtt_ms
                          - tiers[NetworkTier.PREMIUM].median_rtt_ms)
    assert any(abs(d) >= 50 for d in deltas)
    assert any(abs(d) < 10 for d in deltas)


def test_probe_vms_cleaned_up(small_scenario, medians):
    platform = small_scenario.clasp.platform
    leftover = [vm for vm in platform.vms()
                if vm.name.startswith("speedchecker-")]
    assert leftover == []


def test_validation(small_scenario):
    with pytest.raises(ValueError):
        Speedchecker(small_scenario.clasp.platform, max_vps=0)


# ----------------------------------------------------------------------
# oracle: the batched study against per-probe scalar calls

#: VPs per oracle study: enough for both tiers and an unroutable VP,
#: few enough that the scalar reference stays quick.
ORACLE_VPS = 20
ORACLE_REGION = "us-east1"


def _scalar_measure(checker, region_names, samples_per_tuple=120,
                    start_ts=CAMPAIGN_START, span_days=5, min_samples=100,
                    tiers=None, name_prefix="speedchecker"):
    """The study as one :meth:`Speedchecker.probe` call per kept probe:
    the reference :meth:`Speedchecker.measure` must equal draw for draw.
    """
    platform = checker.platform
    study_tiers = tuple(tiers if tiers is not None
                        else platform.provider.tiers)
    rng = checker._rng
    vps = checker.vantage_points()
    out = []
    for region in region_names:
        vms = {tier: platform.create_vm(
            region, platform.provider.probe_machine_type, tier, start_ts,
            name=f"{name_prefix}-{region}-{tier.value}")
            for tier in study_tiers}
        for vp in vps:
            probe_times = start_ts + rng.uniform(
                0, span_days * DAY, size=samples_per_tuple)
            for tier in study_tiers:
                samples: List[float] = []
                for ts in probe_times:
                    if rng.random() < 0.04:
                        continue
                    rtt = checker.probe(vp, vms[tier], float(ts))
                    if rtt is not None:
                        samples.append(rtt)
                if len(samples) < min_samples:
                    continue
                out.append(TupleMedian(
                    asn=vp.asn, city_key=vp.city_key, region=region,
                    tier=tier, median_rtt_ms=float(np.median(samples)),
                    n_samples=len(samples)))
        for tier in study_tiers:
            platform.terminate_vm(vms[tier].name, start_ts + span_days * DAY)
    return out


def _studies(faults=None, patch=None, **kwargs):
    """(batched, scalar) runs, each on its own fresh copy of the small
    scenario's world: ``(medians, rng state, clasp)`` per run."""
    runs = []
    for study in (Speedchecker.measure, _scalar_measure):
        clasp = build_scenario(seed=11, scale=0.08, faults=faults).clasp
        if patch is not None:
            patch(clasp.platform)
        checker = Speedchecker(clasp.platform, seeds=SeedTree(5),
                               max_vps=ORACLE_VPS)
        medians = study(checker, [ORACLE_REGION], **kwargs)
        runs.append((medians, checker._rng.bit_generator.state, clasp))
    return runs


def _assert_same_study(batched, scalar):
    __tracebackhide__ = True
    assert batched[0], "the study kept no tuple"
    assert batched[0] == scalar[0]
    assert batched[1] == scalar[1]


def test_batched_study_equals_scalar_probes():
    batched, scalar = _studies()
    _assert_same_study(batched, scalar)
    assert {m.tier for m in batched[0]} == {NetworkTier.PREMIUM,
                                            NetworkTier.STANDARD}


def test_batched_study_equals_scalar_probes_under_link_flaps():
    """FaultPlan.heavy() wires the link-flap hook; both runs must see the
    same flapped link-hours and the same medians."""
    batched, scalar = _studies(faults=FaultPlan.heavy())
    _assert_same_study(batched, scalar)
    flaps = []
    for _medians, _state, clasp in (batched, scalar):
        injector = clasp.fault_injector
        assert injector is not None
        flaps.append(sorted((e.key, e.ts) for e in injector.events
                            if e.kind is FaultKind.LINK_FLAP))
    assert flaps[0], "no link flapped during the study"
    assert flaps[0] == flaps[1]


def test_batched_study_equals_scalar_probes_for_a_tier_subset():
    """The provider-choice shape: one tier, a non-default VM prefix."""
    batched, scalar = _studies(tiers=(NetworkTier.STANDARD,),
                               name_prefix="xc-oracle")
    _assert_same_study(batched, scalar)
    assert {m.tier for m in batched[0]} == {NetworkTier.STANDARD}
    platform = batched[2].platform
    assert platform.get_vm("xc-oracle-us-east1-standard") is not None


def test_unroutable_vp_routes_once_per_tier():
    """A VP whose route raises NoRouteError keeps no tuple and draws no
    jitter; the batched study asks for its route once per tier, the
    scalar loop once per kept probe."""
    calls = []

    def patch(platform):
        victim = Speedchecker(platform, seeds=SeedTree(5),
                              max_vps=ORACLE_VPS).vantage_points()[3]
        route = platform.route
        counter = []
        calls.append((victim, counter))

        def failing_route(vm, remote_pop_id, direction, flow_id=0):
            if remote_pop_id == victim.pop_id:
                counter.append(direction)
                raise NoRouteError(vm.name, remote_pop_id)
            return route(vm, remote_pop_id, direction, flow_id)
        platform.route = failing_route

    batched, scalar = _studies(patch=patch)
    _assert_same_study(batched, scalar)
    (victim, batched_calls), (_victim, scalar_calls) = calls
    assert all((m.asn, m.city_key) != (victim.asn, victim.city_key)
               for m in batched[0])
    assert len(batched_calls) == 2
    assert len(scalar_calls) > 200
