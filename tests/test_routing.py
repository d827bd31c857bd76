"""Valley-free routing, tier policies, and expansion on the mini world."""

import pytest

from repro.errors import NoRouteError, RoutingError
from repro.netsim.routing import GraphMode, Router, TierPolicy


@pytest.fixture()
def router(mini_world):
    return Router(mini_world.topology, cloud_asn=mini_world.cloud_asn)


def test_direct_peer_path(router):
    assert router.as_path(100, 400) == (100, 400)
    assert router.as_path(400, 100) == (400, 100)


def test_customer_route_preferred_over_peer_detour(router):
    # Cloud -> transit: the only valley-free option is via the tier-1
    # provider (the cloud cannot use ISP Alpha's transit link: peers do
    # not export provider routes).
    assert router.as_path(100, 300) == (100, 200, 300)


def test_single_homed_eyeball_path(router):
    # Cloud -> ISP Beta must descend via tier1 -> transit.
    assert router.as_path(100, 500) == (100, 200, 300, 500)
    assert router.as_path(500, 100) == (500, 300, 200, 100)


def test_valley_free_no_peer_then_provider(router):
    # ISP Alpha -> ISP Beta: cannot go up to cloud (peer) then up
    # again; must use its own provider chain.
    assert router.as_path(400, 500) == (400, 300, 500)


def test_standard_mode_removes_cloud_peering(router):
    full = router.as_path(400, 100, GraphMode.FULL)
    std = router.as_path(400, 100, GraphMode.STANDARD)
    assert full == (400, 100)
    assert std == (400, 300, 200, 100)


def test_standard_mode_non_cloud_paths_unchanged(router):
    assert router.as_path(400, 500, GraphMode.STANDARD) == \
        router.as_path(400, 500, GraphMode.FULL)


def test_self_path(router):
    assert router.as_path(100, 100) == (100,)


def test_no_route_raises(mini_world):
    topo = mini_world.topology
    from repro.netsim.asn import AS, ASType
    from repro.netsim.addressing import Prefix
    island = AS(asn=900, name="Island", as_type=ASType.BUSINESS)
    island.prefixes.append(Prefix.parse("10.90.0.0/16"))
    topo.add_as(island)
    router = Router(topo, cloud_asn=100)
    with pytest.raises(NoRouteError):
        router.as_path(100, 900)


def test_reachability(router, mini_world):
    assert router.reachable_from(100) == {100, 200, 300, 400, 500}


def test_expand_validates_endpoints(router, mini_world):
    pops = mini_world.pops
    with pytest.raises(RoutingError):
        router.expand((100, 400), pops["t1-west"], pops["ispa-west"])
    with pytest.raises(RoutingError):
        router.expand((100, 400), pops["cloud-west"], pops["t1-west"])


def test_route_structure(router, mini_world):
    pops = mini_world.pops
    route = router.route(pops["cloud-west"], pops["ispa-east"])
    assert route.src_pop == pops["cloud-west"]
    assert route.dst_pop == pops["ispa-east"]
    assert len(route.pops) == len(route.links) + 1
    assert route.as_path == (100, 400)
    assert len(route.border_crossings) == 1


def test_hot_vs_cold_potato_egress(router, mini_world):
    """Premium egress (cold) exits near the destination; hot potato
    exits at the origin."""
    pops = mini_world.pops
    cold = router.route(pops["cloud-west"], pops["ispa-east"],
                        first_as_policy=TierPolicy.COLD_POTATO)
    hot = router.route(pops["cloud-west"], pops["ispa-east"],
                       first_as_policy=TierPolicy.HOT_POTATO)
    # Cold potato: ride the cloud WAN to the east peering link.
    assert cold.border_crossings[0].city_key == "Eastburg, US"
    # Hot potato: hand off immediately at the west peering link, then
    # ride ISP Alpha's backbone east.
    assert hot.border_crossings[0].city_key == "Westville, US"
    # The cold route spends more hops inside the cloud.
    cloud_hops_cold = sum(
        1 for p in cold.pops
        if mini_world.topology.pop(p).asn == 100)
    cloud_hops_hot = sum(
        1 for p in hot.pops
        if mini_world.topology.pop(p).asn == 100)
    assert cloud_hops_cold > cloud_hops_hot


def test_standard_ingress_enters_near_region(router, mini_world):
    """Standard-tier ingress is delivered at the transit interconnect
    nearest the destination region (cold potato on the last hop)."""
    pops = mini_world.pops
    # ISP Beta -> cloud-east region, standard tier.
    route = router.route(pops["ispb-south"], pops["cloud-east"],
                         mode=GraphMode.STANDARD,
                         last_as_policy=TierPolicy.COLD_POTATO)
    assert route.as_path == (500, 300, 200, 100)
    assert route.border_crossings[-1].city_key == "Eastburg, US"
    # With hot potato it would enter at the tier-1's nearest link
    # (already east here), so also check a west-coast region:
    route_west = router.route(pops["ispb-south"], pops["cloud-west"],
                              mode=GraphMode.STANDARD,
                              last_as_policy=TierPolicy.COLD_POTATO)
    assert route_west.border_crossings[-1].city_key == "Westville, US"


def test_route_delay_is_sum_of_links(router, mini_world):
    pops = mini_world.pops
    topo = mini_world.topology
    route = router.route(pops["cloud-west"], pops["ispb-south"])
    total = sum(topo.link(lid).delay_ms for lid, _d in route.links)
    assert route.propagation_delay_ms(topo) == pytest.approx(total)


def test_ecmp_flow_stability(router, mini_world):
    pops = mini_world.pops
    r1 = router.route(pops["cloud-west"], pops["ispb-south"], flow_id=5)
    r2 = router.route(pops["cloud-west"], pops["ispb-south"], flow_id=5)
    assert r1.links == r2.links


def test_intra_cache_invalidation(router, mini_world):
    from repro.netsim.addressing import parse_ip
    topo = mini_world.topology
    pops = mini_world.pops
    # Warm the cache.
    router.route(pops["cloud-west"], pops["ispa-east"])
    host = topo.add_host(400, pops["ispa-east"],
                         parse_ip("10.40.0.210"), 1000.0)
    with pytest.raises(NoRouteError):
        router.route(pops["cloud-west"], host.pop_id)
    router.invalidate_intra_cache(400)
    route = router.route(pops["cloud-west"], host.pop_id)
    assert route.dst_pop == host.pop_id


def test_hosts_never_transit(router, mini_world):
    """A route between two routers never passes through a host leaf."""
    from repro.netsim.addressing import parse_ip
    topo = mini_world.topology
    pops = mini_world.pops
    topo.add_host(400, pops["ispa-west"], parse_ip("10.40.0.220"), 1000.0)
    router.invalidate_intra_cache(400)
    route = router.route(pops["cloud-west"], pops["ispa-east"],
                         first_as_policy=TierPolicy.HOT_POTATO)
    for pop_id in route.pops:
        assert not topo.pop(pop_id).is_host


# ----------------------------------------------------------------------
# border choice: memoised near-tie lists vs a brute-force oracle


def _oracle_border(topo, from_asn, to_asn, anchor_pop, flow_key):
    """The border choice written out in full, with no memo."""
    from repro.rng import stable_hash64
    scored = []
    for record in topo.interdomain_between(from_asn, to_asn):
        link = topo.link(record.link_id)
        near, far = ((link.pop_a, link.pop_b)
                     if topo.pop(link.pop_a).asn == from_asn
                     else (link.pop_b, link.pop_a))
        if topo.pop(near).asn != from_asn or topo.pop(far).asn != to_asn:
            continue
        dist = topo.city_of_pop(near).point.distance_km(
            topo.city_of_pop(anchor_pop).point)
        scored.append((dist, record.link_id, (record, link, near, far)))
    scored.sort(key=lambda item: (item[0], item[1]))
    ties = [c for dist, _lid, c in scored if dist <= scored[0][0] + 1.0]
    if len(ties) == 1:
        return ties[0]
    return ties[stable_hash64(
        f"ecmp:{flow_key}:{ties[0][0].link_id}:{len(ties)}") % len(ties)]


def test_border_choice_matches_oracle(small_scenario):
    """Every (from, to) AS pair with a border, a few anchors and flows:
    the memoised choice equals the brute-force one, on first use and
    when served from the memo."""
    topo = small_scenario.internet.topology
    router = Router(topo, cloud_asn=small_scenario.internet.cloud_asn)
    pairs = sorted({(r.near_asn, r.far_asn)
                    for r in topo.interdomain_links()}
                   | {(r.far_asn, r.near_asn)
                      for r in topo.interdomain_links()})
    pop_ids = sorted(topo.pops)
    flow_keys = (0, 7, (12 << 24) ^ (345 << 4) ^ 3)
    checked = ecmp_sets = 0
    for index, (a, b) in enumerate(pairs):
        anchors = {topo.pops_of_as(a)[0].pop_id,
                   topo.pops_of_as(b)[-1].pop_id,
                   pop_ids[(index * 7919) % len(pop_ids)]}
        for anchor in sorted(anchors):
            ties = router._border_ties(a, b, anchor)
            ecmp_sets += len(ties) > 1
            for flow_key in flow_keys:
                expected = _oracle_border(topo, a, b, anchor, flow_key)
                for _repeat in range(2):
                    chosen = router._choose_border(
                        router._border_ties(a, b, anchor), flow_key)
                    assert chosen == expected, (a, b, anchor, flow_key)
                checked += 1
    assert len(pairs) > 50
    assert checked >= len(flow_keys) * len(pairs)
    assert ecmp_sets > 0     # the ECMP hash really was exercised


def test_invalidate_caches_sees_story_isp_links():
    """A router built before a story ISP exists: after
    invalidate_caches() the story's new interdomain links are border
    candidates and routes into the story ISP cross them."""
    from repro.netsim.generator import GeneratorConfig, TopologyGenerator
    from repro.rng import SeedTree
    gen = TopologyGenerator(
        GeneratorConfig(n_tier1=4, n_transit=8, n_access_isp=10,
                        n_big_isp=2, n_hosting=4, n_education=2,
                        n_business=2),
        SeedTree(77))
    net = gen.generate()
    topo = net.topology
    cloud = net.cloud_asn
    router = Router(topo, cloud_asn=cloud)
    cloud_pop = topo.pops_of_as(cloud)[0].pop_id
    for record in topo.interdomain_links():
        for a, b in ((record.near_asn, record.far_asn),
                     (record.far_asn, record.near_asn)):
            router._border_ties(a, b, cloud_pop)
    old_links = {r.link_id for r in topo.interdomain_links()}

    story = gen.add_story_isp(
        net, "Testy Cable", home_city_keys=["San Diego, US", "Las Vegas, US"])
    new_records = [r for r in topo.interdomain_links()
                   if r.link_id not in old_links]
    assert new_records
    router.invalidate_caches()
    for record in new_records:
        for a, b in ((record.near_asn, record.far_asn),
                     (record.far_asn, record.near_asn)):
            candidates = router._border_candidates(a, b)
            assert record.link_id in {c[0].link_id for c in candidates}
    story_pop = topo.pops_of_as(story.asn)[0].pop_id
    route = router.route(cloud_pop, story_pop)
    assert route.as_path == (cloud, story.asn)
    assert route.border_crossings[0].link_id not in old_links


def test_stale_border_memo_until_invalidated(router, mini_world):
    """A border link added between two ASes the router already routed
    between stays invisible until invalidate_caches()."""
    from repro.netsim.addressing import parse_ip
    from repro.netsim.topology import InterdomainLink, LinkKind
    topo = mini_world.topology
    pops = mini_world.pops
    before = router.route(pops["cloud-central"], pops["ispa-west"])
    link = topo.add_link(LinkKind.INTERDOMAIN, pops["cloud-central"],
                         pops["ispa-west"], 20_000.0, 0.2,
                         ip_a=parse_ip("10.100.8.17"),
                         ip_b=parse_ip("10.100.8.18"), address_asn=100)
    topo.register_interdomain(InterdomainLink(
        link_id=link.link_id, near_asn=100, far_asn=400,
        city_key=topo.pop(pops["cloud-central"]).city_key,
        near_ip=parse_ip("10.100.8.17"), far_ip=parse_ip("10.100.8.18")))
    stale = router.route(pops["cloud-central"], pops["ispa-west"])
    assert stale.links == before.links
    router.invalidate_caches()
    fresh = router.route(pops["cloud-central"], pops["ispa-west"])
    assert fresh.border_crossings[0].link_id == link.link_id
