"""Scamper-style paris-traceroute.

Renders a routed path as the hop list a traceroute would show: each
hop is the *ingress* interface of the receiving router (or its
loopback when the link is unnumbered), with cumulative RTTs including
queueing at probe time.  Paris-traceroute semantics: the flow
identifier is held constant, so per-flow ECMP decisions are stable
within one trace, and varying ``flow_id`` across traces exposes
parallel links - which is how bdrmap enumerates LAG members.

A probing round - every trace bdrmap or the pilot scan sends from one
vantage point at one instant - runs inside :meth:`Scamper.snapshot`,
which evaluates each link direction's queueing delay once for the
whole round instead of once per hop.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


from .. import obs
from ..netsim.addressing import format_ip
from ..netsim.linkstate import LinkStateEvaluator
from ..netsim.routing import GraphMode, Route, Router, TierPolicy
from ..netsim.topology import Topology
from ..rng import SeedTree
from ..errors import ValidationError

__all__ = ["Hop", "Traceroute", "Scamper"]


@dataclass(frozen=True)
class Hop:
    """One traceroute hop.  ``ip`` is None for a non-responding hop."""

    ttl: int
    ip: Optional[int]
    rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        return self.ip is not None

    def __repr__(self) -> str:
        if self.ip is None:
            return f"Hop({self.ttl}, *)"
        return f"Hop({self.ttl}, {format_ip(self.ip)}, {self.rtt_ms:.1f}ms)"


@dataclass(frozen=True)
class Traceroute:
    """A completed trace: source/destination plus the hop list."""

    src_ip: int
    dst_ip: int
    ts: float
    flow_id: int
    hops: Tuple[Hop, ...]
    reached: bool

    def responding_ips(self) -> List[int]:
        return [h.ip for h in self.hops if h.ip is not None]

    def hop_ips(self) -> List[Optional[int]]:
        return [h.ip for h in self.hops]

    @property
    def rtt_ms(self) -> Optional[float]:
        """RTT to the destination, when it was reached."""
        if not self.reached or not self.hops:
            return None
        return self.hops[-1].rtt_ms


class Scamper:
    """Traceroute engine bound to a topology + routing engine.

    A small per-router non-response probability models ICMP rate
    limiting and filtered routers.  The destination host always
    responds (speed test servers are live web servers).
    """

    def __init__(self, topology: Topology, router: Router,
                 evaluator: Optional[LinkStateEvaluator] = None,
                 seeds: Optional[SeedTree] = None,
                 no_response_rate: float = 0.02) -> None:
        if not 0 <= no_response_rate < 1:
            raise ValidationError(
                f"no_response_rate must be in [0, 1), got {no_response_rate}")
        self._topo = topology
        self._router = router
        self._eval = evaluator
        self._rng = (seeds or SeedTree(0)).generator("scamper")
        self.no_response_rate = no_response_rate
        #: The open snapshot: (ts, (link_id, direction) -> queue delay).
        self._snapshot: Optional[Tuple[float, Dict[Tuple[int, int], float]]] = None

    # ------------------------------------------------------------------

    @contextmanager
    def snapshot(self, ts: float) -> Iterator[None]:
        """Share one link-state table among the traces sent at *ts*.

        Inside the block, each (link, direction)'s queueing delay at
        *ts* is evaluated once, on first use, and reused by every later
        trace at the same *ts*.  The link model is a pure function of
        (link, direction, ts), so every hop and RTT is exactly what
        unshared evaluation gives.  A nested block at the same *ts*
        shares the open table.  The outermost block drops it on exit:
        link profiles and capacities may be rewritten in place between
        two rounds (``apply_differential_story`` does), and the next
        round must see them.
        """
        outer = self._snapshot
        if outer is not None and outer[0] == ts:
            yield
            return
        self._snapshot = (ts, {})
        try:
            yield
        finally:
            self._snapshot = outer

    def _queue_table(self, ts: float) -> Dict[Tuple[int, int], float]:
        """The open snapshot's table when it is at *ts*, else a fresh one."""
        if self._snapshot is not None and self._snapshot[0] == ts:
            return self._snapshot[1]
        return {}

    def trace_route(self, route: Route, ts: float,
                    dst_ip: Optional[int] = None,
                    flow_id: int = 0) -> Traceroute:
        """Render an already computed route as a traceroute.

        *dst_ip* is the probed destination address: the final hop is
        the destination itself replying from that address (a probed
        host replies from the probed IP, not from a router interface).
        When omitted, the destination PoP's loopback stands in.
        """
        topo = self._topo
        src_pop = topo.pop(route.src_pop)
        target_ip = (dst_ip if dst_ip is not None
                     else topo.pop(route.dst_pop).loopback_ip)
        queues = self._queue_table(ts)
        hops: List[Hop] = []
        cumulative_oneway = 0.0
        reached_target = False
        for idx, (link_id, direction) in enumerate(route.links):
            link = topo.link(link_id)
            receiver_pop_id = route.pops[idx + 1]
            iface = link.interface_at(receiver_pop_id)
            ip = iface.ip if iface is not None else topo.pop(receiver_pop_id).loopback_ip
            cumulative_oneway += link.delay_ms
            if self._eval is not None:
                queue = queues.get((link_id, direction))
                if queue is None:
                    queue = self._eval.observe(link, direction,
                                               ts).queue_delay_ms
                    queues[(link_id, direction)] = queue
                cumulative_oneway += queue
            # The destination itself always answers; routers may not.
            is_target = ip == target_ip
            responds = is_target or self._rng.random() >= self.no_response_rate
            if responds:
                rtt = 2.0 * cumulative_oneway + float(self._rng.exponential(0.4))
                hops.append(Hop(idx + 1, ip, rtt))
            else:
                hops.append(Hop(idx + 1, None, None))
            reached_target = reached_target or is_target
        if not reached_target:
            # The probed address lives behind the final router (a host
            # in the announced prefix): one more hop, one more reply.
            last_mile = float(self._rng.uniform(0.1, 0.8))
            rtt = 2.0 * (cumulative_oneway + last_mile) + float(
                self._rng.exponential(0.4))
            hops.append(Hop(len(route.links) + 1, target_ip, rtt))
        obs.inc("tools.traceroute.traces")
        obs.observe("tools.traceroute.hops", len(hops))
        return Traceroute(
            src_ip=src_pop.loopback_ip,
            dst_ip=target_ip,
            ts=ts,
            flow_id=flow_id,
            hops=tuple(hops),
            reached=True,
        )

    def trace(self, src_pop_id: int, dst_pop_id: int, ts: float,
              mode: GraphMode = GraphMode.FULL,
              first_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
              last_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
              flow_id: int = 0,
              dst_ip: Optional[int] = None) -> Traceroute:
        """Compute the route and render the trace in one call."""
        route = self._router.route(src_pop_id, dst_pop_id, mode=mode,
                                   first_as_policy=first_as_policy,
                                   last_as_policy=last_as_policy,
                                   flow_id=flow_id)
        return self.trace_route(route, ts, dst_ip=dst_ip, flow_id=flow_id)

    def trace_to_ip(self, src_pop_id: int, dst_ip: int, ts: float,
                    mode: GraphMode = GraphMode.FULL,
                    first_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
                    last_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
                    flow_id: int = 0) -> Optional[Traceroute]:
        """Probe an IP address, resolving where the probe lands.

        Returns ``None`` for unrouted addresses (no covering prefix).
        """
        dst_pop = self._topo.resolve_ip_to_pop(dst_ip)
        if dst_pop is None:
            return None
        return self.trace(src_pop_id, dst_pop.pop_id, ts, mode=mode,
                          first_as_policy=first_as_policy,
                          last_as_policy=last_as_policy,
                          flow_id=flow_id, dst_ip=dst_ip)
