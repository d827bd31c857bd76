"""Vectorized twins of the scalar link and traffic models.

Every function here reproduces its scalar counterpart *bit for bit*:
the numpy expressions use the same operations in the same association
order, and only IEEE-754 correctly-rounded primitives (``+ - * /``,
``min``/``max``, ``abs``, ``fmod``) plus libm ``cos`` - which numpy and
:mod:`math` both delegate to the platform libm, elementwise-identical
(the oracle tests in ``tests/test_shard.py`` assert 0-ULP drift over
dense grids).

Twinned scalar sources:

* :meth:`repro.netsim.linkstate.LinkStateEvaluator.residual_mbps` /
  ``loss_rate`` / ``queue_delay_ms`` / ``observe``
* :meth:`repro.netsim.traffic.DiurnalProfile.mean_utilization` and
  :meth:`repro.netsim.traffic.UtilizationModel.utilization`
* :func:`repro.simclock.is_weekend`

:meth:`repro.netsim.pathmodel.PathPerformanceModel.batch_rtt_ms` builds
the path RTT from these; the TCP twins live in
:mod:`repro.shard.vectcp`.

Known exact-equivalence subtleties, all handled here:

* Python ``%`` on positive floats equals ``np.fmod`` (not ``np.mod``).
* ``int(x // HOUR)`` on non-negative floats equals
  ``np.floor_divide(...).astype(int64)``.
* ``is_weekend`` goes through ``datetime`` microsecond rounding, so the
  weekend mask makes one scalar call per local day and applies it only
  to timestamps at least one second from that day's edges; the rest
  fall back to per-element scalar calls.
* Powers appear in multiplication form (``u*u``), matching the scalar
  code, because ``**`` routes through libm ``pow``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .linkstate import (LinkStateEvaluator, _CONTESTED_SHARE, _FLOOR_LOSS,
                        _LOSS_AT_CAPACITY, _LOSS_ONSET, _QUEUE_BASE_MS,
                        _QUEUE_CAP_MS, _SUBONSET_COEF)
from .topology import Link, LinkKind
from .traffic import DiurnalProfile, UtilizationModel
from ..errors import ValidationError
from ..simclock import is_weekend
from ..units import DAY, HOUR

__all__ = [
    "batch_link_utilization",
    "batch_loss_rate",
    "batch_mean_utilization",
    "batch_mean_utilization_grid",
    "batch_observe",
    "batch_queue_delay_ms",
    "batch_residual_mbps",
    "batch_utilization",
    "batch_weekend_mask",
]

#: Seconds of slack kept from a local-day boundary before trusting the
#: per-day weekend answer; datetime rounds to microseconds, so one full
#: second is an enormous safety margin.
_DAY_EDGE_MARGIN_S = 1.0


# ----------------------------------------------------------------------
# link state


def batch_residual_mbps(capacity_mbps,
                        utilization: np.ndarray) -> np.ndarray:
    """Vector twin of :meth:`LinkStateEvaluator.residual_mbps`.

    *capacity_mbps* may be a scalar (one link) or an array aligned with
    *utilization* (a mixed-link flat batch); broadcasting is elementwise
    so both shapes produce bit-identical per-element results.
    """
    if np.any(np.asarray(capacity_mbps) <= 0):
        raise ValidationError(f"capacity must be positive: {capacity_mbps}")
    if np.any(utilization < 0):
        raise ValidationError("utilization must be >= 0 in every element")
    free = capacity_mbps * (1.0 - utilization)
    over = np.maximum(1.0, utilization)
    contested = capacity_mbps * _CONTESTED_SHARE / (over * over)
    return np.maximum(free, contested)


def batch_loss_rate(utilization: np.ndarray,
                    kind: Optional[LinkKind] = None, *,
                    floor=None) -> np.ndarray:
    """Vector twin of :meth:`LinkStateEvaluator.loss_rate`.

    Pass *kind* for a single-link batch, or ``floor=`` (scalar or
    per-element array of ``_FLOOR_LOSS[kind]`` values) for a flat batch
    spanning links of different kinds.
    """
    if np.any(utilization < 0):
        raise ValidationError("utilization must be >= 0 in every element")
    if kind is not None:
        floor = _FLOOR_LOSS[kind]
    if floor is None:
        raise ValidationError("batch_loss_rate needs a kind or a floor")
    u = utilization
    u_sq = u * u
    burst = _SUBONSET_COEF * (u_sq * u_sq)
    out = floor + burst
    mid = (u > _LOSS_ONSET) & (u <= 1.0)
    if np.any(mid):
        ramp = (u[mid] - _LOSS_ONSET) / (1.0 - _LOSS_ONSET)
        out[mid] = out[mid] + _LOSS_AT_CAPACITY * ramp * ramp
    over = u > 1.0
    if np.any(over):
        overflow = (u[over] - 1.0) / u[over]
        out[over] = np.minimum(0.9, out[over] + _LOSS_AT_CAPACITY + overflow)
    return out


def batch_queue_delay_ms(utilization: np.ndarray,
                         kind: Optional[LinkKind] = None, *,
                         base=None, cap=None) -> np.ndarray:
    """Vector twin of :meth:`LinkStateEvaluator.queue_delay_ms`.

    Pass *kind* for a single-link batch, or ``base=``/``cap=`` (scalar
    or per-element arrays of the per-kind queue constants) for a flat
    mixed-link batch.
    """
    if np.any(utilization < 0):
        raise ValidationError("utilization must be >= 0 in every element")
    if kind is not None:
        base = _QUEUE_BASE_MS[kind]
        cap = _QUEUE_CAP_MS[kind]
    if base is None or cap is None:
        raise ValidationError("batch_queue_delay_ms needs a kind or "
                              "base and cap")
    u = np.minimum(utilization, 0.995)
    mm1 = base * u / (1.0 - u)
    return np.where(utilization >= 1.0, cap, np.minimum(cap, mm1))


# ----------------------------------------------------------------------
# traffic model


def _weekend_at_offset(ts: np.ndarray, utc_offset_hours: float
                       ) -> np.ndarray:
    """``is_weekend(t, utc_offset_hours)`` for every *t* in *ts*.

    One scalar call per local day the batch spans (asked at that day's
    midday), broadcast to the timestamps more than a second from the
    day's edges; the few within a second of local midnight go through
    :func:`is_weekend` one by one, so datetime's microsecond rounding
    always decides the boundary.
    """
    if ts.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    shift_s = utc_offset_hours * HOUR
    shifted = ts + shift_s
    day = np.floor_divide(shifted, DAY)
    first = float(day.min())
    index = (day - first).astype(np.int64)
    per_day = np.array([is_weekend((first + k + 0.5) * DAY - shift_s,
                                   utc_offset_hours)
                        for k in range(int(index.max()) + 1)], dtype=bool)
    weekend = per_day[index]
    into_day = shifted - day * DAY
    near_edge = ((into_day <= _DAY_EDGE_MARGIN_S)
                 | (DAY - into_day <= _DAY_EDGE_MARGIN_S))
    for i in np.flatnonzero(near_edge):
        weekend[i] = is_weekend(float(ts[i]), utc_offset_hours)
    return weekend


def batch_mean_utilization(profile: DiurnalProfile,
                           ts: np.ndarray) -> np.ndarray:
    """Vector twin of :meth:`DiurnalProfile.mean_utilization`."""
    ts = np.asarray(ts, dtype=np.float64)
    local = np.fmod(ts / HOUR + profile.utc_offset_hours, 24.0)
    bump_sum = np.zeros(ts.shape)
    for bump in profile.bumps:
        delta = np.abs(local - bump.center_hour)
        delta = np.minimum(delta, 24.0 - delta)
        inside = delta < bump.width_hours
        value = np.zeros(ts.shape)
        if np.any(inside):
            d = delta[inside]
            value[inside] = (bump.amplitude * 0.5
                             * (1.0 + np.cos(math.pi * d / bump.width_hours)))
        bump_sum = bump_sum + value
    load = profile.base + bump_sum
    weekend = _weekend_at_offset(ts, profile.utc_offset_hours)
    load = np.where(weekend, load * profile.weekend_factor, load)
    return np.maximum(0.0, load)


def batch_weekend_mask(ts: np.ndarray,
                       utc_offset_hours: np.ndarray) -> np.ndarray:
    """Per-element :func:`repro.simclock.is_weekend` over mixed offsets.

    One scalar call per distinct (offset, local day), plus per-element
    calls within a second of a local-day edge.
    """
    ts = np.asarray(ts, dtype=np.float64)
    utc_offset_hours = np.asarray(utc_offset_hours, dtype=np.float64)
    weekend = np.zeros(ts.shape, dtype=bool)
    for offset in np.unique(utc_offset_hours):
        mask = utc_offset_hours == offset
        weekend[mask] = _weekend_at_offset(ts[mask], float(offset))
    return weekend


def batch_mean_utilization_grid(ts: np.ndarray, base: np.ndarray,
                                weekend_factor: np.ndarray,
                                utc_offset_hours: np.ndarray,
                                bump_center: np.ndarray,
                                bump_width: np.ndarray,
                                bump_amplitude: np.ndarray) -> np.ndarray:
    """Flat-batch twin of :meth:`DiurnalProfile.mean_utilization`.

    Unlike :func:`batch_mean_utilization` (one profile, many times),
    every element here carries its own profile parameters, so one call
    evaluates a whole hour's worth of *different* links.  Bump columns
    are padded (``amplitude 0, width 1``): a padded slot contributes an
    exact ``+0.0``, which leaves the running sum bit-identical to the
    scalar ``sum()`` over that profile's real bumps.
    """
    ts = np.asarray(ts, dtype=np.float64)
    local = np.fmod(ts / HOUR + utc_offset_hours, 24.0)
    bump_sum = np.zeros(ts.shape)
    for j in range(bump_center.shape[1]):
        delta = np.abs(local - bump_center[:, j])
        delta = np.minimum(delta, 24.0 - delta)
        width = bump_width[:, j]
        inside = delta < width
        value = np.zeros(ts.shape)
        if np.any(inside):
            d = delta[inside]
            value[inside] = (bump_amplitude[inside, j] * 0.5
                             * (1.0 + np.cos(math.pi * d / width[inside])))
        bump_sum = bump_sum + value
    load = base + bump_sum
    weekend = batch_weekend_mask(ts, utc_offset_hours)
    load = np.where(weekend, load * weekend_factor, load)
    return np.maximum(0.0, load)


def batch_utilization(model: UtilizationModel, link_id: int, direction: int,
                      ts: np.ndarray) -> np.ndarray:
    """Vector twin of :meth:`UtilizationModel.utilization`."""
    ts = np.asarray(ts, dtype=np.float64)
    profile = model.profile(link_id, direction)
    mean = batch_mean_utilization(profile, ts)
    if profile.noise_sigma <= 0:
        return mean
    hour_idx = (np.floor_divide(ts - model.origin_ts, HOUR)
                .astype(np.int64) % UtilizationModel.NOISE_HOURS)
    hours = int(hour_idx.max(initial=-1)) + 1
    noise = model.noise_array(link_id, direction, hours)[hour_idx]
    return np.maximum(0.0, mean + noise)


def batch_link_utilization(evaluator: LinkStateEvaluator, link: Link,
                           direction: int, ts: np.ndarray) -> np.ndarray:
    """The utilization :meth:`LinkStateEvaluator.observe` reports.

    :func:`batch_utilization` with the flap hook's floor applied.  The
    hook is hour-granular (see
    :meth:`repro.faults.FaultInjector.link_flap_utilization`), so it is
    consulted once per distinct hour in the batch and its floor is
    broadcast to that hour's elements - exactly what per-element scalar
    calls would decide.
    """
    ts = np.asarray(ts, dtype=np.float64)
    u = batch_utilization(evaluator.utilization_model, link.link_id,
                          direction, ts)
    hook = evaluator.flap_hook
    if hook is not None:
        hours = np.floor_divide(ts, HOUR)
        for hour in np.unique(hours):
            in_hour = hours == hour
            floor = hook(link.link_id, direction, float(ts[in_hour][0]))
            if floor is not None:
                u[in_hour] = np.maximum(u[in_hour], floor)
    return u


def batch_observe(evaluator: LinkStateEvaluator, link: Link, direction: int,
                  ts: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vector twin of :meth:`LinkStateEvaluator.observe`.

    Returns ``(utilization, residual_mbps, loss_rate, queue_delay_ms)``
    arrays aligned with *ts*.
    """
    u = batch_link_utilization(evaluator, link, direction, ts)
    residual = batch_residual_mbps(link.capacity_mbps, u)
    loss = batch_loss_rate(u, link.kind)
    queue = batch_queue_delay_ms(u, link.kind)
    return u, residual, loss, queue
