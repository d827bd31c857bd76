"""Vectorized twins of the TCP throughput model.

Every function here reproduces its scalar counterpart *bit for bit*,
under the rules set out in :mod:`repro.netsim.vector` (which holds the
link-state and traffic twins these build on):

* :func:`repro.netsim.tcp.pftk_throughput_mbps` /
  :func:`~repro.netsim.tcp.multiflow_throughput_mbps`
* :meth:`repro.speedtest.protocol.SpeedTestConfig.flows_for_rtt`

Only ``+ - * /``, ``sqrt``, ``min``/``max`` and ``rint`` appear, all
IEEE-754 correctly rounded, so numpy and :mod:`math` agree elementwise.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..netsim.tcp import DEFAULT_RWND_BYTES, _MIN_LOSS, _RTO_MIN_S
from ..speedtest.protocol import SpeedTestConfig
from ..units import MSS_BYTES, bytes_per_sec_to_mbps, ms_to_s

__all__ = [
    "batch_flows_for_rtt",
    "batch_multiflow_throughput_mbps",
    "batch_pftk_throughput_mbps",
]


def batch_pftk_throughput_mbps(rtt_ms: np.ndarray, loss_rate: np.ndarray,
                               mss_bytes: int = MSS_BYTES,
                               rwnd_bytes: int = DEFAULT_RWND_BYTES
                               ) -> np.ndarray:
    """Vector twin of :func:`repro.netsim.tcp.pftk_throughput_mbps`."""
    rtt_ms = np.asarray(rtt_ms, dtype=np.float64)
    p = np.asarray(loss_rate, dtype=np.float64)
    if np.any(rtt_ms <= 0):
        raise ValidationError("rtt must be positive in every element")
    if np.any((p < 0) | (p >= 1)):
        raise ValidationError("loss_rate must be in [0, 1) in every element")
    rtt_s = ms_to_s(rtt_ms)
    window_limit_bytes_per_s = rwnd_bytes / rtt_s
    b = 2.0
    t0 = np.maximum(_RTO_MIN_S, 4.0 * rtt_s)
    with np.errstate(divide="ignore"):
        denom = (rtt_s * np.sqrt(2.0 * b * p / 3.0)
                 + t0 * np.minimum(1.0, 3.0 * np.sqrt(3.0 * b * p / 8.0))
                 * p * (1.0 + 32.0 * p * p))
        segments_per_s = 1.0 / denom
    rate_bytes = np.minimum(window_limit_bytes_per_s,
                            segments_per_s * mss_bytes)
    return np.where(p < _MIN_LOSS,
                    bytes_per_sec_to_mbps(window_limit_bytes_per_s),
                    bytes_per_sec_to_mbps(rate_bytes))


def batch_multiflow_throughput_mbps(rtt_ms: np.ndarray,
                                    loss_rate: np.ndarray,
                                    n_flows: np.ndarray,
                                    path_avail_mbps: np.ndarray,
                                    mss_bytes: int = MSS_BYTES,
                                    rwnd_bytes: int = DEFAULT_RWND_BYTES
                                    ) -> np.ndarray:
    """Vector twin of :func:`repro.netsim.tcp.multiflow_throughput_mbps`."""
    n_flows = np.asarray(n_flows, dtype=np.int64)
    path_avail_mbps = np.asarray(path_avail_mbps, dtype=np.float64)
    if np.any(n_flows < 1):
        raise ValidationError("n_flows must be >= 1 in every element")
    if np.any(path_avail_mbps < 0):
        raise ValidationError("path_avail_mbps must be >= 0 in every element")
    per_flow = batch_pftk_throughput_mbps(rtt_ms, loss_rate,
                                          mss_bytes, rwnd_bytes)
    return np.minimum(per_flow * n_flows, path_avail_mbps)


def batch_flows_for_rtt(config: SpeedTestConfig,
                        rtt_ms: np.ndarray) -> np.ndarray:
    """Vector twin of :meth:`SpeedTestConfig.flows_for_rtt` (int64)."""
    rtt_ms = np.asarray(rtt_ms, dtype=np.float64)
    if np.any(rtt_ms <= 0):
        raise ValidationError("rtt must be positive in every element")
    scale = np.maximum(1.0, rtt_ms / config.flow_scale_rtt_ms)
    flows = np.rint(config.n_flows * scale).astype(np.int64)
    return np.minimum(config.max_flows, flows)
