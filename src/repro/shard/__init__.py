"""repro.shard - sharded, vectorized campaign execution.

Two orthogonal accelerations for the campaign hot loop, both exactly
equivalence-preserving (golden digests are byte-identical for any
``shards``/``batch`` combination - enforced by ``tests/test_shard.py``):

* **Vectorized batch path** (:mod:`repro.shard.batch`): an engine
  ``hour_hook`` precomputes the whole hour's tests in one pass -
  replicating the scalar RNG consumption draw for draw, then
  evaluating all link states as one flat numpy batch (per-element
  link parameters) and the hour's TCP transfers as one batch laid
  out by shared bottleneck link, through the bit-exact vector twins
  in :mod:`repro.netsim.vector` (link state) and
  :mod:`repro.shard.vectcp` (TCP).
* **Region-sharded executor** (:mod:`repro.shard.executor`): lanes are
  partitioned across shards (regions kept together), each shard runs
  its own engine, and the per-shard event streams are merged on the
  ``(hour, lane, seq)`` total order (:mod:`repro.shard.merge`) and
  replayed through the unchanged observer stack.

Entry points: :func:`run_sharded`, or ``Clasp.run_campaign(shards=...,
batch=...)``, or ``repro campaign --shards N --batch`` on the CLI.
"""

from .batch import BatchLaneExecutor, BatchPlanner, batch_executor_factory
from .executor import (ShardBatchLaneExecutor, ShardLaneExecutor,
                       ShardReport, UploadSyncObserver, partition_lanes,
                       run_sharded)
from .merge import (RecordingStepper, ShardRecorder, StampedEvent,
                    merge_streams, replay_events)
from ..netsim.vector import (batch_loss_rate, batch_mean_utilization,
                             batch_mean_utilization_grid, batch_observe,
                             batch_queue_delay_ms, batch_residual_mbps,
                             batch_utilization, batch_weekend_mask)
from .vectcp import (batch_flows_for_rtt, batch_multiflow_throughput_mbps,
                     batch_pftk_throughput_mbps)

__all__ = [
    "BatchLaneExecutor",
    "BatchPlanner",
    "RecordingStepper",
    "ShardBatchLaneExecutor",
    "ShardLaneExecutor",
    "ShardRecorder",
    "ShardReport",
    "StampedEvent",
    "UploadSyncObserver",
    "batch_executor_factory",
    "batch_flows_for_rtt",
    "batch_loss_rate",
    "batch_mean_utilization",
    "batch_mean_utilization_grid",
    "batch_multiflow_throughput_mbps",
    "batch_observe",
    "batch_pftk_throughput_mbps",
    "batch_queue_delay_ms",
    "batch_residual_mbps",
    "batch_utilization",
    "batch_weekend_mask",
    "merge_streams",
    "partition_lanes",
    "replay_events",
    "run_sharded",
]
