"""Fault-tolerant sharded serving layer (DESIGN.md §14).

One logical MMDR/iDistance index is served from N shard worker processes:

* :class:`~repro.serve.planner.ShardPlanner` partitions a
  :class:`~repro.reduction.base.ReducedDataset` across shards —
  partition-aligned for the extended iDistance (each ellipsoid is an
  independently searchable reduced subspace, §4 of the paper), hash-of-rid
  for SequentialScan / GlobalLDR;
* :class:`~repro.serve.supervisor.Supervisor` builds each shard's index,
  checkpoints it (snapshot + WAL), and keeps one
  :class:`~repro.serve.worker.ShardWorker` process per shard alive —
  respawning crashed workers through real snapshot + WAL recovery;
* :class:`~repro.serve.router.Router` scatter-gathers per-shard top-K over
  a length-prefixed CRC-framed socket protocol and merges into the exact
  global top-K, with a per-request robustness ladder: deadline →
  bounded retry with backoff → supervised respawn → route-around
  (``partial=True`` naming the missing shards), plus a per-shard circuit
  breaker fed by request failures and ``check_health()`` pings, and
  admission control (bounded in-flight, typed
  :class:`~repro.serve.router.OverloadError` shed).

Merged answers are sha256-fingerprint-identical to the single-node index
by construction: shards hold disjoint rid sets with bit-identical reduced
representations (same subspace bases, same projections — only subset
rows), so the union of per-shard top-K contains the global top-K, and the
merge is a deterministic (distance, rid) sort.  Every rung of the ladder
is deterministically testable via :class:`~repro.serve.faults.
WorkerFaultSpec` (kill/hang/garble/drop on the N-th request) and per-shard
seeded :class:`~repro.storage.faults.FaultPlan` storage faults.
"""

from .faults import WorkerFaultSpec
from .planner import ShardAssignment, ShardPlan, ShardPlanner
from .protocol import (
    ConnectionLostError,
    GarbledFrameError,
    ProtocolError,
    ServeError,
)
from .router import (
    NoShardsAvailableError,
    OverloadError,
    RollingSwapReport,
    Router,
    RouterConfig,
    RouterResult,
    ShardUnavailableError,
)
from .supervisor import Supervisor
from .breaker import BreakerState, CircuitBreaker

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ConnectionLostError",
    "GarbledFrameError",
    "NoShardsAvailableError",
    "OverloadError",
    "ProtocolError",
    "RollingSwapReport",
    "Router",
    "RouterConfig",
    "RouterResult",
    "ServeError",
    "ShardAssignment",
    "ShardPlan",
    "ShardPlanner",
    "ShardUnavailableError",
    "Supervisor",
    "WorkerFaultSpec",
]
