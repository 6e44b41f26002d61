"""Continuous ingestion with drift-triggered generational reorganization.

The paper's reduction is *adaptive at build time*: MMDR fits ellipsoid
clusters to the data it is given.  A mutation stream erodes that fit —
insert residuals drag each partition's live MPE away from its bulk-load
value, deletes leave tombstones, and online inserts pile into delta
structures every query must scan.  This package closes the loop
(DESIGN.md §15):

* :class:`IngestPipeline` — routes mutation batches through the WAL'd
  insert/delete path, durably logging each op in **original space** to an
  oplog first (reduction is lossy; reorganization needs the real vectors
  back), and watches per-partition health after every batch.
* :func:`~repro.obs.health.drift_scores` thresholds + delta bloat +
  tombstone ratio decide *when* to reorganize (:class:`IngestThresholds`,
  :class:`DriftTrigger`).
* :class:`~repro.ingest.generation.GenerationStore` — *how* to
  reorganize: build the re-clustered index as a fresh on-disk
  **generation**, publish it with one atomic ``CURRENT`` replace, then
  truncate the old generation and the baked oplog prefix.  Queries never
  block (the old generation serves until the swap instant) and a crash at
  any physical write recovers to exactly the old or the new generation.
* :mod:`repro.ingest.sweep` — proves that last claim by crashing at every
  write of the sequence and fingerprint-checking recovery.

The serving layer rolls the same swap across shards one at a time
(:meth:`repro.serve.Router.rolling_swap`), draining each shard and
respawning it from the new generation while the degrade ladder routes
around it.
"""

from ..bench.fingerprint import batch_fingerprint
from .generation import (
    GenerationError,
    GenerationMissingError,
    GenerationStore,
)
from .pipeline import (
    DriftTrigger,
    IngestError,
    IngestOpenReport,
    IngestPipeline,
    IngestThresholds,
    OpLog,
    ReorgReport,
    build_from_vectors,
    translate_ids,
)
from .sweep import (
    SwapSweepOutcome,
    SwapSweepReport,
    swap_crash_sweep,
)

__all__ = [
    "DriftTrigger",
    "GenerationError",
    "GenerationMissingError",
    "GenerationStore",
    "IngestError",
    "IngestOpenReport",
    "IngestPipeline",
    "IngestThresholds",
    "OpLog",
    "ReorgReport",
    "SwapSweepOutcome",
    "SwapSweepReport",
    "batch_fingerprint",
    "build_from_vectors",
    "swap_crash_sweep",
    "translate_ids",
]
