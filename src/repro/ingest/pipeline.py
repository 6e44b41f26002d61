"""Streaming ingestion with drift-triggered generational reorganization.

The :class:`IngestPipeline` is the long-running-service face of the
reproduction (DESIGN.md §15).  It owns one published index generation
(:class:`~repro.ingest.generation.GenerationStore`) and absorbs mutation
batches through the existing WAL'd insert/delete path, watching
per-partition health after every batch:

* **live-MPE drift** — :func:`repro.obs.health.drift_scores`, the single
  shared definition the bench health section also reads;
* **delta-store bloat** — the fraction of live points still sitting in
  unindexed delta structures;
* **tombstone ratio** — dead entries still paying page reads.

When a :class:`DriftTrigger` fires, :meth:`reorg` re-clusters the live
point set through the configured reducer (Scalable MMDR's Ellipsoid Array
merge, §4.3, when the reducer is scalable) into a **new generation** and
swaps it in via the store's build → swap → truncate protocol: queries keep
hitting the old generation until one atomic ``CURRENT`` replace, and a
crash at any physical write recovers to exactly the old or the new
generation (proven by :mod:`repro.ingest.sweep`).

Durability model — two logs, one authority:

* the *index WAL* (per generation) makes each committed insert/delete
  crash-consistent, exactly as everywhere else in the repo;
* the *oplog* (root level) additionally records each mutation in
  **original space** — reduction is lossy, so reorganization needs the
  real vectors back.  An op is appended (and flushed) to the oplog
  *before* it touches the index; on open, any oplog suffix past the
  index's recovered watermark is replayed, so a crash between the two
  logs re-delivers the in-flight op instead of losing it.

Rid spaces: callers speak **global rids**; each generation renumbers its
bulk matrix ``0..n-1`` locally (compaction frees deleted rows), carries
``rid_map`` (local → global), and the pipeline translates ids on the way
out — the same convention as the serving layer's shard workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..index import INDEX_SCHEMES
from ..index.base import VectorIndex
from ..obs.health import HealthSampler, drift_scores, sample_gauges
from ..persist.snapshot import save_index
from ..reduction.base import ReducedDataset
from ..storage.mmap_store import MmapPageStore
from ..storage.wal import (
    CHECKPOINT,
    COMMIT,
    WriteAheadLog,
    _encode,
)
from .generation import (
    GenerationStore,
    SwapCrashPoint,
)

__all__ = [
    "DriftTrigger",
    "IngestError",
    "IngestOpenReport",
    "IngestPipeline",
    "IngestThresholds",
    "Op",
    "OpLog",
    "ReorgReport",
    "build_from_vectors",
    "translate_ids",
]

#: One mutation: ``("insert", point, global_rid, beta)`` or
#: ``("delete", global_rid)`` — the same shape as the recovery harness's
#: workload ops, so the two test stacks share generators.
Op = Tuple

#: Oplog record type (private framing namespace; the oplog reuses the
#: WAL's CRC frame codec but is not a WAL).
_OP_RECORD = 1


class IngestError(RuntimeError):
    """Invalid use of the ingestion pipeline (duplicate rid, delete of a
    dead rid, reorganization with unapplied ops, ...)."""


@dataclass(frozen=True)
class IngestThresholds:
    """Reorganization triggers; any one past its limit fires.

    Defaults mirror :data:`repro.obs.health.DEFAULT_THRESHOLDS` so an
    index the health report flags "warn" is exactly an index the pipeline
    would reorganize.
    """

    drift_score: float = 0.50
    delta_fraction: float = 0.25
    tombstone_fraction: float = 0.30


@dataclass(frozen=True)
class DriftTrigger:
    """One :meth:`IngestPipeline.check_drift` verdict."""

    fired: bool
    reasons: Tuple[str, ...]
    #: Partitions whose drift score crossed the threshold.
    partitions: Tuple[int, ...]
    #: The gauge snapshot the verdict was made on.
    gauges: Dict[str, float] = field(default_factory=dict)
    #: Per-partition drift scores (the shared definition).
    scores: Dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class IngestOpenReport:
    """What one :meth:`IngestPipeline.open` had to do."""

    generation: int
    committed_seq: int
    ops_replayed: int
    oplog_dropped: int
    generations_collected: Tuple[int, ...]
    recovery_summary: str


@dataclass(frozen=True)
class ReorgReport:
    """What one build → swap → truncate cycle did."""

    old_generation: int
    new_generation: int
    n_points: int
    swap_writes: int
    reasons: Tuple[str, ...]
    drift_before: float
    drift_after: float
    wall_seconds: float


def translate_ids(ids: np.ndarray, rid_map: np.ndarray) -> np.ndarray:
    """Local → global rid translation, preserving ``-1`` padding."""
    out = np.full_like(ids, -1)
    mask = ids >= 0
    out[mask] = rid_map[ids[mask]]
    return out


@dataclass(frozen=True)
class TranslatedResult:
    """A KNN answer in global rid space."""

    ids: np.ndarray
    distances: np.ndarray


def build_from_vectors(
    vectors: Dict[int, np.ndarray],
    reduce_fn: Callable[[np.ndarray], ReducedDataset],
    scheme: str,
    store_factory=None,
) -> Tuple[VectorIndex, np.ndarray, np.ndarray]:
    """Compact a live ``{global_rid: vector}`` set into a fresh index.

    Returns ``(index, points, rid_map)`` with rows ordered by global rid —
    the deterministic layout both :meth:`IngestPipeline.reorg` and the
    bench's fresh-reference builds use, which is what makes post-swap
    fingerprints comparable to a from-scratch build over the same
    committed mutation stream.
    """
    if scheme not in INDEX_SCHEMES:
        raise IngestError(
            f"unknown scheme {scheme!r}; expected one of "
            f"{sorted(INDEX_SCHEMES)}"
        )
    if not vectors:
        raise IngestError("cannot build a generation from zero live points")
    rid_map = np.array(sorted(vectors), dtype=np.int64)
    points = np.ascontiguousarray(
        np.stack([vectors[int(rid)] for rid in rid_map]), dtype=np.float64
    )
    reduced = reduce_fn(points)
    index = INDEX_SCHEMES[scheme](reduced, store_factory=store_factory)
    return index, points, rid_map


class OpLog:
    """Append-only durable mutation stream (CRC-framed, torn-tail safe).

    Reuses the WAL's frame codec: each record is
    ``{"seq": s, "op": op_tuple}`` with the sequence doubling as the LSN.
    Sequences are monotone across truncations — a generation manifest's
    ``ingest_seq`` watermark says which prefix is already baked into its
    bulk matrix.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.entries: List[Tuple[int, Op]] = []
        if self.path.exists():
            records, valid_bytes, torn = WriteAheadLog.scan(self.path)
            if torn:
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid_bytes)
            self.entries = [
                (int(r.payload["seq"]), tuple(r.payload["op"]))
                for r in records
                if r.rtype == _OP_RECORD
            ]
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.next_seq = (self.entries[-1][0] + 1) if self.entries else 1
        self._fh = open(self.path, "ab")

    def ensure_next_seq(self, floor: int) -> None:
        """Sequences must outrun every baked watermark, even after the
        log was truncated to empty."""
        self.next_seq = max(self.next_seq, floor + 1)

    def append(self, op: Op) -> int:
        seq = self.next_seq
        self.next_seq += 1
        frame = _encode(seq, 0, _OP_RECORD, {"seq": seq, "op": tuple(op)})
        self._fh.write(frame)
        self._fh.flush()
        self.entries.append((seq, tuple(op)))
        return seq

    def drop_through(self, seq: int) -> int:
        """Physically rewrite the log without entries ``<= seq`` (they are
        baked into a published generation).  Returns how many dropped."""
        keep = [(s, op) for s, op in self.entries if s > seq]
        dropped = len(self.entries) - len(keep)
        if dropped == 0:
            return 0
        self._fh.close()
        with open(self.path, "wb") as fh:
            for s, op in keep:
                fh.write(_encode(s, 0, _OP_RECORD, {"seq": s, "op": op}))
        self._fh = open(self.path, "ab")
        self.entries = keep
        return dropped

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class IngestPipeline:
    """One logical index absorbing a mutation stream across generations.

    Construct with :meth:`create` (bulk-build generation 1 and boot) or
    :meth:`open` (recover whatever a previous process — cleanly shut down
    or crashed mid-anything — left behind).
    """

    def __init__(
        self,
        store: GenerationStore,
        *,
        reduce_fn: Callable[[np.ndarray], ReducedDataset],
        scheme: str,
        thresholds: Optional[IngestThresholds] = None,
        auto_reorg: bool = True,
        page_store: str = "memory",
    ) -> None:
        if scheme not in INDEX_SCHEMES:
            raise IngestError(
                f"unknown scheme {scheme!r}; expected one of "
                f"{sorted(INDEX_SCHEMES)}"
            )
        if page_store not in ("memory", "mmap"):
            raise IngestError(
                f"page_store must be 'memory' or 'mmap', got {page_store!r}"
            )
        self.store = store
        self.reduce_fn = reduce_fn
        self.scheme = scheme
        self.thresholds = (
            thresholds if thresholds is not None else IngestThresholds()
        )
        self.auto_reorg = auto_reorg
        self.page_store = page_store
        self.sampler = HealthSampler()
        self.reorg_reports: List[ReorgReport] = []

        # Generation-scoped state, filled by _adopt_generation / open.
        self.index: Optional[VectorIndex] = None
        self.generation = 0
        self.applied_seq = 0
        self.oplog: Optional[OpLog] = None
        self._vectors: Dict[int, np.ndarray] = {}
        self._rid_of_local: List[int] = []
        self._local_of_global: Dict[int, int] = {}
        self._deleted: set = set()
        self._rid_map_cache: Optional[np.ndarray] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        root: Union[str, Path],
        points: np.ndarray,
        reduce_fn: Callable[[np.ndarray], ReducedDataset],
        scheme: str,
        *,
        thresholds: Optional[IngestThresholds] = None,
        auto_reorg: bool = True,
        page_store: str = "memory",
        crashpoint: Optional[SwapCrashPoint] = None,
    ) -> Tuple["IngestPipeline", IngestOpenReport]:
        """Bulk-build generation 1 from ``points`` (global rids
        ``0..n-1``), publish it, and boot through the recovery path —
        every pipeline start exercises recovery, as the serving layer's
        workers do."""
        points = np.ascontiguousarray(points, dtype=np.float64)
        vectors = {i: points[i] for i in range(points.shape[0])}
        store = GenerationStore(root, crashpoint=None)
        factory = MmapPageStore if page_store == "mmap" else None
        index, matrix, rid_map = build_from_vectors(
            vectors, reduce_fn, scheme, store_factory=factory
        )
        store.install(
            index, matrix, rid_map, generation=1, ingest_seq=0, parent=None
        )
        store.publish(1)
        index.store.close()
        return cls.open(
            root,
            reduce_fn=reduce_fn,
            scheme=scheme,
            thresholds=thresholds,
            auto_reorg=auto_reorg,
            page_store=page_store,
            crashpoint=crashpoint,
        )

    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        *,
        reduce_fn: Callable[[np.ndarray], ReducedDataset],
        scheme: str,
        thresholds: Optional[IngestThresholds] = None,
        auto_reorg: bool = True,
        page_store: str = "memory",
        crashpoint: Optional[SwapCrashPoint] = None,
        replay_pending: bool = True,
    ) -> Tuple["IngestPipeline", IngestOpenReport]:
        """Recover the published generation and resume the stream.

        Open-time sequence: garbage-collect unreferenced generation
        directories (crash leftovers), recover the published generation's
        index from its snapshot + WAL, drop the oplog prefix the
        generation already bakes in, then replay any oplog suffix past the
        index's committed watermark (the at-least-once redelivery of an op
        whose index commit the crash ate).
        """
        store = GenerationStore(root, crashpoint=crashpoint)
        collected = store.collect_garbage()
        index, points, rid_map, manifest, recovery = store.load_current()

        pipeline = cls(
            store,
            reduce_fn=reduce_fn,
            scheme=scheme,
            thresholds=thresholds,
            auto_reorg=auto_reorg,
            page_store=page_store,
        )
        pipeline.generation = int(manifest["generation"])
        pipeline.index = index
        pipeline._vectors = {
            int(rid_map[i]): points[i] for i in range(rid_map.size)
        }
        pipeline._rid_of_local = [int(r) for r in rid_map]
        pipeline._local_of_global = {
            int(r): i for i, r in enumerate(rid_map)
        }
        pipeline._deleted = set()

        # The index's committed watermark: the generation WAL's last
        # CHECKPOINT carries the oplog seq it captured; every COMMIT after
        # it is exactly one op.
        gdir = store.gen_dir(pipeline.generation)
        records, _, _ = WriteAheadLog.scan(gdir / "wal.log")
        base_seq = int(manifest["ingest_seq"])
        last_ckpt_lsn = 0
        for record in records:
            if record.rtype == CHECKPOINT:
                base_seq = int(
                    record.payload.get("ingest_seq", base_seq)
                )
                last_ckpt_lsn = record.lsn
        commits_after = sum(
            1
            for r in records
            if r.rtype == COMMIT and r.lsn > last_ckpt_lsn
        )
        committed_seq = base_seq + commits_after

        oplog = OpLog(store.oplog_path)
        dropped = oplog.drop_through(int(manifest["ingest_seq"]))
        oplog.ensure_next_seq(committed_seq)
        pipeline.oplog = oplog
        pipeline.applied_seq = committed_seq

        # Re-derive bookkeeping for ops the index already holds, in seq
        # order (local rid assignment must replay identically), then
        # re-apply the pending suffix through the full path.
        pending: List[Tuple[int, Op]] = []
        for seq, op in oplog.entries:
            if seq <= committed_seq:
                pipeline._bookkeep(op)
            else:
                pending.append((seq, op))

        index.enable_wal(WriteAheadLog(gdir / "wal.log"))

        replayed = 0
        if replay_pending:
            for seq, op in pending:
                pipeline._apply_to_index(op)
                pipeline._bookkeep(op)
                pipeline.applied_seq = seq
                replayed += 1

        report = IngestOpenReport(
            generation=pipeline.generation,
            committed_seq=committed_seq,
            ops_replayed=replayed,
            oplog_dropped=dropped,
            generations_collected=tuple(collected),
            recovery_summary=recovery.summary(),
        )
        return pipeline, report

    # -- rid bookkeeping ---------------------------------------------------

    @property
    def rid_map(self) -> np.ndarray:
        if self._rid_map_cache is None or self._rid_map_cache.size != len(
            self._rid_of_local
        ):
            self._rid_map_cache = np.asarray(
                self._rid_of_local, dtype=np.int64
            )
        return self._rid_map_cache

    @property
    def n_live(self) -> int:
        return len(self._vectors)

    @property
    def next_global_rid(self) -> int:
        """A fresh global rid (callers may also bring their own)."""
        ceiling = max(self._vectors, default=-1)
        if self._deleted:
            ceiling = max(ceiling, max(self._deleted))
        return ceiling + 1

    def _bookkeep(self, op: Op) -> None:
        """Track one applied op's rid-space effects (no index access)."""
        if op[0] == "insert":
            _, point, rid, _beta = op
            rid = int(rid)
            self._local_of_global[rid] = len(self._rid_of_local)
            self._rid_of_local.append(rid)
            self._vectors[rid] = np.asarray(point, dtype=np.float64)
            self._rid_map_cache = None
        elif op[0] == "delete":
            rid = int(op[1])
            self._vectors.pop(rid, None)
            self._deleted.add(rid)
        else:  # pragma: no cover - validated before logging
            raise IngestError(f"unknown op kind {op[0]!r}")

    def _apply_to_index(self, op: Op) -> None:
        """Route one op through the WAL'd insert/delete path."""
        if op[0] == "insert":
            _, point, rid, beta = op
            local = len(self._rid_of_local)
            self.index.insert(
                np.asarray(point, dtype=np.float64), local, beta=float(beta)
            )
        else:
            local = self._local_of_global[int(op[1])]
            self.index.delete(local)

    def _validate(self, op: Op) -> None:
        kind = op[0]
        if kind == "insert":
            if len(op) != 4:
                raise IngestError(
                    "insert op must be ('insert', point, rid, beta)"
                )
            rid = int(op[2])
            if rid in self._vectors:
                raise IngestError(f"insert of live global rid {rid}")
            if rid in self._deleted:
                raise IngestError(
                    f"global rid {rid} was deleted this generation; rid "
                    "reuse is forbidden until the next reorganization"
                )
        elif kind == "delete":
            rid = int(op[1])
            if rid not in self._vectors:
                raise IngestError(f"delete of non-live global rid {rid}")
        else:
            raise IngestError(f"unknown op kind {kind!r}")

    # -- the mutation path -------------------------------------------------

    def apply(self, op: Op) -> int:
        """Apply one mutation: oplog first (durable original-space copy),
        then the WAL'd index mutation.  Returns the op's sequence."""
        if self.index is None:
            raise IngestError("pipeline is not open")
        self._validate(op)
        seq = self.oplog.append(op)
        self._apply_to_index(op)
        self._bookkeep(op)
        self.applied_seq = seq
        return seq

    def apply_batch(
        self, ops: Sequence[Op], label: Optional[str] = None
    ) -> Optional[DriftTrigger]:
        """Apply a mutation batch, sample health, and — with
        ``auto_reorg`` — reorganize when the drift trigger fires.  Returns
        the trigger verdict (``None`` for an empty batch)."""
        if not ops:
            return None
        for op in ops:
            self.apply(op)
        self.sampler.sample(self.index, label=label or "ingest_batch")
        trigger = self.check_drift()
        if trigger.fired and self.auto_reorg:
            self.reorg(trigger)
        return trigger

    # -- drift monitoring --------------------------------------------------

    def check_drift(self) -> DriftTrigger:
        """Judge the live index against the thresholds (one shared drift
        definition: :func:`repro.obs.health.drift_scores`)."""
        t = self.thresholds
        scores = drift_scores(self.index)
        gauges = sample_gauges(self.index)
        reasons: List[str] = []
        partitions = tuple(
            sorted(i for i, s in scores.items() if s > t.drift_score)
        )
        if partitions:
            worst = max(scores[i] for i in partitions)
            reasons.append(
                f"mpe drift {worst:.3f} > {t.drift_score:.3f} in "
                f"partitions {list(partitions)}"
            )
        delta = gauges.get("delta_fraction", 0.0)
        if delta > t.delta_fraction:
            reasons.append(
                f"delta fraction {delta:.3f} > {t.delta_fraction:.3f}"
            )
        tombs = gauges.get("tombstone_fraction", 0.0)
        if tombs > t.tombstone_fraction:
            reasons.append(
                f"tombstone fraction {tombs:.3f} > "
                f"{t.tombstone_fraction:.3f}"
            )
        return DriftTrigger(
            fired=bool(reasons),
            reasons=tuple(reasons),
            partitions=partitions,
            gauges=gauges,
            scores=scores,
        )

    # -- reorganization ----------------------------------------------------

    def reorg(self, trigger: Optional[DriftTrigger] = None) -> ReorgReport:
        """Re-cluster the live set into a new generation and swap.

        The old generation keeps serving queries until the single atomic
        ``CURRENT`` replace; the in-memory handover afterwards is one
        reference assignment.  A crash anywhere in here leaves the store
        recoverable to exactly one generation (see
        :mod:`repro.ingest.sweep`).
        """
        if self.index is None:
            raise IngestError("pipeline is not open")
        start = time.perf_counter()
        drift_before = max(drift_scores(self.index).values(), default=0.0)
        factory = MmapPageStore if self.page_store == "mmap" else None

        # Build (out of the query path: the live index is untouched).
        new_index, matrix, rid_map = build_from_vectors(
            self._vectors, self.reduce_fn, self.scheme, store_factory=factory
        )
        new_generation = self.generation + 1
        writes_before = self.store.physical_writes
        self.store.install(
            new_index,
            matrix,
            rid_map,
            generation=new_generation,
            ingest_seq=self.applied_seq,
            parent=self.generation,
        )

        # Swap: the commit point.
        self.store.publish(new_generation)

        # Truncate: drop the baked oplog prefix and the old generation.
        old_wal = self.index.wal
        if old_wal is not None:
            self.index.disable_wal()
            old_wal.close()
        self.store.guarded(
            "oplog_truncate",
            lambda: self.oplog.drop_through(self.applied_seq),
        )
        self.store.truncate(keep=new_generation)

        # In-memory handover.
        gdir = self.store.gen_dir(new_generation)
        new_index.enable_wal(WriteAheadLog(gdir / "wal.log"))
        self.index = new_index
        self.generation = new_generation
        self._rid_of_local = [int(r) for r in rid_map]
        self._local_of_global = {
            int(r): i for i, r in enumerate(rid_map)
        }
        self._deleted = set()
        self._rid_map_cache = None

        drift_after = max(drift_scores(self.index).values(), default=0.0)
        report = ReorgReport(
            old_generation=new_generation - 1,
            new_generation=new_generation,
            n_points=int(rid_map.size),
            swap_writes=self.store.physical_writes - writes_before,
            reasons=trigger.reasons if trigger is not None else (),
            drift_before=drift_before,
            drift_after=drift_after,
            wall_seconds=time.perf_counter() - start,
        )
        self.reorg_reports.append(report)
        self.sampler.sample(self.index, label="post_reorg")
        return report

    def checkpoint(self) -> int:
        """Mid-generation checkpoint: snapshot + truncated WAL, with the
        oplog watermark stamped into the CHECKPOINT record so a later open
        can place the oplog suffix correctly."""
        if self.index is None:
            raise IngestError("pipeline is not open")
        gdir = self.store.gen_dir(self.generation)
        wal_store = self.index.disable_wal()
        if wal_store is None:
            raise IngestError("pipeline index has no WAL attached")
        try:
            save_index(
                self.index, gdir / "ckpt", generation=self.generation
            )
        finally:
            self.index.reattach_wal(wal_store)
        return wal_store.wal.checkpoint(
            gdir / "ckpt",
            truncate=True,
            generation=self.generation,
            extra={"ingest_seq": self.applied_seq},
        )

    # -- queries -----------------------------------------------------------

    def knn(self, query: np.ndarray, k: int) -> TranslatedResult:
        result = self.index.knn(query, k)
        return TranslatedResult(
            ids=translate_ids(result.ids, self.rid_map),
            distances=result.distances,
        )

    def knn_batch(self, queries: np.ndarray, k: int) -> TranslatedResult:
        result = self.index.knn_batch(queries, k)
        return TranslatedResult(
            ids=translate_ids(result.ids, self.rid_map),
            distances=result.distances,
        )

    def live_vectors(self) -> Dict[int, np.ndarray]:
        """A copy of the live ``{global_rid: vector}`` set (what a fresh
        reference build over the committed stream must reproduce)."""
        return dict(self._vectors)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release file handles; durable state needs no farewell."""
        if self.index is not None:
            wal = self.index.wal
            if wal is not None:
                self.index.disable_wal()
                wal.close()
            self.index.store.close()
        if self.oplog is not None:
            self.oplog.close()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
