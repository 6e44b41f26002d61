"""Common index API and per-query statistics.

Figures 9 and 10 compare three indexing schemes (iMMDR, iLDR, gLDR) plus a
sequential scan, reporting page accesses and CPU time per KNN query.  Every
index here is built from a :class:`~repro.reduction.base.ReducedDataset`,
owns a simulated page store + buffer pool, and answers
:meth:`VectorIndex.knn` with both the neighbor ids and a
:class:`QueryStats` diff of its cost counters around the search.

Distances: the search metric is L2 (the paper uses L2 for searching;
Mahalanobis is only for *discovering* the ellipsoids).  Distances within a
subspace are computed between reduced representations in that subspace's
axis system; outliers use full-dimensional L2.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from contextlib import contextmanager
from pathlib import Path
from typing import Union

from ..linalg.kernels import normalize_rows
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, ensure_tracer
from ..storage.buffer import BufferPool
from ..storage.faults import CrashPoint, FaultPlan, FaultyPageStore
from ..storage.metrics import CostCounters, CostSnapshot
from ..storage.pager import PageStore, StoreWrapper
from ..storage.wal import WALPageStore, WriteAheadLog

__all__ = [
    "InvalidQueryError",
    "QueryStats",
    "KNNResult",
    "BatchKNNResult",
    "VectorIndex",
    "check_query_block",
    "expand_valid_rows",
]


class InvalidQueryError(ValueError):
    """A query vector the index cannot answer meaningfully.

    Raised for NaN/Inf components and dimensionality mismatches.  NaN
    comparisons are all false, so an unchecked NaN query would silently
    return garbage neighbors — rejection is the only correct answer.
    :meth:`VectorIndex.knn` raises; :meth:`VectorIndex.knn_batch` instead
    skips the offending rows and reports them in
    :attr:`BatchKNNResult.invalid_queries`.
    """

#: Default buffer pool size (pages).  512 pages = 2 MiB: large enough that a
#: single query's working set fits, small enough that one query cannot cache
#: a whole dataset for the next.
DEFAULT_POOL_PAGES = 512


@dataclass(frozen=True)
class QueryStats:
    """Cost of one query (a diff of two counter snapshots)."""

    page_reads: int
    distance_computations: int
    distance_flops: int
    key_comparisons: int
    cpu_seconds: float

    @staticmethod
    def from_snapshots(
        before: CostSnapshot, after: CostSnapshot
    ) -> "QueryStats":
        diff = after - before
        return QueryStats(
            page_reads=diff.total_page_reads,
            distance_computations=diff.distance_computations,
            distance_flops=diff.distance_flops,
            key_comparisons=diff.key_comparisons,
            cpu_seconds=diff.cpu_seconds,
        )

    @property
    def cpu_work(self) -> int:
        """Deterministic CPU proxy: dimension-weighted distance work plus
        1-d key comparisons (each counts one unit)."""
        return self.distance_flops + self.key_comparisons


@dataclass(frozen=True)
class KNNResult:
    """Neighbor ids (nearest first), their scores, and the query's cost.

    ``distances`` are the index's search scores: within-subspace reduced L2
    (which lower-bounds the true distance) or exact L2 for outliers.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats

    def __post_init__(self) -> None:
        if self.ids.shape != self.distances.shape:
            raise ValueError(
                f"ids shape {self.ids.shape} != distances "
                f"shape {self.distances.shape}"
            )

    @property
    def k(self) -> int:
        return self.ids.size


@dataclass(frozen=True)
class BatchKNNResult:
    """Answers for a whole query workload in workload order.

    ``ids`` and ``distances`` are ``(Q, k)`` (nearest first per row);
    ``stats`` has one :class:`QueryStats` per query.  Per-query accounting
    is defined under the *cold-cache* protocol (buffer pool empty at each
    query's start — the paper's per-query measurement), and is bit-identical
    to answering the same queries one at a time through :meth:`VectorIndex.knn`
    with a cache reset before each.  ``wall_seconds`` is the real elapsed
    time for the whole batch; on the shared-scan path each query's
    ``cpu_seconds`` is the batch wall time apportioned equally, since the
    shared-scan kernels have no meaningful per-query wall attribution.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: Tuple[QueryStats, ...]
    wall_seconds: float
    #: Workload row indices rejected by validation (NaN/Inf components;
    #: zero vectors under the cosine metric).  Those rows hold ids of -1,
    #: NaN distances, and all-zero stats — the rest of the batch is
    #: answered normally (skip-and-report, not abort).
    invalid_queries: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.ids.shape != self.distances.shape:
            raise ValueError(
                f"ids shape {self.ids.shape} != distances "
                f"shape {self.distances.shape}"
            )
        if self.ids.ndim != 2 or self.ids.shape[0] != len(self.stats):
            raise ValueError(
                f"expected ({len(self.stats)}, k) id matrix, "
                f"got shape {self.ids.shape}"
            )

    @property
    def n_queries(self) -> int:
        return self.ids.shape[0]

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    def __len__(self) -> int:
        return self.n_queries

    def __getitem__(self, i: int) -> KNNResult:
        """One query's answer as a standalone :class:`KNNResult`."""
        return KNNResult(
            ids=self.ids[i], distances=self.distances[i], stats=self.stats[i]
        )


def check_query_block(
    queries: np.ndarray,
    k: int,
    dimensionality: Optional[int],
    metric: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a ``(Q, d)`` query block for a batched KNN call.

    A bad shape, ``k < 1`` or a dimensionality other than
    ``dimensionality`` (``None``: unchecked) is structural and raises.
    Returns the block as C-contiguous float64 plus the mask of its valid
    rows: finite, and of nonzero norm under ``"cosine"`` (a zero vector
    has no direction).  Invalid rows are skipped and reported, not raised.
    """
    queries = np.ascontiguousarray(
        np.atleast_2d(np.asarray(queries, dtype=np.float64))
    )
    if queries.ndim != 2:
        raise ValueError(
            f"queries must be (Q, d), got shape {queries.shape}"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dimensionality is not None and queries.shape[1] != dimensionality:
        raise InvalidQueryError(
            f"queries have {queries.shape[1]} dimensions; the index "
            f"was built over {dimensionality}-dimensional data"
        )
    valid = np.isfinite(queries).all(axis=1)
    if metric == "cosine":
        valid &= np.linalg.norm(queries, axis=1) > 0.0
    return queries, valid


def expand_valid_rows(
    ids: np.ndarray,
    distances: np.ndarray,
    stats: Sequence[QueryStats],
    valid: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Tuple[QueryStats, ...]]:
    """Spread answers for the ``valid`` rows back over the whole block:
    a skipped row gets ``-1`` ids, NaN distances and zero stats."""
    n_queries, k_cols = valid.shape[0], ids.shape[1]
    full_ids = np.full((n_queries, k_cols), -1, dtype=np.int64)
    full_dists = np.full((n_queries, k_cols), np.nan, dtype=np.float64)
    full_ids[valid] = ids
    full_dists[valid] = distances
    full_stats = [QueryStats(0, 0, 0, 0, 0.0)] * n_queries
    for row, s in zip(np.flatnonzero(valid).tolist(), stats):
        full_stats[row] = s
    return full_ids, full_dists, tuple(full_stats)


class VectorIndex(ABC):
    """A KNN index over a reduced dataset, with its own simulated storage."""

    #: Scheme name used in experiment tables ("iDistance", "gLDR", "SeqScan").
    name: str = "index"

    def __init__(
        self,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory: Optional[Callable[[CostCounters], PageStore]] = None,
    ) -> None:
        """``store_factory`` selects the physical page store: any callable
        taking a :class:`~repro.storage.metrics.CostCounters` and returning
        a :class:`~repro.storage.pager.PageStore` (e.g.
        :class:`~repro.storage.mmap_store.MmapPageStore` for out-of-core
        operation).  Defaults to the in-memory store.  Logical I/O
        accounting is store-independent, so swapping the factory never
        changes counters or results."""
        self.counters = CostCounters()
        factory = store_factory if store_factory is not None else PageStore
        self.store = factory(self.counters)
        self.pool = BufferPool(self.store, pool_pages, self.counters)
        # Online-mutation state (DESIGN.md §10): inserts so far, deleted
        # rids, and per-subspace (count, ProjDist_r sum) of routed inserts.
        self.n_inserted = 0
        self._tombstones: set = set()
        self._tomb_cache: Optional[np.ndarray] = None
        self._insert_residuals: Dict[int, Tuple[int, float]] = {}

    @abstractmethod
    def knn(
        self,
        query: np.ndarray,
        k: int,
        tracer: Optional[Tracer] = None,
    ) -> KNNResult:
        """The K nearest neighbors of ``query`` under the index's scoring.

        Pass a :class:`~repro.obs.Tracer` to record per-phase spans (and
        per-span cost deltas) for this query; the default is a shared
        no-op tracer, under which the query's counters and results are
        bit-identical to an uninstrumented run.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Optional[Tracer] = None,
    ) -> BatchKNNResult:
        """Answer every query in ``(Q, d)`` ``queries``.

        Results (ids, distances) and per-query cost accounting are
        bit-identical to a per-query :meth:`knn` loop under the cold-cache
        protocol.  An index whose one search engine can answer a block of
        queries at once (iDistance's shared scan) overrides
        :meth:`_knn_batch` and runs the whole block through it, amortizing
        per-query Python and small-kernel overhead; every other index runs
        the cold per-query loop.

        The whole call runs under one ``knn.batch`` span; a real ``tracer``
        also gets a ``knn.batch_qps`` gauge.  The index's own counters are
        advanced by the batch totals either way.

        Rows with NaN/Inf components are *skipped and reported* (see
        :attr:`BatchKNNResult.invalid_queries`) rather than aborting the
        workload; a dimensionality mismatch is structural to the whole
        matrix and raises :class:`InvalidQueryError` outright.
        """
        queries, valid = check_query_block(
            queries, k, self.query_dim, self.metric
        )
        tracer = ensure_tracer(tracer)
        invalid_rows = np.flatnonzero(~valid)
        valid_queries = queries if valid.all() else queries[valid]
        start = time.perf_counter()
        with tracer.span(
            "knn.batch",
            counters=self.counters,
            scheme=self.name,
            n_queries=queries.shape[0],
            k=k,
            invalid_queries=int(invalid_rows.size),
        ):
            ids, distances, stats = self._knn_batch(valid_queries, k, tracer)
        wall = time.perf_counter() - start
        if invalid_rows.size:
            if tracer.enabled:
                tracer.counter("knn.invalid_queries").inc(
                    int(invalid_rows.size)
                )
            ids, distances, stats = expand_valid_rows(
                ids, distances, stats, valid
            )
        if tracer.enabled and wall > 0:
            tracer.gauge("knn.batch_qps").set(queries.shape[0] / wall)
        return BatchKNNResult(
            ids=ids,
            distances=distances,
            stats=tuple(stats),
            wall_seconds=wall,
            invalid_queries=tuple(invalid_rows.tolist()),
        )

    def _knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Tracer,
    ) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
        """Answer a block of validated queries: ``(Q, k)`` ids/distances
        plus per-query stats.  This reference execution is the cold
        per-query :meth:`knn` loop; an override must match its answers
        and page/distance/key counts bit for bit."""
        id_rows: List[np.ndarray] = []
        dist_rows: List[np.ndarray] = []
        stats: List[QueryStats] = []
        for query in queries:
            self.reset_cache()
            result = self.knn(query, k, tracer=tracer)
            id_rows.append(result.ids)
            dist_rows.append(result.distances)
            stats.append(result.stats)
        if not id_rows:
            return (
                np.empty((0, 0), dtype=np.int64),
                np.empty((0, 0), dtype=np.float64),
                [],
            )
        return np.vstack(id_rows), np.vstack(dist_rows), stats

    def reset_cache(self) -> None:
        """Drop the buffer pool contents (cold-cache measurement)."""
        self.pool.clear()

    # ------------------------------------------------------------------
    # robustness
    # ------------------------------------------------------------------

    @property
    def query_dim(self) -> Optional[int]:
        """Expected query dimensionality (the original-space width), or
        ``None`` when the index has no reduced dataset to derive it from."""
        reduced = getattr(self, "reduced", None)
        if reduced is None:
            return None
        return int(reduced.dimensionality)

    @property
    def metric(self) -> str:
        """The search metric the index answers under (``"l2"`` or
        ``"cosine"``), inherited from the reduced dataset it was built
        over.  Cosine is implemented as L2 over unit-normalized vectors
        (DESIGN.md §13): the stored data was normalized at reduction time,
        and queries/inserts are normalized on the way in, after which every
        kernel, bound, and counter behaves exactly as under L2."""
        reduced = getattr(self, "reduced", None)
        return getattr(reduced, "metric", "l2") if reduced is not None else "l2"

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        """Validate one query vector, raising :class:`InvalidQueryError`.

        Rejects non-1-d inputs, dimensionality mismatches, and NaN/Inf
        components — all of which would otherwise flow through the distance
        kernels and come back as confidently wrong neighbors.
        """
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise InvalidQueryError(
                f"query must be a 1-d vector, got shape {query.shape}"
            )
        expected = self.query_dim
        if expected is not None and query.shape[0] != expected:
            raise InvalidQueryError(
                f"query has {query.shape[0]} dimensions; the index was "
                f"built over {expected}-dimensional data"
            )
        if not np.isfinite(query).all():
            raise InvalidQueryError(
                "query contains NaN or Inf components"
            )
        if self.metric == "cosine":
            if float(np.linalg.norm(query)) == 0.0:
                raise InvalidQueryError(
                    "cosine similarity is undefined for the zero vector"
                )
            # Through normalize_rows (not a scalar division) so the
            # per-query path is bit-identical to the batched one.
            query = normalize_rows(query[None, :])[0]
        return query

    def _prepare_point(self, point: np.ndarray) -> np.ndarray:
        """Canonicalize one insert vector: contiguous float64, normalized
        to unit length under the cosine metric (zero vectors are rejected
        — they have no direction to index)."""
        point = np.ascontiguousarray(np.asarray(point, dtype=np.float64))
        if self.metric == "cosine":
            if float(np.linalg.norm(point)) == 0.0:
                raise InvalidQueryError(
                    "cannot insert the zero vector under the cosine metric"
                )
            point = normalize_rows(point[None, :])[0]
        return point

    def _repoint_store(self, store: PageStore) -> None:
        """Swap every component's store reference (buffer pool, B+-tree,
        Hybrid trees) to ``store`` — the attach/detach primitive shared by
        fault injection and WAL protection."""
        self.store = store
        self.pool.store = store
        tree = getattr(self, "tree", None)
        if tree is not None:
            tree.store = store
        for hybrid in getattr(self, "trees", []):
            hybrid.store = store

    def _check_unwrapped(self) -> None:
        """Refuse to stack store wrappers: ``disable_wal`` and
        ``disable_faults`` each peel exactly one known layer, so a second
        layer would hide the first from them."""
        if isinstance(self.store, StoreWrapper):
            raise RuntimeError(
                f"the index's store is already wrapped "
                f"({type(self.store).__name__}); disable that layer first"
            )

    def enable_faults(
        self,
        plan: FaultPlan,
        metrics: Optional[MetricsRegistry] = None,
    ) -> FaultyPageStore:
        """Wrap this index's page store in a seeded fault injector.

        Every component holding a store reference (buffer pool, B+-tree,
        Hybrid trees) is repointed at the wrapper, so all subsequent page
        traffic flows through the :class:`~repro.storage.faults.FaultPlan`.
        Returns the wrapper; its ``fault_metrics`` registry carries the
        ``faults.injected*`` / ``faults.retried`` counters.  A store that
        is already wrapped (a second plan, or the WAL) is refused — see
        :meth:`_check_unwrapped`.
        """
        self._check_unwrapped()
        faulty = FaultyPageStore(self.store, plan, metrics=metrics)
        self._repoint_store(faulty)
        return faulty

    def disable_faults(self) -> None:
        """Undo :meth:`enable_faults`, restoring the pristine inner store."""
        store = self.store
        if not isinstance(store, FaultyPageStore):
            return
        self._repoint_store(store.inner)

    # ------------------------------------------------------------------
    # durability (DESIGN.md §10)
    # ------------------------------------------------------------------

    def enable_wal(
        self,
        wal: Union[WriteAheadLog, str, Path],
        crashpoint: Optional[CrashPoint] = None,
    ) -> WALPageStore:
        """Put every subsequent page mutation under write-ahead logging.

        ``wal`` is an open :class:`~repro.storage.wal.WriteAheadLog` or a
        path to create one at.  All store references are repointed at a
        :class:`~repro.storage.wal.WALPageStore` wrapper, after which
        :meth:`insert` / :meth:`delete` run as logged transactions and are
        recoverable via :func:`repro.recovery.recover`.  ``crashpoint``
        arms a deterministic simulated crash (test harnesses).

        Layering rules: WAL-over-faults or faults-over-WAL is not
        supported — disable one before enabling the other.
        """
        self._check_unwrapped()
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        wal_store = WALPageStore(self.store, wal, crashpoint=crashpoint)
        self._repoint_store(wal_store)
        return wal_store

    def disable_wal(self) -> Optional[WALPageStore]:
        """Detach WAL protection, restoring the inner store.

        Returns the detached wrapper (so a checkpoint can reattach it via
        :meth:`reattach_wal`), or ``None`` when WAL was not enabled.  The
        log itself is left open and untouched.
        """
        store = self.store
        if not isinstance(store, WALPageStore):
            return None
        self._repoint_store(store.inner)
        return store

    def reattach_wal(self, wal_store: WALPageStore) -> None:
        """Re-point the index at a wrapper from :meth:`disable_wal`
        (checkpointing detaches around the snapshot write)."""
        if wal_store.inner is not self.store:
            raise RuntimeError(
                "wal_store does not wrap this index's current store"
            )
        self._repoint_store(wal_store)

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log, or ``None`` when not enabled."""
        store = self.store
        if isinstance(store, WALPageStore):
            return store.wal
        return None

    @contextmanager
    def _wal_txn(self, kind: str):
        """Run a mutation as a WAL transaction when WAL is enabled.

        Yields the open :class:`~repro.storage.wal.WALTransaction` (the
        mutator calls ``set_meta`` with its recovery after-image before
        the block ends) or ``None`` when the index is unprotected — the
        mutation then simply runs unlogged, preserving the pre-WAL API.
        """
        wal = self.wal
        if wal is None:
            yield None
            return
        with wal.transaction(kind) as txn:
            yield txn

    def _apply_recovery_meta(self, meta: dict) -> None:
        """Apply one committed transaction's index-level after-image
        (recovery's metadata redo).  Subclasses that support online
        mutation override this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support metadata recovery"
        )

    def _holds(self, rid: int) -> bool:
        """Whether ``rid`` names a stored entry, live or tombstoned
        (bulk-loaded or inserted).  Schemes with online mutation
        override this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support online mutation"
        )

    def _check_new_rid(self, rid: int) -> int:
        """The insert-side rid rule every scheme shares: a rid that is
        live, or was deleted before the next rebuild, cannot be inserted
        (``ValueError``).  Returns the rid as an int."""
        rid = int(rid)
        if rid in self._tombstones:
            raise ValueError(
                f"rid {rid} was deleted from this index; deleted ids "
                "cannot be reused before a rebuild"
            )
        if self._holds(rid):
            raise ValueError(f"rid {rid} is already live in this index")
        return rid

    @property
    def live_count(self) -> int:
        """Visible points: bulk load plus online inserts minus deletes."""
        reduced = getattr(self, "reduced", None)
        bulk = int(reduced.n_points) if reduced is not None else 0
        return bulk + self.n_inserted - len(self._tombstones)

    def _tombstone_array(self) -> np.ndarray:
        """Sorted int64 array of deleted rids, for vectorized filtering.

        Cached by size — tombstone sets only grow, so a size match means
        the cache is current.
        """
        tombs = self._tombstones
        if not tombs:
            return np.empty(0, dtype=np.int64)
        cache = self._tomb_cache
        if cache is None or cache.size != len(tombs):
            cache = np.fromiter(
                sorted(tombs), dtype=np.int64, count=len(tombs)
            )
            self._tomb_cache = cache
        return cache

    def _alive_mask(self, rids: np.ndarray) -> Optional[np.ndarray]:
        """Boolean mask of the entries of ``rids`` that are not deleted,
        or ``None`` when nothing is deleted (no filtering needed).

        Membership runs as a ``searchsorted`` into the sorted tombstone
        array: ``np.isin`` costs tens of microseconds a call at any size.
        """
        tombs = self._tombstone_array()
        if not tombs.size:
            return None
        hit = np.minimum(np.searchsorted(tombs, rids), tombs.size - 1)
        return tombs[hit] != rids

    @property
    def size_pages(self) -> int:
        """Total pages the index occupies."""
        return self.store.allocated_pages

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of buffered reads served without physical I/O."""
        return self.pool.hit_rate

    def storage_stats(self) -> dict:
        """Buffer-pool and page-store state, for traces and tests.

        Exposes the pool's hit/miss split (``logical_reads`` vs
        ``physical_reads`` in counter terms) so cache behavior can be
        asserted without reaching into the pool.
        """
        return {
            "buffer_hits": self.pool.hits,
            "buffer_misses": self.pool.misses,
            "buffer_hit_rate": self.pool.hit_rate,
            "resident_pages": len(self.pool),
            "capacity_pages": self.pool.capacity_pages,
            "allocated_pages": self.store.allocated_pages,
        }

    def _measured(
        self,
        fn,
        *args,
        tracer: Tracer = NULL_TRACER,
        **kwargs,
    ):
        """Run ``fn`` under the CPU timer and return (result, QueryStats).

        When a real ``tracer`` is supplied the call is wrapped in a
        ``knn.query`` span (cost delta = the whole query) and the buffer
        pool feeds ``buffer.hits``/``buffer.misses`` counters for the
        duration.  ``fn`` receives ``*args``/``kwargs`` untouched —
        callers that want per-phase spans pass the tracer along inside
        ``args`` themselves.
        """
        before = self.counters.snapshot()
        previous_pool_tracer = self.pool.tracer
        self.pool.tracer = tracer if tracer.enabled else None
        try:
            with tracer.span(
                "knn.query", counters=self.counters, scheme=self.name
            ):
                with self.counters.cpu_timer():
                    result = fn(*args, **kwargs)
        finally:
            self.pool.tracer = previous_pool_tracer
        stats = QueryStats.from_snapshots(before, self.counters.snapshot())
        if tracer.enabled:
            tracer.gauge("buffer.hit_rate").set(self.pool.hit_rate)
        return result, stats

    # ------------------------------------------------------------------
    # observability (DESIGN.md §12)
    # ------------------------------------------------------------------

    def explain(
        self,
        query: np.ndarray,
        k: int,
    ) -> "QueryExplain":  # noqa: F821 - imported lazily below
        """Run one cold-cache query under a private tracer and return its
        :class:`~repro.obs.explain.QueryExplain` — the EXPLAIN ANALYZE
        view of where that query's pages, distance evaluations, and key
        comparisons went, phase by phase and (for iDistance) partition by
        partition.

        The query executes for real: the index's counters advance exactly
        as a normal :meth:`knn` call would, and the explain totals equal
        that call's :class:`QueryStats` counter for counter.
        """
        from ..obs.explain import explain_from_tracer

        tracer = Tracer(counters=self.counters)
        self.reset_cache()
        result = self.knn(query, k, tracer=tracer)
        return explain_from_tracer(
            tracer,
            k=k,
            result_ids=result.ids.tolist(),
            delta_rids=self._delta_rids(),
        )

    def _delta_rids(self):
        """Row ids currently living in delta structures (online inserts
        not yet merged into the bulk-loaded index); schemes with online
        mutation override this."""
        return ()

    def _note_routed_insert(self, subspace_idx: int, residual: float) -> None:
        """Record one online insert's routing residual (its ``ProjDist_r``
        to the chosen subspace) for the health sampler's live MPE
        estimate.  Outlier-routed inserts (``subspace_idx < 0``) carry no
        subspace residual."""
        if subspace_idx < 0:
            return
        count, total = self._insert_residuals.get(subspace_idx, (0, 0.0))
        self._insert_residuals[subspace_idx] = (
            count + 1,
            total + float(residual),
        )
