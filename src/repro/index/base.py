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
    "stack_answers",
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


def stack_answers(
    results: Sequence[KNNResult],
) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
    """Per-query answers as one block engine's output: the ``(Q, k)``
    ids and distances plus the per-query stats."""
    return (
        np.vstack([r.ids for r in results]),
        np.vstack([r.distances for r in results]),
        [r.stats for r in results],
    )


class VectorIndex:
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
        self._insert_residuals: Dict[int, Tuple[int, float]] = {}

    def knn(
        self,
        query: np.ndarray,
        k: int,
        tracer: Optional[Tracer] = None,
    ) -> KNNResult:
        """The K nearest neighbors of ``query`` under the index's scoring.

        ``query`` is admitted as a one-row block by :meth:`_admit` (the
        rule :meth:`knn_batch` applies to a whole block); a row that block
        admission would skip raises :class:`InvalidQueryError` here.

        Pass a :class:`~repro.obs.Tracer` to record per-phase spans (and
        per-span cost deltas) for this query; the default is a shared
        no-op tracer, under which the query's counters and results are
        bit-identical to an uninstrumented run.
        """
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise InvalidQueryError(
                f"query must be a 1-d vector, got shape {query.shape}"
            )
        admitted, valid = self._admit(query[None, :], k)
        if not valid[0]:
            raise InvalidQueryError(
                "cosine similarity is undefined for the zero vector"
                if np.isfinite(query).all()
                else "query contains NaN or Inf components"
            )
        return self._answer(admitted[0], k, ensure_tracer(tracer))

    def _search(
        self, query: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The scheme's per-query engine: ids and scores of one admitted
        query's K nearest neighbors, nearest first."""
        raise NotImplementedError

    def _answer(
        self, query: np.ndarray, k: int, tracer: Tracer
    ) -> KNNResult:
        """One admitted query's measured answer: :meth:`_search` under
        :meth:`_measured`, so its stats are the cost of that search."""
        (ids, distances), stats = self._measured(
            self._search, query, k, tracer, tracer=tracer
        )
        return KNNResult(ids=ids, distances=distances, stats=stats)

    def _admit(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Query admission: :func:`check_query_block`'s rule, then unit
        length under the cosine metric — the one place a query is
        normalized (a second normalization of a unit vector can move
        bits).  Returns the valid rows, ready for the search engines, and
        the mask of valid rows over the whole block."""
        queries, valid = check_query_block(
            queries, k, self.query_dim, self.metric
        )
        if not valid.all():
            queries = queries[valid]
        if self.metric == "cosine":
            queries = normalize_rows(queries)
        return queries, valid

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
        bit-identical to :meth:`knn_loop`, the cold per-query loop.  An
        index whose one search engine can answer a block of queries at
        once (iDistance's shared scan) overrides :meth:`_knn_batch` and
        runs the whole block through it, amortizing per-query Python and
        small-kernel overhead; every other index runs that loop.

        The whole call runs under one ``knn.batch`` span; a real ``tracer``
        also gets a ``knn.batch_qps`` gauge.  The index's own counters are
        advanced by the batch totals either way.

        Rows with NaN/Inf components are *skipped and reported* (see
        :attr:`BatchKNNResult.invalid_queries`) rather than aborting the
        workload; a dimensionality mismatch is structural to the whole
        matrix and raises :class:`InvalidQueryError` outright.
        """
        tracer = ensure_tracer(tracer)
        admitted, valid = self._admit(queries, k)
        n_invalid = valid.size - admitted.shape[0]
        with tracer.span(
            "knn.batch",
            counters=self.counters,
            scheme=self.name,
            n_queries=valid.size,
            k=k,
            invalid_queries=n_invalid,
        ):
            result = self._answer_block(
                self._knn_batch, admitted, valid, k, tracer
            )
        if tracer.enabled:
            if n_invalid:
                tracer.counter("knn.invalid_queries").inc(n_invalid)
            if result.wall_seconds > 0:
                tracer.gauge("knn.batch_qps").set(
                    valid.size / result.wall_seconds
                )
        return result

    def knn_loop(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Optional[Tracer] = None,
    ) -> BatchKNNResult:
        """Answer every query in ``(Q, d)`` ``queries`` through the
        per-query engine, clearing the buffer pool before each: the cold
        per-query reference :meth:`knn_batch` must match bit for bit.

        Admission and skip-and-report are :meth:`knn_batch`'s; each row's
        spans are those of a :meth:`knn` call, with no ``knn.batch`` span
        around them.
        """
        admitted, valid = self._admit(queries, k)
        return self._answer_block(
            self._cold_loop, admitted, valid, k, ensure_tracer(tracer)
        )

    def _answer_block(
        self,
        engine: Callable[..., Tuple[np.ndarray, np.ndarray, Sequence]],
        queries: np.ndarray,
        valid: np.ndarray,
        k: int,
        tracer: Tracer,
    ) -> BatchKNNResult:
        """Answer the admitted rows ``queries`` with ``engine`` and spread
        the answers over the block ``valid`` describes.  Every row is
        ``min(k, live_count)`` wide, an empty or all-invalid block too:
        ``engine`` never sees zero rows."""
        start = time.perf_counter()
        if queries.shape[0]:
            ids, distances, stats = engine(queries, k, tracer)
        else:
            width = min(k, self.live_count)
            ids = np.empty((0, width), dtype=np.int64)
            distances = np.empty((0, width), dtype=np.float64)
            stats = ()
        wall = time.perf_counter() - start
        if not valid.all():
            ids, distances, stats = expand_valid_rows(
                ids, distances, stats, valid
            )
        return BatchKNNResult(
            ids=ids,
            distances=distances,
            stats=tuple(stats),
            wall_seconds=wall,
            invalid_queries=tuple(np.flatnonzero(~valid).tolist()),
        )

    def _cold_loop(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Tracer,
    ) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
        """The cold per-query loop over admitted rows: ``(Q, k)``
        ids/distances plus per-query stats, each row answered by
        :meth:`_answer` on an emptied buffer pool."""
        results: List[KNNResult] = []
        for query in queries:
            self.reset_cache()
            results.append(self._answer(query, k, tracer))
        return stack_answers(results)

    #: The block engine behind :meth:`knn_batch`: the cold loop, unless a
    #: scheme's search engine answers a block at once — an override must
    #: match the loop's answers and page/distance/key counts bit for bit.
    _knn_batch = _cold_loop

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
