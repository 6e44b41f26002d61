"""Extended iDistance (§5): one B+-tree over every reduced subspace.

Every partition — each elliptical subspace, plus the outlier set treated as
"a subspace in its original dimensionality" — maps its points to one
dimension with

    key = i * c + dist(P, O_i)

where ``O_i`` is the partition's reference point (the cluster centroid;
the origin of the subspace's axis system for projections) and ``c`` a
stretching constant that range-partitions the key space so partition ``i``
occupies ``[i*c, (i+1)*c)``.  All keys live in a single B+-tree; an
auxiliary array per partition keeps the centroid, principal components and
min/max radius for searching, and covariances for dynamic insertion.

KNN search grows a query sphere iteratively.  For radius ``R`` and the
query's projection ``q_i`` (at distance ``d_i = ||q_i - O_i||`` from the
reference), the annulus geometry gives the paper's three cases:

1. ``d_i <= max_radius`` — the query sits inside the partition's data
   sphere: scan the tree outward in both directions from key
   ``i*c + d_i``.
2. ``d_i > max_radius`` but ``d_i - R <= max_radius`` — the sphere
   intersects from outside: scan inward (leftward) from the partition's
   rim ``i*c + max_radius``.
3. no intersection — skip the partition at this radius.

(The symmetric interior case ``d_i < min_radius`` scans outward from the
inner rim; the paper's figure omits it but correctness requires it.)

The scan prunes with the triangle inequality: an entry with key offset
``o`` has reduced distance at least ``|d_i - o|``, so a direction stops
once ``|d_i - o|`` exceeds the current search bound.  Search terminates
when the K-th best distance is within the searched radius ``R`` — at that
point no unexamined point can score better, because every key interval
within ``R`` of every ``d_i`` has been consumed.  The result is therefore
the *exact* KNN under the reduced-space scoring (the lossiness relative to
the original space is entirely the reduction's, which is what precision
measures).

I/O model: the B+-tree stores (key, rid) entries; the reduced vectors are
packed, in key order, into per-partition data pages read through the buffer
pool when a candidate is scored.  Key order means an expanding scan touches
a contiguous run of data pages — the same locality as storing vectors in
the leaves, with the accounting kept explicit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.subspace import EllipticalSubspace
from ..linalg.kernels import (
    cold_lru_physical_reads,
    flat_l2,
    multi_arange,
)
from ..obs.tracer import NULL_TRACER, Tracer, ensure_tracer
from ..reduction.base import ReducedDataset
from ..btree.tree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.metrics import CostCounters, CostSnapshot
from ..storage.pager import PAGE_SIZE, vector_bytes
from .base import DEFAULT_POOL_PAGES, KNNResult, QueryStats, VectorIndex

__all__ = ["ExtendedIDistance"]


@dataclass
class _Partition:
    """Search-time state for one subspace (or the outlier set)."""

    index: int
    subspace: Optional[EllipticalSubspace]  # None for the outlier partition
    centroid: np.ndarray  # reference point in the partition's own frame
    vectors: np.ndarray  # (m, width) sorted by key offset
    rids: np.ndarray  # (m,) global point ids, same order
    offsets: np.ndarray  # (m,) = dist(P, O_i), ascending
    page_of_entry: np.ndarray  # (m,) data page id per entry
    min_radius: float
    max_radius: float

    def __post_init__(self) -> None:
        # Dynamically inserted entries live in a main+delta layout: the
        # bulk-loaded arrays stay immutable, inserts append here and the
        # search scores the (small) delta on first contact.
        self.delta_vectors: List[np.ndarray] = []
        self.delta_rids: List[int] = []
        self.delta_pages: List[int] = []

    @property
    def size(self) -> int:
        return self.rids.size + len(self.delta_rids)

    def project_query(self, query: np.ndarray) -> np.ndarray:
        if self.subspace is not None:
            return self.subspace.project(query)
        return np.asarray(query, dtype=np.float64)


#: Segment length at or above which the batch scan scores a segment on a
#: contiguous array view instead of routing it through the shared gather
#: kernel — long runs pay more for the gather copy than for one numpy call.
_BATCH_SEG_VIEW_MIN = 256


class _QueryLedger:
    """Recording cost sink: one query's costs in a :meth:`knn_batch` block.

    A batch never routes I/O through the shared buffer pool — interleaving
    queries would corrupt each query's cold-cache accounting.  Instead
    every page read the cold query would issue is recorded here in program
    order as an inclusive page-id range (tree descents via
    :meth:`~repro.btree.tree.BPlusTree.descend_path`), and
    :func:`_settle_ledgers` replays the expanded sequence against an LRU
    of the pool's capacity to recover the exact logical/physical read
    counts.
    """

    __slots__ = (
        "page_lo",
        "page_hi",
        "key_comparisons",
        "distance_computations",
        "distance_flops",
    )

    def __init__(self) -> None:
        self.page_lo: List[int] = []
        self.page_hi: List[int] = []
        self.key_comparisons = 0
        self.distance_computations = 0
        self.distance_flops = 0

    def read_range(self, lo: int, hi: int) -> None:
        """Record reads of the contiguous page ids ``lo..hi`` inclusive."""
        self.page_lo.append(lo)
        self.page_hi.append(hi)

    def descend(self, tree: BPlusTree, key: float) -> None:
        pages, comparisons = tree.descend_path(key)
        for page in pages:
            self.read_range(page, page)
        self.key_comparisons += comparisons

    def count_scan(self, n: int, dims: int) -> None:
        """``n`` scanned entries: one key comparison and one distance each."""
        self.key_comparisons += n
        self.distance_computations += n
        self.distance_flops += n * dims

    def count_distance(self, n: int, dims: int) -> None:
        self.distance_computations += n
        self.distance_flops += n * dims

    def page_sequence(self) -> np.ndarray:
        """The full page-read sequence, ranges expanded, in read order."""
        return multi_arange(
            np.asarray(self.page_lo, dtype=np.int64),
            np.asarray(self.page_hi, dtype=np.int64) + 1,
        )


def _settle_ledgers(
    ledgers: List["_QueryLedger"], capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(logical, physical)`` read counts for every ledger at once.

    Equivalent to an exact cold-LRU replay of each ledger's page
    sequence, but the common case — every query's working set fits the
    pool, so physical reads = distinct pages — is answered with ONE
    combined unique over all queries (page ids offset into disjoint
    per-query blocks).  Only queries whose distinct count exceeds the
    capacity fall back to the exact per-query LRU replay.
    """
    n = len(ledgers)
    logical = np.zeros(n, dtype=np.int64)
    physical = np.zeros(n, dtype=np.int64)
    if n == 0:
        return logical, physical
    lens = np.array(
        [len(led.page_lo) for led in ledgers], dtype=np.int64
    )
    if not lens.any():
        return logical, physical
    los = np.concatenate(
        [np.asarray(led.page_lo, dtype=np.int64) for led in ledgers]
    )
    his = np.concatenate(
        [np.asarray(led.page_hi, dtype=np.int64) for led in ledgers]
    )
    pages = multi_arange(los, his + 1)
    run_lens = his - los + 1
    query_of_page = np.repeat(
        np.repeat(np.arange(n, dtype=np.int64), lens), run_lens
    )
    logical = np.bincount(query_of_page, minlength=n)
    stride = int(pages.max()) + 1 if pages.size else 1
    distinct_keys = np.unique(query_of_page * stride + pages)
    physical = np.bincount(distinct_keys // stride, minlength=n)
    over = np.flatnonzero(physical > capacity)
    for qi in over.tolist():
        physical[qi] = cold_lru_physical_reads(
            ledgers[qi].page_sequence(), capacity
        )
    return logical, physical


class _LiveSink:
    """Live cost sink: the single query of :meth:`ExtendedIDistance.knn`.

    Same interface as :class:`_QueryLedger`, but every cost lands at once:
    page reads go through the buffer pool one page at a time in the order
    a ledger would record them (so warm-pool hits, fault retries and mmap
    fetches happen for real), descents run the live
    :meth:`~repro.btree.tree.BPlusTree._descend`, and counts go straight
    into the index's counters.
    """

    __slots__ = ("pool", "counters")

    def __init__(self, pool: BufferPool, counters: CostCounters) -> None:
        self.pool = pool
        self.counters = counters

    def read_range(self, lo: int, hi: int) -> None:
        read = self.pool.read
        for page in range(lo, hi + 1):
            read(page)

    def descend(self, tree: BPlusTree, key: float) -> None:
        tree._descend(key)

    def count_scan(self, n: int, dims: int) -> None:
        self.counters.count_key_comparison(n)
        self.counters.count_distance(n, dims=dims)

    def count_distance(self, n: int, dims: int) -> None:
        self.counters.count_distance(n, dims=dims)


class ExtendedIDistance(VectorIndex):
    """The paper's extended iDistance over a :class:`ReducedDataset`."""

    name = "iDistance"

    def __init__(
        self,
        reduced: ReducedDataset,
        radius_step: Optional[float] = None,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory=None,
    ) -> None:
        super().__init__(pool_pages=pool_pages, store_factory=store_factory)
        self.reduced = reduced
        self.partitions: List[_Partition] = []
        self._build_partitions()
        radii = [p.max_radius for p in self.partitions] or [1.0]
        global_max = max(radii)
        #: Key-space stretch constant: strictly larger than any offset.
        self.c = global_max * 1.01 + 1e-9
        #: Radius increment per search iteration (ΔR).  Default: 5% of the
        #: largest partition radius — small enough to stop early, large
        #: enough to converge in a few iterations.
        self.radius_step = (
            radius_step if radius_step is not None else global_max * 0.05
        )
        if self.radius_step <= 0:
            self.radius_step = 1e-6
        self._rid_location = self._build_rid_map()
        # Locations of dynamically inserted rids (possibly sparse / beyond
        # the bulk id range); positions count past the bulk arrays into the
        # partition's delta store.
        self._delta_location: Dict[int, Tuple[int, int]] = {}
        self.n_inserted = 0
        # Deleted rids.  Deletes remove the B+-tree entry physically but
        # leave the (immutable) bulk/delta vector arrays alone; scans filter
        # dead rids when offering candidates.
        self._tombstones: set = set()
        self.tree = BPlusTree(self.store, self.pool)
        self._bulk_load_tree()
        # Entry rank -> leaf page, for charging tree I/O during scans: the
        # bulk load packs `fill` entries per leaf in key order, and key
        # order equals concatenated partition order.
        self._leaf_fill = max(2, int(self.tree.leaf_capacity * 0.9))
        self._leaf_pages = np.asarray(
            self.tree.leaf_page_ids(), dtype=np.int64
        )
        sizes = [p.size for p in self.partitions]
        self._rank_base = np.concatenate(
            [[0], np.cumsum(sizes)]
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_partitions(self) -> None:
        for subspace in self.reduced.subspaces:
            vectors = subspace.projections
            offsets = np.linalg.norm(vectors, axis=1)
            self._add_partition(
                subspace=subspace,
                centroid=np.zeros(subspace.reduced_dim),
                vectors=vectors,
                rids=subspace.member_ids,
                offsets=offsets,
            )
        outliers = self.reduced.outliers
        if outliers.size:
            offsets = np.linalg.norm(
                outliers.points - outliers.centroid, axis=1
            )
            self._add_partition(
                subspace=None,
                centroid=outliers.centroid,
                vectors=outliers.points,
                rids=outliers.member_ids,
                offsets=offsets,
            )

    def _add_partition(
        self,
        subspace: Optional[EllipticalSubspace],
        centroid: np.ndarray,
        vectors: np.ndarray,
        rids: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        order = np.argsort(offsets, kind="stable")
        vectors = np.ascontiguousarray(vectors[order])
        rids = rids[order]
        offsets = offsets[order]
        width = vectors.shape[1]
        per_page = max(1, PAGE_SIZE // max(1, vector_bytes(width)))
        page_of_entry = np.empty(rids.size, dtype=np.int64)
        for lo in range(0, rids.size, per_page):
            hi = min(lo + per_page, rids.size)
            page_id = self.store.allocate(
                ("idistance-data", len(self.partitions), lo, hi),
                vector_bytes(width) * (hi - lo),
            )
            page_of_entry[lo:hi] = page_id
        self.partitions.append(
            _Partition(
                index=len(self.partitions),
                subspace=subspace,
                centroid=centroid,
                vectors=vectors,
                rids=rids,
                offsets=offsets,
                page_of_entry=page_of_entry,
                min_radius=float(offsets[0]) if offsets.size else 0.0,
                max_radius=float(offsets[-1]) if offsets.size else 0.0,
            )
        )

    def _build_rid_map(self) -> np.ndarray:
        location = np.full((self.reduced.n_points, 2), -1, dtype=np.int64)
        for partition in self.partitions:
            location[partition.rids, 0] = partition.index
            location[partition.rids, 1] = np.arange(partition.size)
        return location

    def _bulk_load_tree(self) -> None:
        keys: List[float] = []
        rids: List[int] = []
        for partition in self.partitions:
            base = partition.index * self.c
            keys.extend((base + partition.offsets).tolist())
            rids.extend(partition.rids.tolist())
        self.tree.bulk_load(keys, rids)

    # ------------------------------------------------------------------
    # dynamic insertion (the §5 auxiliary arrays exist for this)
    # ------------------------------------------------------------------

    def insert(
        self, point: np.ndarray, rid: int, beta: float = 0.1
    ) -> int:
        """Insert a new point, routing it like the paper's dynamic insert:
        the subspace with the smallest ProjDist_r hosts the point if that
        distance is within β, otherwise it joins the outlier partition.

        The point's key goes into the shared B+-tree; its vector joins the
        partition's delta store (a main+delta layout: bulk-loaded arrays
        stay immutable, deltas are scored on first contact by a query).
        Returns the partition index used.

        Raises ``ValueError`` if the point's key offset would not fit the
        partition's key range (the stretch constant ``c`` is fixed at
        build time) or if no outlier partition exists to absorb a
        non-conforming point.
        """
        point = self._prepare_point(point)
        best: Optional[_Partition] = None
        best_dist = np.inf
        for partition in self.partitions:
            if partition.subspace is None:
                continue
            dist = float(partition.subspace.proj_dist_r(point)[0])
            if dist < best_dist:
                best, best_dist = partition, dist
        if best is None or best_dist > beta:
            outliers = [
                p for p in self.partitions if p.subspace is None
            ]
            if not outliers:
                raise ValueError(
                    "point fits no subspace within beta and the index was "
                    "built without an outlier partition"
                )
            best = outliers[0]

        vector = best.project_query(point)
        offset = float(np.linalg.norm(vector - best.centroid))
        # Keys must stay inside the partition's [i*c, (i+1)*c) range — except
        # in the *last* partition (the outlier set, when present), above
        # whose range no other partition lives.
        if offset >= self.c and best.index != len(self.partitions) - 1:
            raise ValueError(
                f"key offset {offset:.4f} exceeds the partition stretch "
                f"constant c={self.c:.4f}; rebuild the index to extend "
                "its key space"
            )
        rid = int(rid)
        if rid in getattr(self, "_tombstones", ()):
            raise ValueError(
                f"rid {rid} was deleted from this index; deleted ids "
                "cannot be reused before a rebuild"
            )
        self._note_routed_insert(
            best.index if best.subspace is not None else -1, best_dist
        )
        with self._wal_txn("insert") as txn:
            self.tree.insert(best.index * self.c + offset, rid)
            best.delta_vectors.append(vector)
            best.delta_rids.append(rid)
            self._delta_location[rid] = (
                best.index,
                best.rids.size + len(best.delta_rids) - 1,
            )
            best.max_radius = max(best.max_radius, offset)
            best.min_radius = min(best.min_radius, offset)
            # Delta vectors pack into pages of their own (charged on scan).
            per_page = max(
                1, PAGE_SIZE // max(1, vector_bytes(vector.shape[0]))
            )
            if len(best.delta_rids) > len(best.delta_pages) * per_page:
                best.delta_pages.append(
                    self.store.allocate(
                        ("idistance-delta", best.index,
                         len(best.delta_pages)),
                        0,
                    )
                )
            self.n_inserted = getattr(self, "n_inserted", 0) + 1
            if txn is not None:
                txn.set_meta(
                    {
                        "kind": "insert",
                        "rid": rid,
                        "partition": best.index,
                        "vector": vector,
                        "delta_pages": list(best.delta_pages),
                        "min_radius": best.min_radius,
                        "max_radius": best.max_radius,
                        **self._tree_meta(),
                    }
                )
        return best.index

    def delete(self, rid: int) -> int:
        """Delete a record id: remove its B+-tree entry physically and
        tombstone the rid (the immutable vector arrays keep the dead entry;
        scans still score it but filter it from results).  Returns the
        partition index the rid lived in.  Raises ``KeyError`` for unknown
        or already-deleted rids.
        """
        rid = int(rid)
        part_idx, position = self.locate(rid)
        partition = self.partitions[part_idx]
        # Reconstruct the entry's key exactly as insertion computed it —
        # bulk keys came from the stored offsets, delta keys from
        # ||vector - centroid|| — so the float is bit-identical.
        if position < partition.rids.size:
            offset = float(partition.offsets[position])
        else:
            vector = partition.delta_vectors[
                position - partition.rids.size
            ]
            offset = float(np.linalg.norm(vector - partition.centroid))
        with self._wal_txn("delete") as txn:
            self.tree.delete(part_idx * self.c + offset, rid)
            self._tombstones.add(rid)
            if txn is not None:
                txn.set_meta(
                    {"kind": "delete", "rid": rid, **self._tree_meta()}
                )
        return part_idx

    def _tree_meta(self) -> dict:
        """The B+-tree's in-memory scalars, for a commit after-image
        (page contents are redone physically; these are not page-resident)."""
        return {
            "tree_root": self.tree.root_page,
            "tree_height": self.tree.height,
            "tree_n_entries": self.tree.n_entries,
            "tree_first_leaf": self.tree._first_leaf,
        }

    def _apply_recovery_meta(self, meta: dict) -> None:
        if not hasattr(self, "_tombstones"):
            self._tombstones = set()
        kind = meta["kind"]
        if kind == "insert":
            partition = self.partitions[meta["partition"]]
            vector = np.asarray(meta["vector"], dtype=np.float64)
            partition.delta_vectors.append(vector)
            partition.delta_rids.append(int(meta["rid"]))
            partition.delta_pages = list(meta["delta_pages"])
            partition.min_radius = float(meta["min_radius"])
            partition.max_radius = float(meta["max_radius"])
            self._delta_location[int(meta["rid"])] = (
                partition.index,
                partition.rids.size + len(partition.delta_rids) - 1,
            )
            self.n_inserted = getattr(self, "n_inserted", 0) + 1
        elif kind == "delete":
            self._tombstones.add(int(meta["rid"]))
        else:
            raise ValueError(f"unknown recovery meta kind {kind!r}")
        self.tree.root_page = meta["tree_root"]
        self.tree.height = meta["tree_height"]
        self.tree.n_entries = meta["tree_n_entries"]
        self.tree._first_leaf = meta["tree_first_leaf"]

    def locate(self, rid: int) -> Tuple[int, int]:
        """Where a record id lives: ``(partition_index, position)``.

        ``position`` indexes the partition's key-ordered layout: positions
        below ``partition.rids.size`` address the bulk-loaded arrays
        (``partition.vectors[position]``); positions at or above it address
        the delta store (``position - partition.rids.size`` into
        ``partition.delta_vectors``), in insertion order.  Bulk locations
        come from the rid map built at load time; dynamic inserts register
        themselves as they arrive.  Raises ``KeyError`` for unknown rids.
        """
        rid = int(rid)
        if rid in getattr(self, "_tombstones", ()):
            raise KeyError(f"rid {rid} was deleted from the index")
        if (
            0 <= rid < self._rid_location.shape[0]
            and self._rid_location[rid, 0] >= 0
        ):
            return (
                int(self._rid_location[rid, 0]),
                int(self._rid_location[rid, 1]),
            )
        location = self._delta_location.get(rid)
        if location is None:
            raise KeyError(f"rid {rid} is not in the index")
        return location

    def _approx_rerank_pages(self, rids: np.ndarray) -> np.ndarray:
        """Data page per bulk rid, through the :meth:`locate` rid map:
        the bulk location gives the partition's key-ordered position,
        whose page the bulk load recorded in ``page_of_entry``.  Only
        coded (bulk, live) rids reach rerank — delta entries are scored
        exactly during the scan phase and never rerank."""
        locations = self._rid_location[np.asarray(rids, dtype=np.int64)]
        pages = np.empty(locations.shape[0], dtype=np.int64)
        for pidx in np.unique(locations[:, 0]).tolist():
            mask = locations[:, 0] == pidx
            pages[mask] = self.partitions[pidx].page_of_entry[
                locations[mask, 1]
            ]
        return pages

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def knn(
        self,
        query: np.ndarray,
        k: int,
        tracer: Optional[Tracer] = None,
        mode: str = "exact",
        rerank_depth: Optional[int] = None,
    ) -> KNNResult:
        if mode != "exact":
            return self._approx_knn(
                query, k, tracer=tracer, mode=mode,
                rerank_depth=rerank_depth,
            )
        query = self._check_query(query)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        tracer = ensure_tracer(tracer)
        (ids, distances), stats = self._measured(
            self._knn_live, query, k, tracer, tracer=tracer, k=k
        )
        if tracer.enabled:
            tracer.histogram("knn.candidates_per_query").observe(
                stats.distance_computations
            )
            tracer.histogram("knn.pages_per_query").observe(
                stats.page_reads
            )
        return KNNResult(ids=ids, distances=distances, stats=stats)

    def _knn_live(
        self, query: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One query through :meth:`_shared_scan` with the live sink."""
        ids, distances = self._shared_scan(
            query[None, :], k, [_LiveSink(self.pool, self.counters)], tracer
        )
        return ids[0], distances[0]

    def _knn_batch(
        self, queries: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
        """A cold-cache block through :meth:`_shared_scan`, one recording
        sink per query, bit-identical to a cold :meth:`knn` loop.

        Each query's recorded page sequence is settled against an exact
        LRU replay at the end; the batch totals are then folded into the
        index's own counters.
        """
        n_queries = queries.shape[0]
        if n_queries == 0:
            return (
                np.empty((0, 0), dtype=np.int64),
                np.empty((0, 0), dtype=np.float64),
                [],
            )
        ledgers = [_QueryLedger() for _ in range(n_queries)]
        ids, distances = self._shared_scan(queries, k, ledgers, tracer)
        with tracer.span("knn.batch.settle", n_queries=n_queries):
            logical, physical = _settle_ledgers(
                ledgers, self.pool.capacity_pages
            )
            stats = [
                QueryStats(
                    page_reads=int(reads),
                    distance_computations=led.distance_computations,
                    distance_flops=led.distance_flops,
                    key_comparisons=led.key_comparisons,
                    cpu_seconds=0.0,
                )
                for reads, led in zip(physical.tolist(), ledgers)
            ]
        self.counters.merge(
            CostSnapshot(
                logical_reads=int(logical.sum()),
                physical_reads=int(physical.sum()),
                key_comparisons=sum(s.key_comparisons for s in stats),
                distance_computations=sum(
                    s.distance_computations for s in stats
                ),
                distance_flops=sum(s.distance_flops for s in stats),
            )
        )
        return ids, distances, stats

    def _shared_scan(
        self,
        queries: np.ndarray,
        k: int,
        sinks: List[Union[_QueryLedger, _LiveSink]],
        tracer: Tracer,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The search engine: exact KNN for every row of ``queries``.

        Every query expands its search radius in lockstep.  Per partition
        and radius step, the still-active queries' directional block
        boundaries come from *vectorized* searchsorted calls, and their
        short not-yet-visited segments are scored by ONE gather kernel —
        ``vectors[flat_positions] - q_proj[query_of_entry]`` reduced over
        the last axis — whose entries are bit-identical to per-block norms
        (see :mod:`repro.linalg.kernels`); long segments, and every
        segment of a lone query, are scored on contiguous views with the
        same arithmetic.  Only top-K heap maintenance stays per query,
        consuming each query's segments in scan order (inward then
        outward, ascending positions, with the k-th-best pre-filter
        refreshed between segments) so heap tie behavior is fixed.

        Costs go to ``sinks`` (one per query): a :class:`_QueryLedger`
        records them for :meth:`_knn_batch` to settle, a :class:`_LiveSink`
        pays them at once for :meth:`knn`.  Live mode runs one query and
        emits ``knn.expand_radius`` / ``knn.probe_partition`` spans with
        cost deltas (what :meth:`explain` breaks down); recording mode
        emits the ``knn.batch.*`` spans.
        """
        n_queries = queries.shape[0]
        k_eff = min(k, self.live_count)
        if k_eff <= 0:  # every point deleted — nothing to return
            return (
                np.empty((n_queries, 0), dtype=np.int64),
                np.empty((n_queries, 0), dtype=np.float64),
            )
        live = isinstance(sinks[0], _LiveSink)
        n_parts = len(self.partitions)
        tombs = self._tombstone_array()
        last_tomb = tombs.size - 1
        tomb_set = getattr(self, "_tombstones", ())

        # Per-partition query geometry.  Projections stay per-query gemv
        # calls (a stacked gemm is NOT bit-identical to gemv rows — see
        # repro.linalg.kernels), gathered into one (Q, width) array per
        # partition so the scan kernels can index rows by query.
        q_proj: List[np.ndarray] = []
        q_dist = np.empty((n_parts, n_queries), dtype=np.float64)
        with (NULL_TRACER if live else tracer).span(
            "knn.batch.project_queries",
            n_queries=n_queries,
            partitions=n_parts,
        ):
            for partition in self.partitions:
                block = np.empty(
                    (n_queries, partition.vectors.shape[1]),
                    dtype=np.float64,
                )
                centroid = partition.centroid
                row = q_dist[partition.index]
                subspace = partition.subspace
                # sqrt(x·x) below is bit-identical to np.linalg.norm on
                # a 1-d vector (norm computes exactly this) at a fraction
                # of the call overhead; the projection keeps the same
                # per-query `(q - mean) @ basis` gemv as project().
                if subspace is not None:
                    mean, basis = subspace.mean, subspace.basis
                    for i in range(n_queries):
                        proj = (queries[i] - mean) @ basis
                        block[i] = proj
                        diff = proj - centroid
                        row[i] = math.sqrt(float(np.dot(diff, diff)))
                else:
                    block[:] = queries
                    for i in range(n_queries):
                        diff = queries[i] - centroid
                        row[i] = math.sqrt(float(np.dot(diff, diff)))
                q_proj.append(block)

        # Stacked copies of the partitions' delta stores (dynamic inserts),
        # built on a partition's first contact.
        delta_blocks: Dict[int, np.ndarray] = {}

        sizes = np.array(
            [p.size for p in self.partitions], dtype=np.int64
        )
        nonempty = sizes > 0
        if nonempty.any():
            radii = np.array([p.max_radius for p in self.partitions])
            max_needed = (
                q_dist[nonempty] + radii[nonempty, None]
            ).max(axis=0)
        else:
            max_needed = np.zeros(n_queries)

        heaps: List[List[Tuple[float, int]]] = [
            [] for _ in range(n_queries)
        ]
        # Heap representation is *lazy*: after a vectorized top-K merge the
        # list holds the exact content but not heap order, flagged here, and
        # is heapified on demand before any heapq operation — heapify of
        # equivalent content is exact, so behavior is unchanged.  heap_dist
        # caches the content's distances (aligned with the list) so the
        # next merge can reuse them instead of re-extracting per entry.
        heap_lazy = bytearray(n_queries)
        heap_dist: List[Optional[np.ndarray]] = [None] * n_queries
        kth = np.full(n_queries, np.inf)
        active = np.ones(n_queries, dtype=bool)
        contacted = np.zeros((n_parts, n_queries), dtype=bool)
        in_pos = np.zeros((n_parts, n_queries), dtype=np.int64)
        out_pos = np.zeros((n_parts, n_queries), dtype=np.int64)
        total_expansions = 0

        leaf_pages = self._leaf_pages
        # Bulk-loaded leaves get consecutive page ids; record leaf runs as
        # ranges when that holds, else as per-leaf singletons.
        leaf_runs = leaf_pages.size <= 1 or bool(
            (np.diff(leaf_pages) == 1).all()
        )
        fill = self._leaf_fill
        radius = self.radius_step

        def probe(partition: _Partition, act: np.ndarray) -> None:
            """Advance every active query's scan of one partition to cover
            the key interval ``[d_i - radius, d_i + radius]``."""
            p = partition.index
            offsets = partition.offsets
            bulk = offsets.size
            Qp = q_proj[p]
            width_charge = max(1, partition.vectors.shape[1])

            # First contact per query: the annulus-intersection gate, the
            # tree descent to the seek leaf, and the delta-store scoring.
            fresh = act[~contacted[p, act]]
            if fresh.size:
                d_f = q_dist[p, fresh]
                touch = (d_f - radius <= partition.max_radius) & (
                    d_f + radius >= partition.min_radius
                )
                for qi in fresh[touch].tolist():
                    d_i = float(q_dist[p, qi])
                    sink = sinks[qi]
                    seek = min(
                        max(d_i, partition.min_radius),
                        partition.max_radius,
                    )
                    sink.descend(self.tree, p * self.c + seek)
                    pos = int(np.searchsorted(offsets, seek))
                    in_pos[p, qi] = pos - 1
                    out_pos[p, qi] = pos
                    contacted[p, qi] = True
                    if partition.delta_rids:
                        for page in partition.delta_pages:
                            sink.read_range(page, page)
                        dblock = delta_blocks.get(p)
                        if dblock is None:
                            dblock = np.vstack(partition.delta_vectors)
                            delta_blocks[p] = dblock
                        ddists = np.linalg.norm(dblock - Qp[qi], axis=1)
                        sink.count_distance(
                            dblock.shape[0], max(1, dblock.shape[1])
                        )
                        heap = heaps[qi]
                        if heap_lazy[qi]:
                            heapq.heapify(heap)
                            heap_lazy[qi] = 0
                        heap_dist[qi] = None
                        for dist, rid in zip(
                            ddists.tolist(), partition.delta_rids
                        ):
                            if rid in tomb_set:
                                continue
                            if len(heap) < k_eff:
                                heapq.heappush(heap, (-dist, rid))
                            elif dist < -heap[0][0]:
                                heapq.heapreplace(heap, (-dist, rid))
                        kth[qi] = (
                            -heap[0][0] if len(heap) == k_eff else np.inf
                        )

            sub = act[contacted[p, act]]
            if sub.size == 0 or bulk == 0:
                return
            d_vec = q_dist[p, sub]
            # Per-query search bound, then both directions' block
            # boundaries, all in four vectorized searchsorted/compare ops.
            # An exhausted direction parks at -1 (inward) or bulk
            # (outward).
            bound = np.minimum(radius, kth[sub])
            i_hi = in_pos[p, sub]  # inclusive
            i_lo = np.searchsorted(offsets, d_vec - bound, side="left")
            i_has = (i_hi >= 0) & (i_lo <= i_hi)
            o_lo = out_pos[p, sub]
            o_hi = np.searchsorted(offsets, d_vec + bound, side="right")
            o_has = (o_lo < bulk) & (o_hi > o_lo)
            if not (i_has.any() or o_has.any()):
                return
            in_start = np.where(i_has, i_lo, 0)
            in_stop = np.where(i_has, i_hi + 1, 0)
            out_start = np.where(o_has, o_lo, 0)
            out_stop = np.where(o_has, o_hi, 0)
            in_pos[p, sub[i_has]] = i_lo[i_has] - 1
            out_pos[p, sub[o_has]] = o_hi[o_has]

            # Interleave [inward, outward] segments per query.  Long
            # segments are scored per segment on contiguous views (no
            # gather copies);
            # everything shorter is batched into ONE gather kernel so
            # small per-query slabs don't pay numpy call overhead each.
            starts = np.column_stack([in_start, out_start]).ravel()
            stops = np.column_stack([in_stop, out_stop]).ravel()
            lens = stops - starts
            if not lens.any():
                return
            # A lone query has nothing to share a gather with: all of its
            # segments are scored on views.
            small = lens < (_BATCH_SEG_VIEW_MIN if sub.size > 1 else 0)
            if small.any():
                small_lens = np.where(small, lens, 0)
                flat = multi_arange(starts, np.where(small, stops, starts))
                entry_q = np.repeat(np.repeat(sub, 2), small_lens)
                dists_flat = flat_l2(
                    partition.vectors, flat, Qp, entry_q
                )
                rids_flat = partition.rids[flat]
                seg_start_list = np.concatenate(
                    [[0], np.cumsum(small_lens)[:-1]]
                ).tolist()
            vectors = partition.vectors
            rids_all = partition.rids
            rank0 = int(self._rank_base[p])
            page_of_entry = partition.page_of_entry

            # Hoist all per-segment I/O-replay lookups out of the Python
            # loop: leaf/data page bounds for every segment in four array
            # ops, materialized as plain-int lists once.  Empty segments
            # (stop == start) index position 0 / start harmlessly; the
            # loop skips them before the values are used.
            safe_hi = np.maximum(stops - 1, starts)
            leaf_a_arr = (rank0 + starts) // fill
            leaf_b_arr = (rank0 + safe_hi) // fill
            if leaf_runs:
                leaf_lo_list = leaf_pages[leaf_a_arr].tolist()
                leaf_hi_list = leaf_pages[leaf_b_arr].tolist()
            else:
                leaf_a_list = leaf_a_arr.tolist()
                leaf_b_list = leaf_b_arr.tolist()
            pg_lo_list = page_of_entry[starts].tolist()
            pg_hi_list = page_of_entry[safe_hi].tolist()
            lens_list = lens.tolist()
            starts_list = starts.tolist()
            small_list = small.tolist()
            sub_list = sub.tolist()

            per_q = lens[0::2] + lens[1::2]
            for j in np.flatnonzero(per_q > 0).tolist():
                qi = sub_list[j]
                sink = sinks[qi]
                heap = heaps[qi]
                for seg in (2 * j, 2 * j + 1):
                    ln = lens_list[seg]
                    if ln == 0:
                        continue
                    # I/O: the leaf run covering the block's entry ranks,
                    # then its contiguous data-page run.
                    if leaf_runs:
                        sink.read_range(
                            leaf_lo_list[seg], leaf_hi_list[seg]
                        )
                    else:
                        for leaf_idx in range(
                            leaf_a_list[seg], leaf_b_list[seg] + 1
                        ):
                            page = int(leaf_pages[leaf_idx])
                            sink.read_range(page, page)
                    sink.read_range(pg_lo_list[seg], pg_hi_list[seg])
                    sink.count_scan(ln, width_charge)
                    if small_list[seg]:
                        s0 = seg_start_list[seg]
                        seg_d = dists_flat[s0 : s0 + ln]
                        seg_r = rids_flat[s0 : s0 + ln]
                    else:
                        lo_pos = starts_list[seg]
                        # Inline norm: np.linalg.norm(diff, axis=1) IS
                        # sqrt(add.reduce((x.conj()*x).real, axis)) —
                        # same multiplies, same pairwise reduction, same
                        # sqrt — minus the dispatch overhead per call.
                        # In-place squaring/sqrt reuse the temporaries;
                        # the values are the same ops on the same bits.
                        diff = vectors[lo_pos : lo_pos + ln] - Qp[qi]
                        np.multiply(diff, diff, out=diff)
                        seg_d = np.add.reduce(diff, axis=1)
                        np.sqrt(seg_d, out=seg_d)
                        seg_r = rids_all[lo_pos : lo_pos + ln]
                    if tombs.size:
                        # Membership in the sorted tombstone array (np.isin
                        # costs tens of microseconds a call at any size).
                        hit = np.searchsorted(tombs, seg_r)
                        alive = tombs[np.minimum(hit, last_tomb)] != seg_r
                        seg_d = seg_d[alive]
                        seg_r = seg_r[alive]
                    # kth[qi] is maintained at every heap mutation, so it
                    # IS the query's current k-th best here.
                    current = kth[qi]
                    if current != np.inf:
                        keep = seg_d < current
                        seg_d = seg_d[keep]
                        seg_r = seg_r[keep]
                    if seg_d.size >= 48:
                        # Vectorized top-K merge.  Heap behavior depends
                        # only on heap *content* (heapq always pops the
                        # minimum tuple), and streaming offers with a
                        # strict < keep exactly the k smallest of
                        # {heap ∪ segment} whenever the k-th smallest
                        # distance is unique in that union; only a tie
                        # at the selection boundary is order-dependent,
                        # and then we fall back to the literal offer
                        # loop.  Either way the resulting content — and
                        # so every later comparison — is bit-identical.
                        inc = heap_dist[qi]
                        if inc is None:
                            inc = np.array(
                                [-entry[0] for entry in heap],
                                dtype=np.float64,
                            )
                            heap_dist[qi] = inc
                        union_d = np.concatenate([inc, seg_d])
                        if union_d.size > k_eff:
                            top = np.argpartition(union_d, k_eff - 1)[
                                :k_eff
                            ]
                            boundary = union_d[top].max()
                            if int((union_d == boundary).sum()) == 1:
                                n_inc = len(heap)
                                heap = heaps[qi] = [
                                    heap[t]
                                    if t < n_inc
                                    else (
                                        -float(seg_d[t - n_inc]),
                                        int(seg_r[t - n_inc]),
                                    )
                                    for t in top.tolist()
                                ]
                                heap_dist[qi] = union_d[top]
                                heap_lazy[qi] = 1
                                kth[qi] = boundary
                                continue
                    if heap_lazy[qi]:
                        heapq.heapify(heap)
                        heap_lazy[qi] = 0
                    heap_dist[qi] = None
                    for dist, rid in zip(
                        seg_d.tolist(), seg_r.tolist()
                    ):
                        if len(heap) < k_eff:
                            heapq.heappush(heap, (-dist, rid))
                        elif dist < -heap[0][0]:
                            heapq.heapreplace(heap, (-dist, rid))
                    kth[qi] = (
                        -heap[0][0] if len(heap) == k_eff else np.inf
                    )


        def expand(act: np.ndarray) -> None:
            for partition in self.partitions:
                if partition.size == 0:
                    continue
                if not live:
                    probe(partition, act)
                    continue
                with tracer.span(
                    "knn.probe_partition",
                    counters=self.counters,
                    partition=partition.index,
                    outliers=partition.subspace is None,
                ):
                    probe(partition, act)

        while True:
            act = np.flatnonzero(active)
            if act.size == 0:
                break
            total_expansions += act.size
            if live:
                # One span per radius expansion: its cost delta is exactly
                # the pages/distances this ΔR step paid across partitions.
                with tracer.span(
                    "knn.expand_radius",
                    counters=self.counters,
                    radius=radius,
                    expansion=total_expansions,
                ) as expand_span:
                    expand(act)
                    if tracer.enabled:
                        expand_span.set(
                            heap_size=len(heaps[0]), kth_best=float(kth[0])
                        )
            else:
                with tracer.span(
                    "knn.batch.expand_radius",
                    radius=radius,
                    active_queries=int(act.size),
                ):
                    expand(act)
            done = (np.isfinite(kth[act]) & (kth[act] <= radius)) | (
                radius > max_needed[act]
            )
            active[act[done]] = False
            radius += self.radius_step
        if tracer.enabled:
            tracer.counter("knn.radius_expansions").inc(total_expansions)
            if live:
                tracer.histogram(
                    "knn.expansions_per_query", buckets=tuple(range(1, 65))
                ).observe(total_expansions)

        ids = np.empty((n_queries, k_eff), dtype=np.int64)
        distances = np.empty((n_queries, k_eff), dtype=np.float64)
        for qi, heap in enumerate(heaps):
            ordered = sorted((-d, rid) for d, rid in heap)
            ids[qi] = [rid for _, rid in ordered]
            distances[qi] = [d for d, _ in ordered]
        return ids, distances
