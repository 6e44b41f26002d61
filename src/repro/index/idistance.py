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
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.subspace import EllipticalSubspace
from ..linalg.kernels import (
    _BATCH_SEG_VIEW_MIN,
    cold_lru_physical_reads,
    flat_l2,
    multi_arange,
)
from ..obs.tracer import NULL_TRACER, Tracer
from ..reduction.base import ReducedDataset
from ..btree.tree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.metrics import CostCounters, CostSnapshot
from ..storage.pager import PAGE_SIZE, vector_bytes
from .base import DEFAULT_POOL_PAGES, KNNResult, QueryStats, VectorIndex
from .dynamic import route_point

__all__ = ["ExtendedIDistance"]


@dataclass
class _Partition:
    """Search-time state for one subspace (or the outlier set)."""

    index: int
    subspace: Optional[EllipticalSubspace]  # None for the outlier partition
    centroid: np.ndarray  # reference point in the partition's own frame
    columns: np.ndarray  # (width, m) column-major, sorted by key offset
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

    @property
    def vectors(self) -> np.ndarray:
        """The bulk vectors as ``(m, width)`` rows: a transposed view of
        :attr:`columns`, not a copy."""
        return self.columns.T

    def project_query(self, query: np.ndarray) -> np.ndarray:
        if self.subspace is not None:
            return self.subspace.project(query)
        return np.asarray(query, dtype=np.float64)


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
        # Deletes remove the B+-tree entry physically and tombstone the rid,
        # but leave the (immutable) bulk/delta vector arrays alone; scans
        # filter dead entries by position (_alive_masks).
        self._delta_location: Dict[int, Tuple[int, int]] = {}
        self.tree = BPlusTree(self.store, self.pool)
        self._bulk_load_tree()
        # Entry rank -> leaf page, for charging tree I/O during scans: the
        # bulk load packs `fill` entries per leaf in key order, and key
        # order equals concatenated partition order.
        self._leaf_fill = max(2, int(self.tree.leaf_capacity * 0.9))
        self._leaf_pages = np.asarray(
            self.tree.leaf_page_ids(), dtype=np.int64
        )
        # Bulk-loaded leaves get consecutive page ids; scans record leaf
        # runs as ranges when that holds, else as per-leaf singletons.
        self._leaf_runs = self._leaf_pages.size <= 1 or bool(
            (np.diff(self._leaf_pages) == 1).all()
        )
        sizes = [p.size for p in self.partitions]
        self._rank_base = np.concatenate(
            [[0], np.cumsum(sizes)]
        ).astype(np.int64)
        self._reset_scan_state()

    def _reset_scan_state(self) -> None:
        """Drop the scan's derived state: the alive masks, cached as
        ``(key, masks, tombstones folded in)`` (see :meth:`_alive_masks`),
        and the delta stores' column blocks (:meth:`_delta_block`)."""
        self._alive: Optional[
            Tuple[Tuple[int, int], List[Optional[np.ndarray]], frozenset]
        ] = None
        self._delta_blocks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def __getstate__(self) -> dict:
        # A snapshot carries the tombstones and delta lists, never the
        # scan state derived from them.
        state = dict(self.__dict__)
        del state["_alive"], state["_delta_blocks"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_scan_state()

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
        columns = np.ascontiguousarray(vectors[order].T)
        rids = rids[order]
        offsets = offsets[order]
        width = columns.shape[0]
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
                columns=columns,
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
        """Insert a new point, routed by the paper's dynamic-insert rule
        (:func:`~repro.index.dynamic.route_point`): the subspace with the
        smallest ProjDist_r hosts the point if that distance is within β,
        otherwise it joins the outlier partition.  Partition ``i`` is
        subspace ``i``; the outlier partition is the last.

        The point's key goes into the shared B+-tree; its vector joins the
        partition's delta store (a main+delta layout: bulk-loaded arrays
        stay immutable, deltas are scored on first contact by a query).
        Returns the subspace index used (-1 for the outlier partition).

        Keys must stay inside a partition's ``[i*c, (i+1)*c)`` range (the
        stretch constant ``c`` is fixed at build time) — except in the
        last partition, above whose range no other partition lives.  A
        point whose offset in its subspace's partition would reach ``c``
        cannot be keyed there, so, like any point that conforms to no
        subspace (§5), it joins the outlier partition at full
        dimensionality.  Its residual still counts toward its subspace's
        live MPE, so the drift check sees it.

        Raises ``ValueError`` for a live or deleted rid, or if the point
        belongs in the outlier partition and the index has none.
        """
        point = self._prepare_point(point)
        rid = self._check_new_rid(rid)
        sidx, vector, residual = route_point(self.reduced, point, beta)
        partition = sidx
        if sidx >= 0:
            offset = float(
                np.linalg.norm(vector - self.partitions[sidx].centroid)
            )
            if offset >= self.c and sidx != len(self.partitions) - 1:
                partition = -1
        if partition < 0:
            if len(self.partitions) == len(self.reduced.subspaces):
                reason = (
                    "point fits no subspace within beta"
                    if sidx < 0
                    else f"key offset {offset:.4f} exceeds the partition "
                    f"stretch constant c={self.c:.4f}"
                )
                raise ValueError(
                    f"{reason} and the index was built without an "
                    "outlier partition"
                )
            vector = point
            offset = float(
                np.linalg.norm(vector - self.partitions[-1].centroid)
            )
        self._note_routed_insert(sidx, residual)
        best = self.partitions[partition]
        with self._wal_txn("insert") as txn:
            self.tree.insert(best.index * self.c + offset, rid)
            self._append_delta(best, vector, rid)
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
        return partition

    def delete(self, rid: int) -> None:
        """Delete a record id: remove its B+-tree entry physically and
        tombstone the rid (the immutable vector arrays keep the dead entry;
        scans still score it but filter it from results).  Raises
        ``KeyError`` for unknown or already-deleted rids.
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

    def _append_delta(
        self, partition: _Partition, vector: np.ndarray, rid: int
    ) -> None:
        """Append one entry to a partition's delta store and register its
        location: the bookkeeping an insert and its recovery redo share."""
        partition.delta_vectors.append(vector)
        partition.delta_rids.append(rid)
        self._delta_location[rid] = (partition.index, partition.size - 1)
        self.n_inserted += 1

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
        kind = meta["kind"]
        if kind == "insert":
            partition = self.partitions[meta["partition"]]
            self._append_delta(
                partition,
                np.asarray(meta["vector"], dtype=np.float64),
                int(meta["rid"]),
            )
            partition.delta_pages = list(meta["delta_pages"])
            partition.min_radius = float(meta["min_radius"])
            partition.max_radius = float(meta["max_radius"])
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
        (``partition.columns[:, position]``); positions at or above it
        address the delta store (``position - partition.rids.size`` into
        ``partition.delta_vectors``), in insertion order.  Bulk locations
        come from the rid map built at load time; dynamic inserts register
        themselves as they arrive.  Raises ``KeyError`` for unknown or
        deleted rids.
        """
        rid = int(rid)
        if rid in self._tombstones:
            raise KeyError(f"rid {rid} was deleted from the index")
        location = self._location(rid)
        if location is None:
            raise KeyError(f"rid {rid} is not in the index")
        return location

    def _location(self, rid: int) -> Optional[Tuple[int, int]]:
        """:meth:`locate` without the checks: ``None`` for unknown rids,
        the stored location for tombstoned ones."""
        if (
            0 <= rid < self._rid_location.shape[0]
            and self._rid_location[rid, 0] >= 0
        ):
            return (
                int(self._rid_location[rid, 0]),
                int(self._rid_location[rid, 1]),
            )
        return self._delta_location.get(rid)

    def _alive_masks(self) -> List[Optional[np.ndarray]]:
        """Per partition, a bool mask over its positions (bulk entries,
        then delta entries) that is False at deleted entries, or ``None``
        for a partition with no deletes.

        Derived from the tombstones and brought up to date only when a
        mutation has happened since: tombstones and inserts only grow
        between rebuilds, so their counts key the cache, and only the
        tombstones not yet folded in are located.  A changed mask is a
        new array, never written in place.
        """
        key = (len(self._tombstones), self.n_inserted)
        cached = self._alive
        if cached is not None and cached[0] == key:
            return cached[1]
        if cached is None:
            masks, folded = [None] * len(self.partitions), frozenset()
        else:
            masks, folded = list(cached[1]), cached[2]
        dead: Dict[int, List[int]] = {}
        for rid in self._tombstones - folded:
            part_idx, position = self._location(rid)
            dead.setdefault(part_idx, []).append(position)
        for part_idx, partition in enumerate(self.partitions):
            mask = masks[part_idx]
            positions = dead.get(part_idx)
            current = mask is None or mask.size == partition.size
            if positions is None and current:
                continue
            grown = np.ones(partition.size, dtype=bool)
            if mask is not None:
                grown[: mask.size] = mask
            if positions is not None:
                grown[positions] = False
            masks[part_idx] = grown
        self._alive = (key, masks, frozenset(self._tombstones))
        return masks

    def _delta_block(
        self, partition: _Partition
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A partition's delta store as a ``(width, n)`` C-ordered column
        block and its int64 rids, extended only when the store has grown
        (delta stores only grow between rebuilds)."""
        n = len(partition.delta_rids)
        block = self._delta_blocks.get(partition.index)
        have = 0 if block is None else block[1].size
        if have != n:
            # (width, n) C-ordered: the transpose of an F-ordered row
            # stack, built in one copy.
            cols = np.array(partition.delta_vectors[have:], order="F").T
            rids = np.array(partition.delta_rids[have:], np.int64)
            if have:
                cols = np.concatenate([block[0], cols], axis=1)
                rids = np.concatenate([block[1], rids])
            block = self._delta_blocks[partition.index] = (cols, rids)
        return block

    def _holds(self, rid: int) -> bool:
        return self._location(rid) is not None

    def _delta_rids(self):
        return self._delta_location.keys()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    # Defined on the class itself so a profiler can patch this scheme's
    # query entry point alone.
    knn = VectorIndex.knn

    def _answer(
        self, query: np.ndarray, k: int, tracer: Tracer
    ) -> KNNResult:
        """The base answer, plus the query's candidates and pages in the
        tracer's per-query histograms."""
        result = super()._answer(query, k, tracer)
        if tracer.enabled:
            tracer.histogram("knn.candidates_per_query").observe(
                result.stats.distance_computations
            )
            tracer.histogram("knn.pages_per_query").observe(
                result.stats.page_reads
            )
        return result

    def _search(
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
        index's own counters.  The block's elapsed time is shared out
        equally as each query's ``cpu_seconds``.
        """
        start = time.perf_counter()
        n_queries = queries.shape[0]
        with self.counters.cpu_timer():
            ledgers = [_QueryLedger() for _ in range(n_queries)]
            ids, distances = self._shared_scan(queries, k, ledgers, tracer)
            with tracer.span("knn.batch.settle", n_queries=n_queries):
                logical, physical = _settle_ledgers(
                    ledgers, self.pool.capacity_pages
                )
            self.counters.merge(
                CostSnapshot(
                    logical_reads=int(logical.sum()),
                    physical_reads=int(physical.sum()),
                    key_comparisons=sum(
                        led.key_comparisons for led in ledgers
                    ),
                    distance_computations=sum(
                        led.distance_computations for led in ledgers
                    ),
                    distance_flops=sum(led.distance_flops for led in ledgers),
                )
            )
        share = (time.perf_counter() - start) / n_queries
        stats = [
            QueryStats(
                page_reads=int(reads),
                distance_computations=led.distance_computations,
                distance_flops=led.distance_flops,
                key_comparisons=led.key_comparisons,
                cpu_seconds=share,
            )
            for reads, led in zip(physical.tolist(), ledgers)
        ]
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
        and radius step, one plain Python loop walks the still-active
        queries: the first-contact gate, the search bound and both scan
        windows are scalar ``searchsorted`` calls on the partition's
        ``offsets``, and every other piece of per-query state (scan
        positions, k-th best, contact, the active set) lives in lists.
        Every candidate is scored by :func:`~repro.linalg.kernels.flat_l2`
        on the partition's column-major block, bit-identical to a
        per-block ``np.linalg.norm(rows - q, axis=1)``.  A query's inward
        and outward windows are adjacent from first contact until either
        one has been scanned, and are then scored as one run.  When more
        than one query is in contact, the short runs go through ONE
        gathered call; long runs (and every run of a lone query) get one
        call each on a contiguous column view.  Top-K heap maintenance
        consumes each query's windows in scan order (inward then outward,
        ascending positions, with the k-th-best pre-filter refreshed
        between them) so heap tie behavior is fixed.

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

        # Per-partition query geometry.  Projections stay per-query gemv
        # calls (a stacked gemm is NOT bit-identical to gemv rows — see
        # repro.linalg.kernels), written as the columns of one (width, Q)
        # block per partition: the layout flat_l2 scores against.
        q_cols: List[np.ndarray] = []
        q_dist: List[List[float]] = []
        with (NULL_TRACER if live else tracer).span(
            "knn.batch.project_queries",
            n_queries=n_queries,
            partitions=n_parts,
        ):
            for partition in self.partitions:
                block = np.empty(
                    (partition.columns.shape[0], n_queries),
                    dtype=np.float64,
                )
                centroid = partition.centroid
                row = [0.0] * n_queries
                subspace = partition.subspace
                # sqrt(x·x) below is bit-identical to np.linalg.norm on
                # a 1-d vector (norm computes exactly this) at a fraction
                # of the call overhead; the projection keeps the same
                # per-query `(q - mean) @ basis` gemv as project().
                if subspace is not None:
                    mean, basis = subspace.mean, subspace.basis
                    for i in range(n_queries):
                        proj = (queries[i] - mean) @ basis
                        block[:, i] = proj
                        diff = proj - centroid
                        row[i] = math.sqrt(float(np.dot(diff, diff)))
                else:
                    block[:] = queries.T
                    for i in range(n_queries):
                        diff = queries[i] - centroid
                        row[i] = math.sqrt(float(np.dot(diff, diff)))
                q_cols.append(block)
                q_dist.append(row)

        # Past this radius every partition's keys are consumed for a query.
        reach = [
            (q_dist[p.index], p.max_radius)
            for p in self.partitions
            if p.size > 0
        ]
        max_needed = [
            max(row[qi] + rim for row, rim in reach) if reach else 0.0
            for qi in range(n_queries)
        ]

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
        kth = [math.inf] * n_queries
        # Per partition and query: contact flag, then the inward scan's
        # exclusive stop and the outward scan's start.  Positions [in, out)
        # are consumed; an exhausted direction parks at 0 or at the bulk
        # size.
        contacted = [bytearray(n_queries) for _ in range(n_parts)]
        in_stop = [[0] * n_queries for _ in range(n_parts)]
        out_start = [[0] * n_queries for _ in range(n_parts)]
        expansions = [0] * n_queries

        leaf_pages = self._leaf_pages
        leaf_runs = self._leaf_runs
        fill = self._leaf_fill
        tree = self.tree
        c = self.c
        radius = self.radius_step
        # What probe() reads of a partition, gathered once per scan rather
        # than once per radius expansion: the bulk arrays, the alive mask
        # over the partition's positions (None without deletes) and the
        # delta store's column block (None while it is empty).
        alive_masks = self._alive_masks()
        plans = [
            (
                partition.offsets,
                partition.columns,
                partition.rids,
                partition.page_of_entry,
                int(self._rank_base[partition.index]),
                max(1, partition.columns.shape[0]),
                alive_masks[partition.index],
                self._delta_block(partition) if partition.delta_rids else None,
            )
            for partition in self.partitions
        ]

        def offer(
            qi: int,
            seg_d: np.ndarray,
            seg_r: np.ndarray,
            alive: Optional[np.ndarray],
        ) -> None:
            """Merge scored candidates (a scanned window, or a delta
            store) into query ``qi``'s top-K heap.  ``alive`` is the
            segment's slice of its partition's alive mask, or ``None``
            when the partition has no deletes."""
            heap = heaps[qi]
            if alive is not None:
                seg_d = seg_d[alive]
                seg_r = seg_r[alive]
            # kth[qi] is maintained at every heap mutation, so it IS the
            # query's current k-th best here.
            current = kth[qi]
            if current != math.inf:
                keep = seg_d < current
                seg_d = seg_d[keep]
                seg_r = seg_r[keep]
            if seg_d.size >= 48:
                # Vectorized top-K merge.  Heap behavior depends only on
                # heap *content* (heapq always pops the minimum tuple), and
                # streaming offers with a strict < keep exactly the k
                # smallest of {heap ∪ segment} whenever the k-th smallest
                # distance is unique in that union; only a tie at the
                # selection boundary is order-dependent, and then we fall
                # back to the literal offer loop.  Either way the resulting
                # content — and so every later comparison — is
                # bit-identical.
                inc = heap_dist[qi]
                if inc is None:
                    inc = np.array(
                        [-entry[0] for entry in heap], dtype=np.float64
                    )
                    heap_dist[qi] = inc
                union_d = np.concatenate([inc, seg_d])
                if union_d.size > k_eff:
                    top = np.argpartition(union_d, k_eff - 1)[:k_eff]
                    boundary = union_d[top].max()
                    if int((union_d == boundary).sum()) == 1:
                        n_inc = len(heap)
                        heaps[qi] = [
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
                        kth[qi] = float(boundary)
                        return
            if heap_lazy[qi]:
                heapq.heapify(heap)
                heap_lazy[qi] = 0
            heap_dist[qi] = None
            for dist, rid in zip(seg_d.tolist(), seg_r.tolist()):
                if len(heap) < k_eff:
                    heapq.heappush(heap, (-dist, rid))
                elif dist < -heap[0][0]:
                    heapq.heapreplace(heap, (-dist, rid))
            kth[qi] = -heap[0][0] if len(heap) == k_eff else math.inf

        def probe(partition: _Partition, act: List[int]) -> None:
            """Advance every active query's scan of one partition to cover
            the key interval ``[d_i - radius, d_i + radius]``."""
            p = partition.index
            (
                offsets, columns, rids_all, page_of_entry, rank0, width,
                alive, delta,
            ) = plans[p]
            n_bulk = rids_all.size
            Qc = q_cols[p]
            qd = q_dist[p]
            touched = contacted[p]
            ins = in_stop[p]
            outs = out_start[p]
            min_r = partition.min_radius
            max_r = partition.max_radius

            # Each query's window: [lo, cut) inward and [cut, hi) outward
            # while the two are adjacent, else one run per non-empty side.
            runs: List[Tuple[int, int, int, int]] = []
            n_contact = 0
            for qi in act:
                d_i = qd[qi]
                if not touched[qi]:
                    # First contact: the annulus-intersection gate, the
                    # tree descent to the seek leaf, and the delta-store
                    # scoring.
                    if d_i - radius > max_r or d_i + radius < min_r:
                        continue
                    sink = sinks[qi]
                    seek = min(max(d_i, min_r), max_r)
                    sink.descend(tree, p * c + seek)
                    ins[qi] = outs[qi] = int(offsets.searchsorted(seek))
                    touched[qi] = 1
                    if delta is not None:
                        for page in partition.delta_pages:
                            sink.read_range(page, page)
                        ddists = flat_l2(delta[0], slice(None), Qc, qi)
                        sink.count_distance(ddists.size, width)
                        offer(
                            qi,
                            ddists,
                            delta[1],
                            None if alive is None else alive[n_bulk:],
                        )
                n_contact += 1
                bound = kth[qi] if kth[qi] < radius else radius
                in_hi = ins[qi]
                in_lo = int(offsets.searchsorted(d_i - bound))
                if in_lo < in_hi:
                    ins[qi] = in_lo
                else:
                    in_lo = in_hi
                out_lo = outs[qi]
                out_hi = int(offsets.searchsorted(d_i + bound, "right"))
                if out_hi > out_lo:
                    outs[qi] = out_hi
                else:
                    out_hi = out_lo
                if in_hi == out_lo:
                    if in_lo < out_hi:
                        runs.append((qi, in_lo, in_hi, out_hi))
                else:
                    if in_lo < in_hi:
                        runs.append((qi, in_lo, in_hi, in_hi))
                    if out_lo < out_hi:
                        runs.append((qi, out_lo, out_lo, out_hi))
            if not runs:
                return

            # In a block of queries every short run is pooled into ONE
            # gathered flat_l2 call, so small per-query slabs don't pay a
            # kernel call each; a lone query has nothing to share a gather
            # with.
            pool_below = _BATCH_SEG_VIEW_MIN if n_contact > 1 else 0
            pooled = [run for run in runs if run[3] - run[1] < pool_below]
            if pooled:
                run_q, run_lo, _, run_hi = zip(*pooled)
                lo_arr = np.array(run_lo, dtype=np.int64)
                hi_arr = np.array(run_hi, dtype=np.int64)
                flat = multi_arange(lo_arr, hi_arr)
                entry_q = np.repeat(
                    np.array(run_q, dtype=np.int64), hi_arr - lo_arr
                )
                dists_flat = flat_l2(columns, flat, Qc, entry_q)
                rids_flat = rids_all[flat]
            s0 = 0
            for qi, lo, cut, hi in runs:
                n = hi - lo
                if n < pool_below:
                    run_d = dists_flat[s0 : s0 + n]
                    run_r = rids_flat[s0 : s0 + n]
                    s0 += n
                else:
                    run = slice(lo, hi)
                    run_d = flat_l2(columns, run, Qc, qi)
                    run_r = rids_all[run]
                if lo == cut or cut == hi:
                    sides = ((lo, hi, run_d, run_r),)
                else:
                    m = cut - lo
                    sides = (
                        (lo, cut, run_d[:m], run_r[:m]),
                        (cut, hi, run_d[m:], run_r[m:]),
                    )
                sink = sinks[qi]
                for a, b, seg_d, seg_r in sides:
                    # I/O: the leaf run covering the window's entry ranks,
                    # then its contiguous data-page run.
                    leaf_a = (rank0 + a) // fill
                    leaf_b = (rank0 + b - 1) // fill
                    if leaf_runs:
                        sink.read_range(
                            leaf_pages.item(leaf_a), leaf_pages.item(leaf_b)
                        )
                    else:
                        for leaf_idx in range(leaf_a, leaf_b + 1):
                            page = leaf_pages.item(leaf_idx)
                            sink.read_range(page, page)
                    sink.read_range(
                        page_of_entry.item(a), page_of_entry.item(b - 1)
                    )
                    sink.count_scan(b - a, width)
                    offer(
                        qi, seg_d, seg_r, None if alive is None else alive[a:b]
                    )

        def expand(act: List[int]) -> None:
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

        act = list(range(n_queries))
        while act:
            for qi in act:
                expansions[qi] += 1
            if live:
                # One span per radius expansion: its cost delta is exactly
                # the pages/distances this ΔR step paid across partitions.
                with tracer.span(
                    "knn.expand_radius",
                    counters=self.counters,
                    radius=radius,
                    expansion=expansions[0],
                ) as expand_span:
                    expand(act)
                    if tracer.enabled:
                        expand_span.set(
                            heap_size=len(heaps[0]), kth_best=kth[0]
                        )
            else:
                with tracer.span(
                    "knn.batch.expand_radius",
                    radius=radius,
                    active_queries=len(act),
                ):
                    expand(act)
            act = [
                qi
                for qi in act
                if kth[qi] > radius and radius <= max_needed[qi]
            ]
            radius += self.radius_step
        if tracer.enabled:
            tracer.counter("knn.radius_expansions").inc(sum(expansions))
            per_query = tracer.histogram(
                "knn.expansions_per_query", buckets=tuple(range(1, 65))
            )
            for count in expansions:
                per_query.observe(count)

        ids = np.empty((n_queries, k_eff), dtype=np.int64)
        distances = np.empty((n_queries, k_eff), dtype=np.float64)
        for qi, heap in enumerate(heaps):
            ordered = sorted((-d, rid) for d, rid in heap)
            ids[qi] = [rid for _, rid in ordered]
            distances[qi] = [d for d, _ in ordered]
        return ids, distances
