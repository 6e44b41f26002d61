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
    row_dots,
    row_gemv,
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


class _BlockLedger:
    """Recording cost sink: every query's costs in a :meth:`knn_batch` block.

    A batch never routes I/O through the shared buffer pool — interleaving
    queries would corrupt each query's cold-cache accounting.  Instead
    every page read a cold query would issue is recorded here as an
    inclusive page-id range ``(query, lo, hi)``, one array chunk per scan
    step in program order (tree descents via
    :meth:`~repro.btree.tree.BPlusTree.descend_path`), and
    :func:`_settle_ledger` replays each query's expanded sequence against
    an LRU of the pool's capacity to recover the exact logical/physical
    read counts.
    """

    __slots__ = (
        "queries",
        "page_lo",
        "page_hi",
        "key_comparisons",
        "distance_computations",
        "distance_flops",
    )

    def __init__(self, n_queries: int) -> None:
        self.queries: List[np.ndarray] = []
        self.page_lo: List[np.ndarray] = []
        self.page_hi: List[np.ndarray] = []
        self.key_comparisons = [0] * n_queries
        self.distance_computations = [0] * n_queries
        self.distance_flops = [0] * n_queries

    def read(self, queries: List[int], lo: List[int], hi: List[int]) -> None:
        """Record reads of the page ids ``lo[i]..hi[i]`` (inclusive) by
        query ``queries[i]``, in list order."""
        self.queries.append(np.array(queries, dtype=np.int64))
        self.page_lo.append(np.array(lo, dtype=np.int64))
        self.page_hi.append(np.array(hi, dtype=np.int64))

    def descend(
        self, tree: BPlusTree, queries: List[int], keys: List[float]
    ) -> None:
        """One tree descent per query, to its key."""
        owner: List[int] = []
        pages: List[int] = []
        for qi, key in zip(queries, keys):
            path, comparisons = tree.descend_path(key)
            owner.extend([qi] * len(path))
            pages.extend(path)
            self.key_comparisons[qi] += comparisons
        self.read(owner, pages, pages)

    def count(self, query: int, n: int, dims: int, scanned: bool) -> None:
        """``n`` distances of ``dims`` coordinates for ``query``, and as
        many key comparisons for ``scanned`` (window) entries."""
        if scanned:
            self.key_comparisons[query] += n
        self.distance_computations[query] += n
        self.distance_flops[query] += n * dims


def _settle_ledger(
    ledger: _BlockLedger, n_queries: int, capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(logical, physical)`` read counts for every query of a ledger.

    Equivalent to an exact cold-LRU replay of each query's page sequence,
    but the common case — every query's working set fits the pool, so
    physical reads = distinct pages — is answered with ONE combined sort
    over all queries (page ids offset into disjoint per-query blocks;
    ``np.unique`` took 10x as long on a 32-row block).  Only queries whose
    distinct count exceeds the capacity fall back to the exact per-query
    LRU replay.
    """
    logical = np.zeros(n_queries, dtype=np.int64)
    physical = np.zeros(n_queries, dtype=np.int64)
    if not ledger.queries:
        return logical, physical
    los = np.concatenate(ledger.page_lo)
    his = np.concatenate(ledger.page_hi)
    run_lens = his - los + 1
    pages = multi_arange(los, his + 1)
    query_of_page = np.repeat(np.concatenate(ledger.queries), run_lens)
    logical = np.bincount(query_of_page, minlength=n_queries)
    stride = int(pages.max()) + 1 if pages.size else 1
    keys = np.sort(query_of_page * stride + pages)
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    physical = np.bincount(keys[first] // stride, minlength=n_queries)
    over = np.flatnonzero(physical > capacity)
    for qi in over.tolist():
        # Chunks are in program order, so each query's pages are too.
        physical[qi] = cold_lru_physical_reads(
            pages[query_of_page == qi], capacity
        )
    return logical, physical


class _LiveSink:
    """Live cost sink: the single query of :meth:`ExtendedIDistance.knn`.

    Same interface as :class:`_BlockLedger`, but every cost lands at once:
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

    def read(self, queries: List[int], lo: List[int], hi: List[int]) -> None:
        read = self.pool.read
        for first, last in zip(lo, hi):
            for page in range(first, last + 1):
                read(page)

    def descend(
        self, tree: BPlusTree, queries: List[int], keys: List[float]
    ) -> None:
        for key in keys:
            tree._descend(key)

    def count(self, query: int, n: int, dims: int, scanned: bool) -> None:
        if scanned:
            self.counters.count_key_comparison(n)
        self.counters.count_distance(n, dims=dims)


def _merge_offers(
    best_d: np.ndarray,
    best_r: np.ndarray,
    kth: np.ndarray,
    rows: List[int],
    parts_d: List[List[np.ndarray]],
    parts_r: List[List[np.ndarray]],
) -> None:
    """Merge scored entries into their queries' best-k rows, in place.

    ``best_d``/``best_r`` hold each query's best k distances and rids
    (+inf where no entry has been offered yet; distances are finite) and
    ``kth`` its k-th best distance once the row is full, else inf.
    ``parts_d[i]``/``parts_r[i]`` are the distances and rids offered to
    query ``rows[i]`` by one probe, in scan order, all better than its
    ``kth``.

    A max-heap fed a query's entries one by one with a strict ``<`` ends
    holding exactly the k smallest of {row ∪ entries} whenever the k-th
    smallest distance is unique there — which entries reached the heap on
    the way cannot matter.  So a long offer list is first cut to its
    k + 1 smallest by one ``argpartition`` (they hold the union's k
    smallest and its (k+1)-th), and the k smallest of the row and what is
    left, at most 2k + 1 pairs, are taken in sorted order.  Which k a heap
    keeps depends on the order only when the (k+1)-th smallest distance
    equals the k-th (a heap at that value rejects an equal one and evicts
    by rid); such a query is merged by the literal heap loop instead.
    Either way each row holds the heap's content, and so every later
    comparison is the heap's.
    """
    k_eff = best_d.shape[1]
    for qi, row_d, row_r in zip(rows, parts_d, parts_r):
        offer_d = row_d[0] if len(row_d) == 1 else np.concatenate(row_d)
        offer_r = row_r[0] if len(row_r) == 1 else np.concatenate(row_r)
        if offer_d.size > k_eff + 1:
            keep = offer_d.argpartition(k_eff)[: k_eff + 1]
            offer_d = offer_d[keep]
            offer_r = offer_r[keep]
        union = sorted(
            zip(
                best_d[qi].tolist() + offer_d.tolist(),
                best_r[qi].tolist() + offer_r.tolist(),
            )
        )
        if union[k_eff - 1][0] == union[k_eff][0] < math.inf:
            # The heap loop over this probe's offers, in scan order, from
            # the row as it was.
            heap = [
                (-dist_, rid)
                for dist_, rid in zip(best_d[qi].tolist(), best_r[qi].tolist())
                if dist_ < math.inf
            ]
            heapq.heapify(heap)
            for part_d, part_r in zip(row_d, row_r):
                for dist_, rid in zip(part_d.tolist(), part_r.tolist()):
                    if len(heap) < k_eff:
                        heapq.heappush(heap, (-dist_, rid))
                    elif dist_ < -heap[0][0]:
                        heapq.heapreplace(heap, (-dist_, rid))
            union = sorted((-dist_, rid) for dist_, rid in heap)
        best_d[qi] = [dist_ for dist_, _ in union[:k_eff]]
        best_r[qi] = [rid for _, rid in union[:k_eff]]
        kth[qi] = union[k_eff - 1][0]


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
        """Rebuild the scan's derived state: each partition's scan plan
        (:meth:`_scan_plan`), the alive masks, cached as ``(key, masks,
        tombstones folded in)`` (see :meth:`_alive_masks`), and the delta
        stores' column blocks (:meth:`_delta_block`)."""
        self._plans = [self._scan_plan(p) for p in self.partitions]
        self._projections = self._projection_groups()
        self._rims: Optional[tuple] = None
        self._alive: Optional[
            Tuple[Tuple[int, int], List[Optional[np.ndarray]], frozenset]
        ] = None
        self._delta_blocks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def _scan_plan(self, partition: _Partition) -> tuple:
        """What a probe reads of a partition's (immutable) bulk entries:
        ``(offsets, columns, rids, page_of_entry, rank0, width)``, where
        ``rank0`` is the partition's first entry rank in the tree and
        ``width`` the dimensionality distances are charged at."""
        return (
            partition.offsets,
            partition.columns,
            partition.rids,
            partition.page_of_entry,
            int(self._rank_base[partition.index]),
            max(1, partition.columns.shape[0]),
        )

    def _projection_groups(self) -> list:
        """The partitions grouped by how queries map into them — each
        subspace shape, and the outlier set (no projection) — as
        ``(partition indices, means, bases, centroids)`` stacked for one
        :func:`~repro.linalg.kernels.row_gemv` per group; ``means`` and
        ``bases`` are ``None`` for the outlier set."""
        groups: Dict[object, List[_Partition]] = {}
        for partition in self.partitions:
            subspace = partition.subspace
            key = None if subspace is None else subspace.basis.shape
            groups.setdefault(key, []).append(partition)
        stacked = []
        for key, members in groups.items():
            means = bases = None
            if key is not None:
                means = np.stack([p.subspace.mean for p in members])
                means = means[:, None, None, :]
                bases = np.stack([p.subspace.basis for p in members])[:, None]
            centroids = np.stack([p.centroid for p in members])
            stacked.append((
                [p.index for p in members],
                means,
                bases,
                centroids[:, None, None, :],
            ))
        return stacked

    def _scan_rims(self) -> Tuple[np.ndarray, np.ndarray, object]:
        """Every partition's min and max radius as ``(n_parts, 1)``
        columns, and an index of the partitions holding entries.  Radii
        move only when an insert lands, so the insert count keys the
        cache."""
        cached = self._rims
        if cached is None or cached[0] != self.n_inserted:
            rims = np.array(
                [[[p.min_radius], [p.max_radius]] for p in self.partitions]
            ).reshape(-1, 2, 1)
            sized = [p.index for p in self.partitions if p.size > 0]
            if len(sized) == len(self.partitions):
                sized = slice(None)
            cached = self._rims = (
                self.n_inserted, rims[:, 0], rims[:, 1], sized
            )
        return cached[1:]

    def __getstate__(self) -> dict:
        # A snapshot carries the tombstones and delta lists, never the
        # scan state derived from them.
        state = dict(self.__dict__)
        for derived in (
            "_plans", "_projections", "_rims", "_alive", "_delta_blocks"
        ):
            del state[derived]
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
            query[None, :], k, _LiveSink(self.pool, self.counters), tracer
        )
        return ids[0], distances[0]

    def _knn_batch(
        self, queries: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
        """A cold-cache block through :meth:`_shared_scan`, one recording
        ledger for the block, bit-identical to a cold :meth:`knn` loop.

        Each query's recorded page sequence is settled against an exact
        LRU replay at the end; the batch totals are then folded into the
        index's own counters.  The block's elapsed time is shared out
        equally as each query's ``cpu_seconds``.
        """
        start = time.perf_counter()
        n_queries = queries.shape[0]
        with self.counters.cpu_timer():
            ledger = _BlockLedger(n_queries)
            ids, distances = self._shared_scan(queries, k, ledger, tracer)
            with tracer.span("knn.batch.settle", n_queries=n_queries):
                logical, physical = _settle_ledger(
                    ledger, n_queries, self.pool.capacity_pages
                )
            self.counters.merge(
                CostSnapshot(
                    logical_reads=int(logical.sum()),
                    physical_reads=int(physical.sum()),
                    key_comparisons=sum(ledger.key_comparisons),
                    distance_computations=sum(ledger.distance_computations),
                    distance_flops=sum(ledger.distance_flops),
                )
            )
        share = (time.perf_counter() - start) / n_queries
        stats = [
            QueryStats(
                page_reads=reads,
                distance_computations=dists,
                distance_flops=flops,
                key_comparisons=comparisons,
                cpu_seconds=share,
            )
            for reads, dists, flops, comparisons in zip(
                physical.tolist(),
                ledger.distance_computations,
                ledger.distance_flops,
                ledger.key_comparisons,
            )
        ]
        return ids, distances, stats

    def _shared_scan(
        self,
        queries: np.ndarray,
        k: int,
        sink: Union[_BlockLedger, _LiveSink],
        tracer: Tracer,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The search engine: exact KNN for every row of ``queries``.

        Every query expands its search radius in lockstep, and each step
        works on the whole block.  An expansion first screens every
        (partition, active query) pair at the new radius with one array
        comparison against the pair's edges: the nearest unscanned
        offsets below and above its window once in contact, the
        partition's rims (the annulus gate) before.  No pair the screen
        drops can change at this step.  Then, per partition in order (a
        *probe*), for the pairs it kept: first contact (tree descent,
        delta-store scoring), the window plan — ``bound = min(kth,
        radius)`` and both window edges as one ``searchsorted`` per side
        over the block, ``"left"`` for ``d_i - bound`` and ``"right"``
        for ``d_i + bound`` — and, per query that gained entries, its runs
        and page ranges.  Every new window entry is scored by
        :func:`~repro.linalg.kernels.flat_l2` on the partition's
        column-major block, bit-identical to a per-block
        ``np.linalg.norm(rows - q, axis=1)``.  A query's inward and
        outward windows are adjacent from first contact until either one
        has been scanned, and are then scored as one run.  When more than
        one query is probed, the short runs go through ONE gathered call;
        long runs (and every run of a lone query) get one call each on a
        contiguous column view.  Each run's entries are masked by their
        query's ``kth`` (and the alive mask), and what survives is merged
        once per probe (:func:`_merge_offers`) into ``(Q, k)`` distance
        and rid rows, to the content a top-k heap fed each window in scan
        order would hold, ties included.

        Costs go to ``sink``: a :class:`_BlockLedger` records them for
        :meth:`_knn_batch` to settle, a :class:`_LiveSink` pays them at
        once for :meth:`knn`, in the same per-query order.  Live mode
        runs one query and, under a real tracer, emits
        ``knn.expand_radius`` / ``knn.probe_partition`` spans with cost
        deltas (what :meth:`explain` breaks down); recording mode emits
        the ``knn.batch.*`` spans.
        """
        n_queries = queries.shape[0]
        k_eff = min(k, self.live_count)
        if k_eff <= 0:  # every point deleted — nothing to return
            return (
                np.empty((n_queries, 0), dtype=np.int64),
                np.empty((n_queries, 0), dtype=np.float64),
            )
        live = isinstance(sink, _LiveSink)
        spans = tracer.enabled or not live
        partitions = self.partitions
        n_parts = len(partitions)

        # Per-partition query geometry: the projections into every
        # subspace of one width by one row_gemv (a gemv per query and
        # subspace, as project() runs; a 2-d matmul would run gemm, whose
        # bits differ) and their squared distances to the centroid by
        # one row_dots (np.dot per row, whose sqrt is np.linalg.norm's).
        # Each partition's projections are one (width, Q) column block:
        # the layout flat_l2 scores against.
        q_cols: List[np.ndarray] = [None] * n_parts
        dist = np.empty((n_parts, n_queries), dtype=np.float64)
        stacked = queries[None, :, None, :]
        with (NULL_TRACER if live else tracer).span(
            "knn.batch.project_queries",
            n_queries=n_queries,
            partitions=n_parts,
        ):
            for members, means, bases, centroids in self._projections:
                if bases is None:
                    proj = stacked
                else:
                    proj = row_gemv(stacked - means, bases)
                square = row_dots(proj - centroids)
                dist[members] = np.sqrt(square.reshape(len(members), -1))
                blocks = np.ascontiguousarray(proj[:, :, 0, :].swapaxes(1, 2))
                for p, block in zip(members, blocks):
                    q_cols[p] = block

        # Partition rims, as (partition, 1) columns; past dist +
        # max_radius every key of a partition is consumed for a query.
        min_r, max_r, sized = self._scan_rims()
        max_needed = (dist[sized] + max_r[sized]).max(axis=0, initial=0.0)

        # Each query's best k (see _merge_offers).
        best_d = np.full((n_queries, k_eff), np.inf)
        best_r = np.zeros((n_queries, k_eff), dtype=np.int64)
        kth = np.full(n_queries, np.inf)
        # Per partition and query: contact flag, then the inward scan's
        # exclusive stop and the outward scan's start.  Positions [in, out)
        # are consumed; an exhausted direction parks at 0 or at the bulk
        # size.  `untouched` counts each partition's queries not yet in
        # contact.
        contact = np.zeros((n_parts, n_queries), dtype=bool)
        in_stop = np.zeros((n_parts, n_queries), dtype=np.int64)
        out_start = np.zeros((n_parts, n_queries), dtype=np.int64)
        untouched = [n_queries] * n_parts
        # The screen's edges: at radius R a pair can change only if
        # below >= d - R or above <= d + R.  In contact they are the
        # nearest unscanned offsets below and above the window (-inf and
        # +inf past the ends); before contact they encode the annulus
        # gate d - R <= max_radius and d + R >= min_radius.
        below = np.where(
            dist > max_r, max_r, np.where(dist < min_r, -np.inf, np.inf)
        )
        above = np.where(dist < min_r, min_r, np.inf)

        plans = self._plans
        leaf_pages = self._leaf_pages
        leaf_runs = self._leaf_runs
        fill = self._leaf_fill
        tree = self.tree
        c = self.c
        radius = self.radius_step
        # The alive mask over each partition's positions (None without
        # deletes) and the delta store's column block (None while empty).
        alive_masks = self._alive_masks()
        delta_blocks = [
            self._delta_block(p) if p.delta_rids else None
            for p in partitions
        ]

        def first_contact(partition: _Partition, fresh: List[int]) -> None:
            """Queries ``fresh`` reach ``partition`` for the first time:
            descend the tree to each seek key, park both scan edges there,
            and score the delta store (whose entries can move a query's
            bound before its first window)."""
            p = partition.index
            offsets, columns, _, _, _, width = plans[p]
            ins = in_stop[p]
            outs = out_start[p]
            touched = contact[p]
            row = dist[p]
            min_r_p = partition.min_radius
            max_r_p = partition.max_radius
            seek = [min(max(row.item(qi), min_r_p), max_r_p) for qi in fresh]
            sink.descend(tree, fresh, [p * c + key for key in seek])
            floor = below[p]
            ceiling = above[p]
            last = offsets.size
            for qi, start in zip(fresh, offsets.searchsorted(seek).tolist()):
                ins[qi] = outs[qi] = start
                touched[qi] = True
                floor[qi] = offsets.item(start - 1) if start else -np.inf
                ceiling[qi] = offsets.item(start) if start < last else np.inf
            untouched[p] -= len(fresh)
            delta = delta_blocks[p]
            if delta is None:
                return
            delta_cols, delta_rids = delta
            n_delta = delta_rids.size
            n_fresh = len(fresh)
            delta_pages = partition.delta_pages
            if delta_pages:
                sink.read(
                    [qi for qi in fresh for _ in delta_pages],
                    delta_pages * n_fresh,
                    delta_pages * n_fresh,
                )
            for qi in fresh:
                sink.count(qi, n_delta, width, False)
            seg_q = np.repeat(fresh, n_delta)
            seg_d = flat_l2(
                delta_cols,
                np.tile(np.arange(n_delta), n_fresh),
                q_cols[p],
                seg_q,
            )
            keep = seg_d < kth[seg_q]
            alive = alive_masks[p]
            if alive is not None:
                keep &= np.tile(alive[columns.shape[1] :], n_fresh)
            picked = keep.nonzero()[0]
            if not picked.size:
                return
            got_d = seg_d[picked]
            got_r = delta_rids[picked % n_delta]
            cuts = picked.searchsorted(
                np.arange(n_delta, n_delta * n_fresh + 1, n_delta)
            ).tolist()
            rows: List[int] = []
            parts_d: List[List[np.ndarray]] = []
            parts_r: List[List[np.ndarray]] = []
            lo = 0
            for qi, hi in zip(fresh, cuts):
                if hi > lo:
                    rows.append(qi)
                    parts_d.append([got_d[lo:hi]])
                    parts_r.append([got_r[lo:hi]])
                lo = hi
            _merge_offers(best_d, best_r, kth, rows, parts_d, parts_r)

        def probe(partition: _Partition, cand: np.ndarray) -> None:
            """Advance the scans of one partition by the queries ``cand``
            (the screened ones) to cover ``[d_i - bound, d_i + bound]``."""
            p = partition.index
            offsets, columns, rids_all, page_of_entry, rank0, width = plans[p]
            if untouched[p]:
                touched = contact[p]
                fresh = [qi for qi in cand.tolist() if not touched[qi]]
                if fresh:
                    first_contact(partition, fresh)

            # The window plan: bound = min(kth, radius), then both edges,
            # widened only.  The inward side is [in_lo, in_hi), the
            # outward side [out_lo, out_hi).
            d = dist[p][cand]
            bound = np.minimum(kth[cand], radius)
            ins = in_stop[p]
            outs = out_start[p]
            floor = below[p]
            ceiling = above[p]
            last = offsets.size

            # Each query's new entries, side by side in scan order, as
            # runs: the inward and outward sides form one run while they
            # touch.  Per side, I/O is the leaf run covering its entry
            # ranks, then its contiguous data-page run.
            runs: List[Tuple[int, int, int]] = []
            io_q: List[int] = []
            io_lo: List[int] = []
            io_hi: List[int] = []
            for qi, a0, b1 in zip(
                cand.tolist(),
                offsets.searchsorted(d - bound).tolist(),
                offsets.searchsorted(d + bound, "right").tolist(),
            ):
                b0 = ins.item(qi)
                a1 = outs.item(qi)
                if a0 < b0:
                    ins[qi] = a0
                    floor[qi] = offsets.item(a0 - 1) if a0 else -np.inf
                elif b1 > a1:
                    a0 = b0
                else:
                    continue
                if b1 > a1:
                    outs[qi] = b1
                    ceiling[qi] = offsets.item(b1) if b1 < last else np.inf
                else:
                    b1 = a1
                if b0 == a1:
                    runs.append((qi, a0, b1))
                else:
                    if a0 < b0:
                        runs.append((qi, a0, b0))
                    if a1 < b1:
                        runs.append((qi, a1, b1))
                sink.count(qi, b0 - a0 + b1 - a1, width, True)
                for a, b in ((a0, b0), (a1, b1)):
                    if a == b:
                        continue
                    leaf_a = (rank0 + a) // fill
                    leaf_b = (rank0 + b - 1) // fill
                    if leaf_runs:
                        io_q.append(qi)
                        io_lo.append(leaf_pages.item(leaf_a))
                        io_hi.append(leaf_pages.item(leaf_b))
                    else:
                        for leaf in range(leaf_a, leaf_b + 1):
                            io_q.append(qi)
                            io_lo.append(leaf_pages.item(leaf))
                            io_hi.append(leaf_pages.item(leaf))
                    io_q.append(qi)
                    io_lo.append(page_of_entry.item(a))
                    io_hi.append(page_of_entry.item(b - 1))
            if not runs:
                return
            sink.read(io_q, io_lo, io_hi)

            # Scoring, and the mask by kth (and by the alive mask): each
            # run's surviving entries become one part of its query's
            # offers.  In a block of queries every short run is pooled into
            # ONE gathered flat_l2 call, so small per-query slabs don't pay
            # a kernel call each; a lone query has nothing to share a
            # gather with.
            pool_below = _BATCH_SEG_VIEW_MIN if cand.size > 1 else 0
            q_block = q_cols[p]
            alive = alive_masks[p]
            got_d: List[Optional[np.ndarray]] = [None] * len(runs)
            got_r: List[Optional[np.ndarray]] = [None] * len(runs)
            pooled: List[int] = []
            for i, (qi, a, b) in enumerate(runs):
                if b - a < pool_below:
                    pooled.append(i)
                    continue
                run_d = flat_l2(columns, slice(a, b), q_block, qi)
                keep = run_d < kth.item(qi)
                if alive is not None:
                    keep &= alive[a:b]
                n_hit = np.count_nonzero(keep)
                if n_hit == run_d.size:
                    got_d[i] = run_d
                    got_r[i] = rids_all[a:b]
                elif n_hit:
                    hit = keep.nonzero()[0]
                    got_d[i] = run_d[hit]
                    got_r[i] = rids_all[a + hit]
            if pooled:
                pool_q, pool_lo, pool_hi = (
                    np.array(column, dtype=np.int64)
                    for column in zip(*(runs[i] for i in pooled))
                )
                lengths = pool_hi - pool_lo
                positions = multi_arange(pool_lo, pool_hi)
                run_d = flat_l2(
                    columns, positions, q_block, pool_q.repeat(lengths)
                )
                keep = run_d < kth[pool_q].repeat(lengths)
                if alive is not None:
                    keep &= alive[positions]
                hit = keep.nonzero()[0]
                if hit.size:
                    hit_d = run_d[hit]
                    hit_r = rids_all[positions[hit]]
                    lo = 0
                    for i, hi in zip(
                        pooled, hit.searchsorted(np.cumsum(lengths)).tolist()
                    ):
                        if hi > lo:
                            got_d[i] = hit_d[lo:hi]
                            got_r[i] = hit_r[lo:hi]
                        lo = hi

            # One merge of the probe's offers, each query's parts in run
            # order.
            rows: List[int] = []
            parts_d: List[List[np.ndarray]] = []
            parts_r: List[List[np.ndarray]] = []
            for (qi, _, _), part_d, part_r in zip(runs, got_d, got_r):
                if part_d is None:
                    continue
                if rows and rows[-1] == qi:
                    parts_d[-1].append(part_d)
                    parts_r[-1].append(part_r)
                else:
                    rows.append(qi)
                    parts_d.append([part_d])
                    parts_r.append([part_r])
            if rows:
                _merge_offers(best_d, best_r, kth, rows, parts_d, parts_r)

        def expand(act: np.ndarray) -> None:
            """One radius step for the active queries ``act``: the screen,
            then one probe per partition it leaves work in."""
            cols = slice(None) if act.size == n_queries else act
            near = dist[:, cols]
            lo = near - radius
            hi = near + radius
            work = (below[:, cols] >= lo) | (above[:, cols] <= hi)
            busy = work.any(axis=1).tolist()
            for partition in partitions:
                p = partition.index
                if partition.size == 0:
                    continue
                if not (live and tracer.enabled):
                    if busy[p]:
                        probe(partition, act[work[p]])
                    continue
                with tracer.span(
                    "knn.probe_partition",
                    counters=self.counters,
                    partition=p,
                    outliers=partition.subspace is None,
                ):
                    if busy[p]:
                        probe(partition, act[work[p]])

        act = np.arange(n_queries)
        expansions = np.zeros(n_queries, dtype=np.int64)
        step = 0
        while act.size:
            step += 1
            if tracer.enabled:
                expansions[act] += 1
            if not spans:
                expand(act)
            elif live:
                # One span per radius expansion: its cost delta is exactly
                # the pages/distances this ΔR step paid across partitions.
                with tracer.span(
                    "knn.expand_radius",
                    counters=self.counters,
                    radius=radius,
                    expansion=step,
                ) as expand_span:
                    expand(act)
                    expand_span.set(
                        heap_size=int(np.count_nonzero(best_d[0] < np.inf)),
                        kth_best=float(kth[0]),
                    )
            else:
                with tracer.span(
                    "knn.batch.expand_radius",
                    radius=radius,
                    active_queries=int(act.size),
                ):
                    expand(act)
            act = act[(kth[act] > radius) & (radius <= max_needed[act])]
            radius += self.radius_step
        if tracer.enabled:
            tracer.counter("knn.radius_expansions").inc(int(expansions.sum()))
            per_query = tracer.histogram(
                "knn.expansions_per_query", buckets=tuple(range(1, 65))
            )
            for count in expansions.tolist():
                per_query.observe(count)

        # Ascending distance, ties by rid: the order sorted() gives the
        # (distance, rid) pairs.
        order = np.lexsort((best_r, best_d))
        rows = np.arange(n_queries)[:, None]
        return best_r[rows, order], best_d[rows, order]
