"""Online-mutation plumbing: the paper's insert rule for every scheme,
and the flat-layout schemes' one mutation path.

:func:`route_point` is §5's dynamic-insert rule, used by all three
schemes.  The extended iDistance keeps its own per-partition main+delta
layout (§5's auxiliary arrays exist for exactly that);
``SequentialScan`` and ``GlobalLDRIndex`` inherit ``insert``/``delete``
from :class:`DeltaIndex`: a single append-only :class:`DeltaStore`
holding the dynamically inserted vectors (packed into data pages by
byte budget), plus rid tombstones kept on the index for deletes,
which a scan filters out of its candidates by rid.  Both are small by
design — online updates accumulate between index rebuilds, they do not
reorganize the bulk layout.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..reduction.base import ReducedDataset
from ..storage.metrics import CostCounters
from ..storage.pager import PAGE_SIZE, PageStore, vector_bytes
from .base import DEFAULT_POOL_PAGES, VectorIndex

__all__ = ["DeltaIndex", "DeltaStore", "route_point"]


def route_point(
    reduced: ReducedDataset, point: np.ndarray, beta: float
) -> Tuple[int, np.ndarray, float]:
    """Route a new point the way the paper's dynamic insert does.

    Returns ``(subspace_index, stored_vector, residual)``: the subspace
    with the smallest ``ProjDist_r`` hosts the point (stored as its
    reduced projection) when that distance is within ``beta``; otherwise
    the point is an outlier (``-1``) stored at full dimensionality.
    ``residual`` is that smallest ``ProjDist_r`` (``inf`` when there are
    no subspaces) — already computed for the routing decision, and fed to
    the health sampler's live MPE-drift estimate for free.
    """
    point = np.asarray(point, dtype=np.float64)
    best_idx = -1
    best_dist = np.inf
    for i, subspace in enumerate(reduced.subspaces):
        dist = float(subspace.proj_dist_r(point)[0])
        if dist < best_dist:
            best_idx, best_dist = i, dist
    if best_idx < 0 or best_dist > beta:
        return -1, point, best_dist
    return best_idx, reduced.subspaces[best_idx].project(point), best_dist


class DeltaStore:
    """Append-only side store for dynamically inserted vectors.

    Vectors of mixed widths (reduced projections and full-dimensional
    outliers) pack into shared data pages by byte budget; every page is
    allocated on the owning index's page store so the allocation is
    WAL-logged and the index's page count reflects the inserts.  Scans
    charge the pages and score every entry — the flat-layout analogue of
    iDistance's per-partition delta scoring.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.vectors: List[np.ndarray] = []
        self.rids: List[int] = []
        self.subspace_ids: List[int] = []  # -1 = full-dimensional outlier
        self.pages: List[int] = []
        self.bytes_in_last_page = 0
        self._rid_set: set = set()

    def __len__(self) -> int:
        return len(self.rids)

    def __contains__(self, rid: int) -> bool:
        return rid in self._rid_set

    def _append(self, rid: int, subspace_id: int, vector: np.ndarray) -> None:
        rid = int(rid)
        self.vectors.append(vector)
        self.rids.append(rid)
        self.subspace_ids.append(int(subspace_id))
        self._rid_set.add(rid)

    def add(
        self,
        store: PageStore,
        rid: int,
        subspace_id: int,
        vector: np.ndarray,
    ) -> None:
        """Append one entry, allocating a fresh data page when the current
        one cannot hold the vector's bytes."""
        vector = np.asarray(vector, dtype=np.float64)
        nbytes = max(1, vector_bytes(vector.size))
        if (
            not self.pages
            or self.bytes_in_last_page + nbytes > PAGE_SIZE
        ):
            self.pages.append(
                store.allocate(
                    (f"{self.label}-delta", len(self.pages)), 0
                )
            )
            self.bytes_in_last_page = 0
        self.bytes_in_last_page += nbytes
        self._append(rid, subspace_id, vector)

    def entries(self):
        """Iterate ``(vector, rid, subspace_id)`` in insertion order."""
        return zip(self.vectors, self.rids, self.subspace_ids)

    def distances(
        self,
        query: np.ndarray,
        q_projs: Sequence[np.ndarray],
        counters: CostCounters,
    ) -> np.ndarray:
        """Distance from the query to every entry, in insertion order.

        An entry routed to subspace ``s`` is scored against the query's
        projection ``q_projs[s]``; a full-dimensional entry against the
        query itself.  Each is one 1-D ``np.linalg.norm`` (``x.dot(x)``
        under the hood, which a batched matrix norm would not reproduce
        bit for bit), charged to ``counters`` at the entry's width.
        """
        out = np.empty(len(self.rids), dtype=np.float64)
        for j, (vec, sidx) in enumerate(zip(self.vectors, self.subspace_ids)):
            ref = q_projs[sidx] if sidx >= 0 else query
            out[j] = float(np.linalg.norm(vec - ref))
            counters.count_distance(1, dims=max(1, vec.size))
        return out

    # -- recovery support ------------------------------------------------

    def fill_meta(self) -> dict:
        """Page-layout state for a commit record's after-image."""
        return {
            "delta_pages": list(self.pages),
            "delta_bytes_in_last_page": self.bytes_in_last_page,
        }

    def apply_insert(
        self,
        rid: int,
        subspace_id: int,
        vector: np.ndarray,
        fill_meta: Optional[dict] = None,
    ) -> None:
        """Metadata redo: append an entry whose page allocations were
        already replayed physically; restore the page-fill state."""
        self._append(rid, subspace_id, np.asarray(vector, dtype=np.float64))
        if fill_meta is not None:
            self.pages = list(fill_meta["delta_pages"])
            self.bytes_in_last_page = int(
                fill_meta["delta_bytes_in_last_page"]
            )


class DeltaIndex(VectorIndex):
    """The flat-layout schemes' online mutation (DESIGN.md §10).

    Inserts are routed by :func:`route_point` and appended to one
    :class:`DeltaStore` (labelled :attr:`delta_label`, which keys its
    page allocations); deletes tombstone the rid.  Both run as WAL
    transactions when :meth:`~repro.index.base.VectorIndex.enable_wal`
    is active.
    """

    #: Label of the scheme's delta store pages (each subclass sets one).
    delta_label: str

    def __init__(
        self,
        reduced: ReducedDataset,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory=None,
    ) -> None:
        super().__init__(pool_pages=pool_pages, store_factory=store_factory)
        self.reduced = reduced
        self.delta = DeltaStore(self.delta_label)
        self._tomb_cache: Optional[np.ndarray] = None

    def insert(
        self, point: np.ndarray, rid: int, beta: float = 0.1
    ) -> int:
        """Insert a point into the delta store, routed like the paper's
        dynamic insert (nearest subspace within β, else outlier).  Returns
        the subspace index used (-1 for outlier/full-d).  Raises
        ``ValueError`` for a live or deleted rid."""
        point = self._prepare_point(point)
        rid = self._check_new_rid(rid)
        sidx, vector, residual = route_point(self.reduced, point, beta)
        self._note_routed_insert(sidx, residual)
        with self._wal_txn("insert") as txn:
            self.delta.add(self.store, rid, sidx, vector)
            self.n_inserted += 1
            if txn is not None:
                txn.set_meta(
                    {
                        "kind": "insert",
                        "rid": rid,
                        "subspace": sidx,
                        "vector": vector,
                        **self.delta.fill_meta(),
                    }
                )
        return sidx

    def delete(self, rid: int) -> None:
        """Tombstone a record id.  Raises ``KeyError`` for unknown or
        already-deleted rids."""
        rid = int(rid)
        if rid in self._tombstones:
            raise KeyError(f"rid {rid} was already deleted")
        if not self._holds(rid):
            raise KeyError(f"rid {rid} is not in the index")
        with self._wal_txn("delete") as txn:
            self._tombstones.add(rid)
            if txn is not None:
                txn.set_meta({"kind": "delete", "rid": rid})

    def _holds(self, rid: int) -> bool:
        return 0 <= rid < self.reduced.n_points or rid in self.delta

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

    def _delta_rids(self):
        return self.delta.rids

    def _apply_recovery_meta(self, meta: dict) -> None:
        kind = meta["kind"]
        if kind == "insert":
            self.delta.apply_insert(
                meta["rid"], meta["subspace"], meta["vector"], meta
            )
            self.n_inserted += 1
        elif kind == "delete":
            self._tombstones.add(int(meta["rid"]))
        else:
            raise ValueError(f"unknown recovery meta kind {kind!r}")
