"""Sequential scan over the reduced data — Figure 9's floor/ceiling line.

Stores each partition's reduced vectors packed into data pages and answers
a KNN query by reading every page once, sequentially, and scoring every
vector.  No index structure, no random I/O: for a reduced dataset of
``n`` vectors at average width ``d_r`` the cost is exactly
``ceil(n * d_r * 4 / 4096)`` sequential page reads — the bar the paper shows
gLDR falling *behind* once the dimensionality reaches ~20.

Online mutation (DESIGN.md §10) comes from
:class:`~repro.index.dynamic.DeltaIndex`: inserted vectors' pages join
the scan; a deleted rid is still scored but filtered from the result.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..obs.tracer import Tracer
from ..reduction.base import ReducedDataset
from ..storage.pager import pages_for_vectors
from .base import DEFAULT_POOL_PAGES
from .dynamic import DeltaIndex

__all__ = ["SequentialScan"]


class SequentialScan(DeltaIndex):
    """Full scan of the reduced representations (subspace-aware scoring)."""

    name = "SeqScan"
    delta_label = "seqscan"

    def __init__(
        self,
        reduced: ReducedDataset,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory=None,
    ) -> None:
        super().__init__(
            reduced, pool_pages=pool_pages, store_factory=store_factory
        )
        #: Pages the bulk-loaded data occupies (subspaces + outliers).
        self.scan_pages = sum(
            pages_for_vectors(s.size, s.reduced_dim)
            for s in reduced.subspaces
        ) + pages_for_vectors(
            reduced.outliers.size, reduced.dimensionality
        )
        # Materialize the page map so the store reflects reality.
        for subspace in reduced.subspaces:
            for _ in range(
                pages_for_vectors(subspace.size, subspace.reduced_dim)
            ):
                self.store.allocate(
                    ("seqscan-data", subspace.subspace_id), 0
                )
        for _ in range(
            pages_for_vectors(reduced.outliers.size, reduced.dimensionality)
        ):
            self.store.allocate(("seqscan-outliers",), 0)

    @property
    def total_scan_pages(self) -> int:
        """Pages one full scan reads: bulk data plus the insert delta."""
        return self.scan_pages + len(self.delta.pages)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _search(
        self, query: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray]:
        k = min(k, self.live_count)
        if k <= 0:  # every point deleted — nothing to return
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        with tracer.span(
            "knn.sequential_scan",
            counters=self.counters,
            pages=self.total_scan_pages,
        ):
            return self._scan_all(query, k)

    def _scan_all(
        self, query: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self.counters.count_sequential_read(self.total_scan_pages)

        id_chunks: List[np.ndarray] = []
        dist_chunks: List[np.ndarray] = []
        q_projs: List[np.ndarray] = []
        for subspace in self.reduced.subspaces:
            q_proj = subspace.project(query)
            q_projs.append(q_proj)
            diff = subspace.projections - q_proj
            dist_chunks.append(np.linalg.norm(diff, axis=1))
            id_chunks.append(subspace.member_ids)
            self.counters.count_distance(
                subspace.size, dims=subspace.reduced_dim
            )
        outliers = self.reduced.outliers
        if outliers.size:
            dist_chunks.append(self._outlier_distances(query))
            id_chunks.append(outliers.member_ids)
        if len(self.delta):
            dist_chunks.append(
                self.delta.distances(query, q_projs, self.counters)
            )
            id_chunks.append(np.asarray(self.delta.rids, dtype=np.int64))

        ids = np.concatenate(id_chunks)
        distances = np.concatenate(dist_chunks)
        alive = self._alive_mask(ids)
        if alive is not None:
            ids, distances = ids[alive], distances[alive]
        top = np.argpartition(distances, k - 1)[:k]
        order = np.argsort(distances[top])
        best = top[order]
        return ids[best], distances[best]
