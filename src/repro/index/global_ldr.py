"""gLDR: the Global Index of the LDR paper — one Hybrid tree per cluster.

This is the third indexing scheme of Figures 9/10: reduced clusters each get
their own multi-dimensional index (a Hybrid tree), and an in-memory array
keeps each cluster's reference frame so a query can be projected per
cluster.  KNN search runs a single best-first queue *across* all trees,
seeded with each root's MINDIST, so the global K-th-best distance prunes
every tree simultaneously; outliers (stored at full dimensionality) are
scanned sequentially, exactly as the reduced clusters' leftovers are
handled in the LDR paper.

Scoring matches the extended iDistance: within-cluster reduced L2 (a lower
bound of the true distance), full L2 for outliers — so precision
comparisons between the schemes are apples to apples and the cost
difference is purely structural.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from ..linalg.kernels import flat_l2
from ..obs.tracer import Tracer
from ..reduction.base import ReducedDataset
from ..storage.pager import pages_for_vectors
from .base import DEFAULT_POOL_PAGES, VectorIndex
from .dynamic import DeltaIndex
from .hybrid_tree import HybridTree, offer_block

__all__ = ["GlobalLDRIndex"]


class GlobalLDRIndex(DeltaIndex):
    """One Hybrid tree per reduced cluster + sequential outlier scan."""

    name = "gLDR"
    delta_label = "gldr"

    def __init__(
        self,
        reduced: ReducedDataset,
        pool_pages: int = DEFAULT_POOL_PAGES,
        store_factory=None,
    ) -> None:
        super().__init__(
            reduced, pool_pages=pool_pages, store_factory=store_factory
        )
        self.trees: List[HybridTree] = []
        for subspace in reduced.subspaces:
            self.trees.append(
                HybridTree(
                    self.store,
                    self.pool,
                    subspace.projections,
                    subspace.member_ids,
                )
            )
        self.outlier_pages = pages_for_vectors(
            reduced.outliers.size, reduced.dimensionality
        )
        for _ in range(self.outlier_pages):
            self.store.allocate(("gldr-outliers",), 0)
        self._derive_outlier_columns()

    def _derive_outlier_columns(self) -> None:
        """The outliers as the C-contiguous ``(d, n)`` block ``flat_l2``
        scores.  It is derived from ``reduced``: a snapshot leaves it out
        and loading rebuilds it."""
        self._outlier_columns = np.ascontiguousarray(
            self.reduced.outliers.points.T
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_outlier_columns"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive_outlier_columns()

    # Defined on the class itself so a profiler can patch this scheme's
    # query entry point alone.
    knn = VectorIndex.knn

    def _search(
        self, query: np.ndarray, k: int, tracer: Tracer
    ) -> Tuple[np.ndarray, np.ndarray]:
        k = min(k, self.live_count)
        if k <= 0:  # every point deleted — nothing to return
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        q_proj = [
            self.reduced.subspaces[i].project(query)
            for i in range(len(self.trees))
        ]
        results: List[Tuple[float, int]] = []  # max-heap via negation

        def offer(dists: np.ndarray, rids: np.ndarray) -> None:
            alive = self._alive_mask(rids)
            if alive is not None:
                dists, rids = dists[alive], rids[alive]
            offer_block(results, k, dists, rids)

        # Outliers first: their exact distances tighten the global bound
        # before any tree is descended.
        outliers = self.reduced.outliers
        if outliers.size:
            with tracer.span(
                "gldr.outlier_scan",
                counters=self.counters,
                outliers=int(outliers.size),
            ):
                self.counters.count_sequential_read(self.outlier_pages)
                dists = flat_l2(
                    self._outlier_columns, slice(None), query[:, None], 0
                )
                self.counters.count_distance(
                    outliers.size, dims=self.reduced.dimensionality
                )
                rids = outliers.member_ids
                alive = self._alive_mask(rids)
                if alive is not None:
                    dists, rids = dists[alive], rids[alive]
                if dists.size > k:
                    # The heap is empty here, so offering every outlier
                    # leaves exactly the rows at or below the k-th
                    # smallest distance: keep them all (ties included)
                    # and offer them in scan order — the same heap,
                    # tie rule and all.
                    cut = np.partition(dists, k - 1)[k - 1]
                    keep = dists <= cut
                    dists, rids = dists[keep], rids[keep]
                offer_block(results, k, dists, rids)

        # Delta store next (few entries; exact distances, like outliers):
        # scoring it before the trees tightens the bound further.
        delta = self.delta
        if len(delta):
            with tracer.span(
                "gldr.delta_scan",
                counters=self.counters,
                entries=len(delta),
            ):
                for page in delta.pages:
                    self.pool.read(page)
                offer(
                    delta.distances(query, q_proj, self.counters),
                    np.asarray(delta.rids, dtype=np.int64),
                )

        # One global frontier across every cluster's tree.
        frontier: List[Tuple[float, int, int]] = []
        for tree_idx, tree in enumerate(self.trees):
            heapq.heappush(
                frontier,
                (tree.root_mindist(q_proj[tree_idx]), tree_idx, tree.root_page),
            )

        with tracer.span(
            "gldr.tree_search", counters=self.counters, trees=len(self.trees)
        ) as tree_span:
            expanded = 0
            while frontier:
                mindist, tree_idx, page = heapq.heappop(frontier)
                if len(results) == k and mindist > -results[0][0]:
                    break

                def push(child_mindist: float, child_page: int) -> None:
                    heapq.heappush(
                        frontier, (child_mindist, tree_idx, child_page)
                    )

                self.trees[tree_idx].expand(
                    page, q_proj[tree_idx], push, offer
                )
                expanded += 1
            if tracer.enabled:
                tree_span.set(nodes_expanded=expanded)

        ordered = sorted((-d, rid) for d, rid in results)
        distances = np.array([d for d, _ in ordered])
        ids = np.array([rid for _, rid in ordered], dtype=np.int64)
        return ids, distances
