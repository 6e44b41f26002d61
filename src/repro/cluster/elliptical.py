"""Elliptical k-means (Sung & Poggio) with the paper's §4.2 optimizations.

This is the clustering engine inside MMDR's `Generate Ellipsoid` step.  It is
the nested-loop algorithm the paper describes in §2:

* the **inner loop** is k-means under the *normalized Mahalanobis distance*
  with each cluster's covariance held fixed — assignments and centroids move,
  shapes do not;
* the **outer loop** refits each cluster's covariance matrix from its current
  members and re-enters the inner loop;
* both loops stop when no point changes membership.

Using the normalized distance (Definition 3.2) rather than the raw quadratic
form prevents a large elongated cluster from swallowing its smaller
neighbours, because the ``log |C|`` volume penalty charges big ellipsoids for
their size.

The two §4.2 cost optimizations are implemented and individually switchable
so the ablation benchmarks can price them:

* ``use_lookup``: a :class:`~repro.cluster.lookup.CentroidLookupTable` caches
  each point's ``k`` closest centroid IDs; inner iterations only evaluate
  those candidates, and a point's cache line is refreshed only when its
  membership changes.
* ``use_activity``: points whose membership has survived
  ``activity_threshold`` consecutive iterations become *inactive* and skip
  distance computation until the number of clusters changes (empty clusters
  are dropped, which is the cluster-count change that reactivates everyone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..linalg.mahalanobis import (
    ClusterShape,
    Normalization,
    batch_normalized_mahalanobis,
)
from ..obs.tracer import NULL_TRACER, Tracer, ensure_tracer
from ..storage.metrics import CostCounters
from .kmeans import kmeans_pp_seeds
from .lookup import CentroidLookupTable

__all__ = ["EllipticalKMeans", "EllipticalKMeansResult"]


@dataclass
class EllipticalKMeansResult:
    """Outcome of one elliptical k-means run.

    ``labels[i]`` indexes ``shapes``; clusters that emptied out during the
    run have been dropped, so ``len(shapes)`` can be below the requested
    cluster count.  ``converged`` is True when a full outer round finished
    with zero membership changes before the iteration caps.
    """

    labels: np.ndarray
    shapes: List[ClusterShape]
    inner_iterations: int
    outer_iterations: int
    converged: bool
    final_inactive_fraction: float = 0.0

    @property
    def n_clusters(self) -> int:
        return len(self.shapes)

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the points assigned to ``cluster``."""
        return np.flatnonzero(self.labels == cluster)

    @property
    def centroids(self) -> np.ndarray:
        """``(n_clusters, d)`` stack of cluster centroids."""
        return np.vstack([s.centroid for s in self.shapes])


class EllipticalKMeans:
    """Configurable elliptical k-means estimator.

    Parameters mirror Table 1 where applicable: ``lookup_k`` defaults to 3
    and ``activity_threshold`` to 10 (the value §6.3 uses).
    """

    def __init__(
        self,
        n_clusters: int,
        normalization: Normalization = "gaussian",
        use_lookup: bool = True,
        lookup_k: int = 3,
        use_activity: bool = True,
        activity_threshold: int = 10,
        max_outer_iterations: int = 15,
        max_inner_iterations: int = 30,
        n_init: int = 1,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if lookup_k < 1:
            raise ValueError(f"lookup_k must be >= 1, got {lookup_k}")
        if max_outer_iterations < 1 or max_inner_iterations < 1:
            raise ValueError("iteration caps must be >= 1")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self.n_clusters = n_clusters
        self.normalization = normalization
        self.use_lookup = use_lookup
        self.lookup_k = lookup_k
        self.use_activity = use_activity
        self.activity_threshold = activity_threshold
        self.max_outer_iterations = max_outer_iterations
        self.max_inner_iterations = max_inner_iterations
        #: Independent restarts; the run with the lowest total normalized
        #: distance wins.  Default 1: the NLL criterion is a poor model
        #: selector on data with near-singular directions (hugely negative
        #: log-determinants make degenerate thin clusters look optimal), so
        #: restarts are opt-in for dense, well-conditioned data only.
        self.n_init = n_init

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        data: np.ndarray,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
        tracer: Optional[Tracer] = None,
    ) -> EllipticalKMeansResult:
        """Cluster ``(n, d)`` data; all randomness flows through ``rng``.

        Runs ``n_init`` independent restarts and keeps the solution with
        the lowest total normalized Mahalanobis distance.  ``tracer``
        (optional) records a ``kmeans.fit`` span with nested per-iteration
        spans; it never influences the clustering itself.
        """
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        n, d = data.shape
        if n == 0:
            raise ValueError("cannot cluster an empty dataset")
        tracer = ensure_tracer(tracer)
        best: Optional[EllipticalKMeansResult] = None
        best_cost = np.inf
        with tracer.span(
            "kmeans.fit",
            counters=counters,
            n_points=n,
            dims=d,
            n_clusters=self.n_clusters,
        ) as fit_span:
            for _ in range(self.n_init):
                result = self._fit_once(data, rng, counters, tracer)
                cost = self._total_cost(data, result, counters)
                if cost < best_cost:
                    best, best_cost = result, cost
            assert best is not None
            if tracer.enabled:
                fit_span.set(
                    inner_iterations=best.inner_iterations,
                    outer_iterations=best.outer_iterations,
                    converged=best.converged,
                    final_clusters=best.n_clusters,
                )
        return best

    def _total_cost(
        self,
        data: np.ndarray,
        result: EllipticalKMeansResult,
        counters: Optional[CostCounters],
    ) -> float:
        """Sum of members' normalized distances to their own cluster."""
        total = 0.0
        for cluster, shape in enumerate(result.shapes):
            members = result.members(cluster)
            if members.size == 0:
                continue
            total += float(
                shape.normalized_distance(
                    data[members], self.normalization, counters
                ).sum()
            )
        return total

    def _fit_once(
        self,
        data: np.ndarray,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> EllipticalKMeansResult:
        n, d = data.shape
        centroids = kmeans_pp_seeds(data, self.n_clusters, rng)
        # Seed shapes isotropically at the data's own scale so the first
        # assignment is a plain (scaled) Euclidean k-means step.
        scale = float(np.sqrt(max(data.var(axis=0).mean(), 1e-12)))
        shapes = [
            ClusterShape.spherical(c, radius=scale) for c in centroids
        ]

        labels = np.full(n, -1, dtype=np.int64)
        table = CentroidLookupTable(
            n_points=n,
            k=self.lookup_k,
            activity_threshold=(
                self.activity_threshold if self.use_activity else 2**62
            ),
        )

        total_inner = 0
        outer_round = 0
        converged = False
        for outer_round in range(1, self.max_outer_iterations + 1):
            # One span per outer round: inner assignment sweeps plus the
            # covariance refit, annotated with the activity-counter freeze
            # count so the §4.2 optimization's reach is visible per round.
            with tracer.span(
                "kmeans.outer_iteration",
                counters=counters,
                round=outer_round,
            ) as outer_span:
                labels, shapes, inner_done, outer_changes = self._inner_loop(
                    data, labels, shapes, table, counters, tracer
                )
                total_inner += inner_done
                if tracer.enabled:
                    frozen = n - int(np.count_nonzero(table.active_mask()))
                    outer_span.set(
                        inner_iterations=inner_done,
                        changes=outer_changes,
                        frozen_points=frozen,
                        clusters=len(shapes),
                    )
                    tracer.gauge("kmeans.frozen_points").set(frozen)
                    tracer.gauge("kmeans.frozen_fraction").set(
                        table.inactive_fraction
                    )
                if outer_changes == 0 and outer_round > 1:
                    converged = True
                    break
                refitted = self._refit_covariances(data, labels, shapes)
                if refitted is None:
                    # No cluster has enough mass to refit; keep shapes.
                    converged = True
                    break
                shapes = refitted
                table.invalidate()  # shapes moved: cached candidates stale

        return EllipticalKMeansResult(
            labels=labels,
            shapes=shapes,
            inner_iterations=total_inner,
            outer_iterations=outer_round,
            converged=converged,
            final_inactive_fraction=table.inactive_fraction,
        )

    # ------------------------------------------------------------------
    # inner k-means loop (fixed covariances)
    # ------------------------------------------------------------------

    def _inner_loop(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        shapes: List[ClusterShape],
        table: CentroidLookupTable,
        counters: Optional[CostCounters],
        tracer: Tracer = NULL_TRACER,
    ):
        n = data.shape[0]
        total_changes = 0
        inner_done = 0
        for inner_done in range(1, self.max_inner_iterations + 1):
            active = (
                table.active_mask()
                if self.use_activity
                else np.ones(n, dtype=bool)
            )
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break

            with tracer.span(
                "kmeans.inner_iteration",
                counters=counters,
                iteration=inner_done,
                active_points=int(rows.size),
            ) as inner_span:
                new_for_rows = self._assign(
                    data, rows, labels, shapes, table, counters
                )
                changed = new_for_rows != labels[rows]
                table.record_outcome(rows, changed)
                labels[rows] = new_for_rows
                n_changed = int(np.count_nonzero(changed))
                total_changes += n_changed

                labels, shapes, dropped = self._recentre(
                    data, labels, shapes
                )
                if dropped:
                    # Cluster count changed: reactivate every point.
                    table.reactivate_all()
                    table.invalidate()
                if tracer.enabled:
                    inner_span.set(changes=n_changed, dropped=dropped)
            if n_changed == 0 and not dropped:
                break
        return labels, shapes, inner_done, total_changes

    def _assign(
        self,
        data: np.ndarray,
        rows: np.ndarray,
        labels: np.ndarray,
        shapes: List[ClusterShape],
        table: CentroidLookupTable,
        counters: Optional[CostCounters],
    ) -> np.ndarray:
        """Best cluster for each row, honoring the lookup-table optimization."""
        cached = table.candidates_for(rows)
        has_cache = self.use_lookup and bool(np.all(cached[:, 0] >= 0))
        if not has_cache:
            full = self._distance_matrix(data[rows], shapes, counters)
            table.refresh(rows, full)
            return np.argmin(full, axis=1).astype(np.int64)

        m = rows.size
        best = np.full(m, np.inf)
        best_label = labels[rows].copy()
        for cluster in range(len(shapes)):
            mask = np.any(cached == cluster, axis=1)
            if not np.any(mask):
                continue
            dist = shapes[cluster].normalized_distance(
                data[rows[mask]], self.normalization, counters
            )
            better = dist < best[mask]
            idx = np.flatnonzero(mask)[better]
            best[idx] = dist[better]
            best_label[idx] = cluster

        # Points about to change membership get their cache line refreshed
        # from a full distance row (and the full row decides their label, so
        # a stale candidate list cannot mis-assign them).
        moved = np.flatnonzero(best_label != labels[rows])
        if moved.size:
            full = self._distance_matrix(data[rows[moved]], shapes, counters)
            table.refresh(rows[moved], full)
            best_label[moved] = np.argmin(full, axis=1)
        return best_label.astype(np.int64)

    def _distance_matrix(
        self,
        points: np.ndarray,
        shapes: List[ClusterShape],
        counters: Optional[CostCounters],
    ) -> np.ndarray:
        # The hottest k-means loop, routed through the fused batch kernel:
        # one (n, k) matrix per sweep, column-for-column bit-identical to
        # the per-shape normalized_distance loop.  Counter charges are
        # unchanged.
        return batch_normalized_mahalanobis(
            points, shapes, self.normalization, counters
        )

    # ------------------------------------------------------------------
    # centroid / covariance maintenance
    # ------------------------------------------------------------------

    @staticmethod
    def _recentre(
        data: np.ndarray, labels: np.ndarray, shapes: List[ClusterShape]
    ):
        """Move centroids to member means (covariances fixed); drop empties."""
        kept: List[ClusterShape] = []
        remap = np.full(len(shapes), -1, dtype=np.int64)
        for cluster, shape in enumerate(shapes):
            mask = labels == cluster
            if not np.any(mask):
                continue
            remap[cluster] = len(kept)
            kept.append(
                ClusterShape(
                    centroid=data[mask].mean(axis=0),
                    covariance=shape.covariance,
                )
            )
        dropped = len(kept) < len(shapes)
        new_labels = labels.copy()
        assigned = labels >= 0
        new_labels[assigned] = remap[labels[assigned]]
        return new_labels, kept, dropped

    @staticmethod
    def _refit_covariances(
        data: np.ndarray, labels: np.ndarray, shapes: List[ClusterShape]
    ) -> Optional[List[ClusterShape]]:
        """Outer-loop step: refit each cluster's covariance from members."""
        refitted: List[ClusterShape] = []
        any_refit = False
        for cluster, shape in enumerate(shapes):
            member_rows = np.flatnonzero(labels == cluster)
            if member_rows.size >= 2:
                refitted.append(ClusterShape.from_points(data[member_rows]))
                any_refit = True
            else:
                refitted.append(shape)
        return refitted if any_refit else None
