"""The MMDR algorithm (Figure 4): Generate Ellipsoid + Dimensionality
Optimization.

`Generate Ellipsoid` works *multi-level*: it projects the current point set
onto a small ``s_dim``-dimensional PCA subspace, runs elliptical k-means
there, and then checks each discovered semi-ellipsoid by restoring its
members to the original space, fitting a *local* PCA, and measuring the mean
projection error (MPE) at ``s_dim``.  A semi-ellipsoid whose MPE is within
``MaxMPE`` is a genuine ellipsoid — its subspace carries enough information —
otherwise its members are recursively re-clustered at ``2·s_dim``.  The
divide-lower-before-conquer-upper order is the paper's key trick: clusters
separable in a 1- or 2-dimensional projection never pay for high-dimensional
distance computations.

`Dimensionality Optimization` then shrinks each accepted ellipsoid's retained
dimensionality one component at a time while the MPE barely changes, and
finally applies the β threshold: members whose ``ProjDist_r`` exceeds β are
outliers and stay in the original space.

Pseudocode clarifications applied here (details in DESIGN.md): the recursion
guard is ``2·s_dim <= d`` and recurses on the semi-ellipsoid's own data; a
semi-ellipsoid that still fails at the deepest level is accepted anyway and
left for the β filter to prune; groups below ``min_cluster_size`` go straight
to the outlier set; and the number of accepted ellipsoids is capped at MaxEC
by merging the smallest groups into their nearest survivor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.elliptical import EllipticalKMeans
from ..linalg.mahalanobis import estimate_covariance
from ..linalg.pca import PCAModel, fit_pca, project
from ..obs.tracer import NULL_TRACER, Tracer, ensure_tracer
from ..storage.metrics import CostCounters
from .config import DEFAULT_CONFIG, MMDRConfig
from .geometry import ProjectionDistances, ellipticity, projection_distances
from .subspace import EllipticalSubspace, MMDRModel, MMDRStats, OutlierSet

__all__ = ["MMDR", "CandidateEllipsoid"]

#: A group's rows, their PCA and their projection distances, handed from a
#: level to the child level that re-clusters the same rows.
FittedGroup = Tuple[np.ndarray, PCAModel, ProjectionDistances]


@dataclass(eq=False)
class CandidateEllipsoid:
    """A group accepted by `Generate Ellipsoid`, awaiting optimization."""

    member_ids: np.ndarray
    s_dim: int
    pca: PCAModel
    mpe_at_s_dim: float


class MMDR:
    """Multi-level Mahalanobis-based Dimensionality Reduction.

    Example
    -------
    >>> import numpy as np
    >>> from repro import MMDR, MMDRConfig
    >>> from repro.data import generate_correlated_clusters, SyntheticSpec
    >>> spec = SyntheticSpec(n_points=2000, dimensionality=16, n_clusters=3)
    >>> dataset = generate_correlated_clusters(spec, np.random.default_rng(7))
    >>> model = MMDR().fit(dataset.points, np.random.default_rng(7))
    >>> model.n_subspaces >= 1
    True
    """

    def __init__(self, config: MMDRConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        # Effective minimum group size; fit() raises it to xi*N.
        self._min_group = config.min_cluster_size

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def fit(
        self,
        data: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        counters: Optional[CostCounters] = None,
        tracer: Optional[Tracer] = None,
    ) -> MMDRModel:
        """Discover elliptical subspaces in ``(n, d)`` data.

        ``rng`` seeds the clustering; pass a seeded generator for exact
        reproducibility.  ``counters`` (optional) accumulates distance
        computation counts for the cost experiments.  ``tracer``
        (optional) records the fit's two phases — ``mmdr.generate_ellipsoid``
        and ``mmdr.dimensionality_optimization`` — as spans, with nested
        per-level and per-k-means-iteration spans; it never changes the
        fit itself.
        """
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        n, d = data.shape
        if n == 0:
            raise ValueError("cannot fit MMDR on an empty dataset")
        rng = rng if rng is not None else np.random.default_rng()
        counters = counters if counters is not None else CostCounters()
        tracer = ensure_tracer(tracer)
        # Table 1's xi (outlier percentage) doubles as the noise floor:
        # groups smaller than xi*N cannot be meaningful clusters at this
        # data size, which keeps the recursion from shaving off thin slices
        # of real ellipsoids and accepting them as separate subspaces.
        self._min_group = max(
            self.config.min_cluster_size,
            int(self.config.outlier_fraction * n),
        )

        start = time.perf_counter()
        before = counters.snapshot()
        stats = MMDRStats()

        candidates: List[CandidateEllipsoid] = []
        outlier_pool: List[np.ndarray] = []
        with tracer.span(
            "mmdr.generate_ellipsoid", counters=counters, n_points=n, dims=d
        ):
            self._generate_ellipsoid(
                data,
                np.arange(n, dtype=np.int64),
                min(self.config.initial_subspace_dim, d),
                candidates,
                outlier_pool,
                rng,
                counters,
                stats,
                tracer,
            )
        return self.finalize(
            data,
            candidates,
            outlier_pool,
            stats,
            counters,
            before,
            start,
            tracer,
        )

    def finalize(
        self,
        data: np.ndarray,
        candidates: List[CandidateEllipsoid],
        outlier_pool: List[np.ndarray],
        stats: MMDRStats,
        counters: CostCounters,
        before,
        start: float,
        tracer: Tracer = NULL_TRACER,
    ) -> MMDRModel:
        """Shared back half of the pipeline: cap the ellipsoid count, merge
        compatible groups, run Dimensionality Optimization, and assemble the
        model.  Also used by :class:`~repro.core.scalable.ScalableMMDR`."""
        n, d = data.shape
        # MPE-respecting merges first (they undo over-segmentation without
        # polluting clusters); only then force the MaxEC cap on whatever is
        # genuinely incompatible.
        with tracer.span(
            "mmdr.merge_candidates",
            counters=counters,
            candidates=len(candidates),
        ):
            if self.config.merge_compatible:
                candidates = self._merge_compatible(data, candidates)
            candidates = self._enforce_max_clusters(data, candidates)

        subspaces: List[EllipticalSubspace] = []
        with tracer.span(
            "mmdr.dimensionality_optimization",
            counters=counters,
            candidates=len(candidates),
        ):
            for candidate in sorted(
                candidates, key=lambda c: c.member_ids.size, reverse=True
            ):
                subspace, rejected = self._optimize_dimensionality(
                    data, candidate, len(subspaces)
                )
                if rejected.size:
                    outlier_pool.append(rejected)
                if subspace is not None:
                    subspaces.append(subspace)

        outlier_ids = (
            np.sort(np.concatenate(outlier_pool))
            if outlier_pool
            else np.zeros(0, dtype=np.int64)
        )
        subspaces, outlier_ids = self._reclaim_outliers(
            data, subspaces, outlier_ids
        )
        outliers = OutlierSet(
            member_ids=outlier_ids,
            points=data[outlier_ids] if outlier_ids.size else np.zeros((0, d)),
        )

        diff = counters.snapshot() - before
        stats.fit_seconds = time.perf_counter() - start
        stats.distance_computations = diff.distance_computations
        if tracer.enabled:
            dims_hist = tracer.histogram(
                "mmdr.retained_dims", buckets=tuple(range(1, 129))
            )
            for subspace in subspaces:
                dims_hist.observe(subspace.reduced_dim)
            tracer.gauge("mmdr.n_subspaces").set(len(subspaces))
            tracer.gauge("mmdr.outlier_fraction").set(
                outlier_ids.size / n if n else 0.0
            )
        return MMDRModel(
            subspaces=subspaces,
            outliers=outliers,
            n_points=n,
            dimensionality=d,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Generate Ellipsoid (recursive multi-level discovery)
    # ------------------------------------------------------------------

    def _generate_ellipsoid(
        self,
        data: np.ndarray,
        ids: np.ndarray,
        s_dim: int,
        candidates: List[CandidateEllipsoid],
        outlier_pool: List[np.ndarray],
        rng: np.random.Generator,
        counters: CostCounters,
        stats: MMDRStats,
        tracer: Tracer = NULL_TRACER,
        fitted: Optional[FittedGroup] = None,
    ) -> None:
        """Discover the ellipsoids in ``data[ids]``, starting at ``s_dim``.

        ``fitted`` is what the parent level already computed for this
        group: its rows, their PCA and their projection distances.  Passing
        it saves the child fitting the same rows again; without it the
        group is fitted here.
        """
        d = data.shape[1]
        if ids.size < self._min_group:
            outlier_pool.append(ids)
            return
        stats.levels_used.append(s_dim)

        with tracer.span(
            "mmdr.generate_level",
            counters=counters,
            s_dim=int(min(s_dim, d)),
            points=int(ids.size),
        ):
            self._generate_level(
                data,
                ids,
                s_dim,
                candidates,
                outlier_pool,
                rng,
                counters,
                stats,
                tracer,
                fitted,
            )

    def _generate_level(
        self,
        data: np.ndarray,
        ids: np.ndarray,
        s_dim: int,
        candidates: List[CandidateEllipsoid],
        outlier_pool: List[np.ndarray],
        rng: np.random.Generator,
        counters: CostCounters,
        stats: MMDRStats,
        tracer: Tracer,
        fitted: Optional[FittedGroup],
    ) -> None:
        d = data.shape[1]
        s_dim = min(s_dim, d)
        # Discover the ellipsoid "as soon as the shape can be identified"
        # (§4.1): a subset that is already well represented by its own
        # s_dim-dimensional subspace IS a single ellipsoid — clustering it
        # further only fragments it.  (Only the MPE is kept: the
        # coordinates would pin an (n, d) array for the whole level.)
        if fitted is None:
            subset = data[ids]
            pca = fit_pca(subset)
            whole_mpe = projection_distances(subset, pca, s_dim).mpe
        else:
            subset, pca, parent_dists = fitted
            whole_mpe = parent_dists.at(s_dim).mpe
        if whole_mpe <= self.config.max_mpe:
            candidates.append(
                CandidateEllipsoid(
                    member_ids=ids,
                    s_dim=s_dim,
                    pca=pca,
                    mpe_at_s_dim=whole_mpe,
                )
            )
            return

        projections = project(subset, pca, s_dim)

        semi_groups = self._cluster_projections(
            projections, ids, rng, counters, stats, tracer
        )
        for group_ids in semi_groups:
            if group_ids.size < self._min_group:
                outlier_pool.append(group_ids)
                continue
            # Restore the semi-ellipsoid's own data and re-project locally
            # (Figure 4 lines 5-7): the subspace must describe *this* group.
            group_data = data[group_ids]
            local_pca = fit_pca(group_data)
            dists = projection_distances(group_data, local_pca, s_dim)
            mpe = dists.mpe
            if mpe <= self.config.max_mpe:
                candidates.append(
                    CandidateEllipsoid(
                        member_ids=group_ids,
                        s_dim=s_dim,
                        pca=local_pca,
                        mpe_at_s_dim=mpe,
                    )
                )
            elif 2 * s_dim <= d:
                # The child re-clusters these same rows: hand it their fit.
                self._generate_ellipsoid(
                    data,
                    group_ids,
                    2 * s_dim,
                    candidates,
                    outlier_pool,
                    rng,
                    counters,
                    stats,
                    tracer,
                    (group_data, local_pca, dists),
                )
            else:
                # Deepest level reached and the group is still poorly
                # represented: accept it and let β prune bad members later.
                candidates.append(
                    CandidateEllipsoid(
                        member_ids=group_ids,
                        s_dim=min(max(s_dim, self.config.max_dim), d),
                        pca=local_pca,
                        mpe_at_s_dim=mpe,
                    )
                )

    def _cluster_projections(
        self,
        projections: np.ndarray,
        ids: np.ndarray,
        rng: np.random.Generator,
        counters: CostCounters,
        stats: MMDRStats,
        tracer: Tracer = NULL_TRACER,
    ) -> List[np.ndarray]:
        """Elliptical k-means in the projected subspace (Figure 4 line 2).

        The cluster count scales down with the subset size: small subsets
        split coarsely (binary) so that a genuinely mixed group separates
        over successive levels without fragmenting below
        ``min_cluster_size`` — the entry check in ``_generate_ellipsoid``
        already guarantees this subset is *not* a single ellipsoid.
        """
        n = projections.shape[0]
        k = min(
            self.config.max_clusters,
            max(2, n // (4 * self._min_group)),
        )
        if n < 2 * self._min_group:
            return [ids]
        estimator = EllipticalKMeans(
            n_clusters=k,
            normalization=self.config.normalization,
            use_lookup=self.config.use_lookup,
            lookup_k=self.config.lookup_k,
            use_activity=self.config.use_activity,
            activity_threshold=self.config.activity_threshold,
            max_outer_iterations=self.config.max_outer_iterations,
            max_inner_iterations=self.config.max_inner_iterations,
        )
        result = estimator.fit(projections, rng, counters, tracer)
        stats.clustering_inner_iterations += result.inner_iterations
        stats.clustering_outer_iterations += result.outer_iterations
        groups = (
            ids[result.members(cluster)]
            for cluster in range(result.n_clusters)
        )
        return [group for group in groups if group.size > 0]

    def _enforce_max_clusters(
        self, data: np.ndarray, candidates: List[CandidateEllipsoid]
    ) -> List[CandidateEllipsoid]:
        """Cap the ellipsoid count at MaxEC by merging the smallest groups
        into the nearest (by centroid) surviving group."""
        if len(candidates) <= self.config.max_clusters:
            return candidates
        ranked = sorted(
            candidates, key=lambda c: c.member_ids.size, reverse=True
        )
        survivors = ranked[: self.config.max_clusters]
        for extra in ranked[self.config.max_clusters:]:
            extra_centroid = data[extra.member_ids].mean(axis=0)
            nearest_idx = min(
                range(len(survivors)),
                key=lambda i: float(
                    np.linalg.norm(
                        data[survivors[i].member_ids].mean(axis=0)
                        - extra_centroid
                    )
                ),
            )
            nearest = survivors[nearest_idx]
            merged_ids = np.concatenate(
                [nearest.member_ids, extra.member_ids]
            )
            merged_data = data[merged_ids]
            merged_pca = fit_pca(merged_data)
            s_dim = max(nearest.s_dim, extra.s_dim)
            dists = projection_distances(merged_data, merged_pca, s_dim)
            survivors[nearest_idx] = CandidateEllipsoid(
                member_ids=merged_ids,
                s_dim=s_dim,
                pca=merged_pca,
                mpe_at_s_dim=dists.mpe,
            )
        return survivors

    def _reclaim_outliers(
        self,
        data: np.ndarray,
        subspaces: List[EllipticalSubspace],
        outlier_ids: np.ndarray,
    ):
        """Give pooled outliers one more chance against the final subspaces.

        Figure 4 lines 21-22 define membership purely by ``ProjDist <= β``;
        points that fell out of the recursion early (e.g. fragments below
        ``min_cluster_size``) may still be well represented by a subspace
        that was completed later, so each outlier joins the subspace with
        the smallest ProjDist_r, provided that distance is within β.
        """
        if not subspaces or outlier_ids.size == 0:
            return subspaces, outlier_ids
        points = data[outlier_ids]
        dists = np.stack(
            [s.proj_dist_r(points) for s in subspaces], axis=1
        )
        best = np.argmin(dists, axis=1)
        best_dist = dists[np.arange(outlier_ids.size), best]
        reclaimable = best_dist <= self.config.beta
        if not np.any(reclaimable):
            return subspaces, outlier_ids

        rebuilt: List[EllipticalSubspace] = []
        for idx, subspace in enumerate(subspaces):
            extra = outlier_ids[reclaimable & (best == idx)]
            if extra.size == 0:
                rebuilt.append(subspace)
                continue
            member_ids = np.concatenate([subspace.member_ids, extra])
            member_data = data[member_ids]
            projections = subspace.project(member_data)
            proj_dist_r = subspace.proj_dist_r(member_data)
            proj_dist_e = np.linalg.norm(projections, axis=1)
            rebuilt.append(
                EllipticalSubspace(
                    subspace_id=subspace.subspace_id,
                    mean=subspace.mean,
                    basis=subspace.basis,
                    covariance=estimate_covariance(member_data),
                    member_ids=member_ids,
                    projections=projections,
                    discovered_at_dim=subspace.discovered_at_dim,
                    mpe=float(proj_dist_r.mean()),
                    ellipticity=ellipticity(proj_dist_r, proj_dist_e),
                )
            )
        remaining = outlier_ids[~reclaimable]
        return rebuilt, remaining

    def _merge_compatible(
        self, data: np.ndarray, candidates: List[CandidateEllipsoid]
    ) -> List[CandidateEllipsoid]:
        """Greedily merge ellipsoids whose union still passes the MPE test.

        Elliptical k-means at each recursion level happily over-segments a
        single elongated cluster into several co-planar pieces; two pieces of
        the same true ellipsoid merge into a group whose local subspace still
        has MPE <= MaxMPE, while pieces of *different* ellipsoids do not.
        The pass is quadratic in the ellipsoid count, which `MaxEC` already
        caps at a small constant.
        """
        groups = list(candidates)
        if len(groups) <= 1:
            return groups
        # Stable keys let us memoize failed pairs: a pair is only retried if
        # one of its groups was itself replaced by a merge since the attempt.
        # A group's centroid and radius never change, so they are computed
        # once per key.
        next_key = 0
        keyed = []
        for g in groups:
            keyed.append((next_key, g))
            next_key += 1
        failed: set = set()
        extent_of: Dict[int, Tuple[np.ndarray, float]] = {}

        merged = True
        while merged and len(keyed) > 1:
            merged = False
            for key, g in keyed:
                if key not in extent_of:
                    points = data[g.member_ids]
                    centroid = points.mean(axis=0)
                    radius = np.linalg.norm(points - centroid, axis=1).max()
                    extent_of[key] = (centroid, float(radius))
            centroids = np.vstack([extent_of[key][0] for key, _ in keyed])
            # Every pair (i < j) by centroid distance, ties by (i, j).
            ii, jj = np.triu_indices(len(keyed), k=1)
            dists = np.linalg.norm(centroids[ii] - centroids[jj], axis=1)
            order = np.lexsort((jj, ii, dists))
            for i, j in zip(ii[order].tolist(), jj[order].tolist()):
                key_i, group_i = keyed[i]
                key_j, group_j = keyed[j]
                pair = (min(key_i, key_j), max(key_i, key_j))
                if pair in failed:
                    continue
                union = self._try_merge(
                    data, group_i, group_j, extent_of[key_i], extent_of[key_j]
                )
                if union is None:
                    failed.add(pair)
                    continue
                keyed = [
                    entry for idx, entry in enumerate(keyed)
                    if idx not in (i, j)
                ]
                keyed.append((next_key, union))
                next_key += 1
                merged = True
                break
        return [g for _, g in keyed]

    def _try_merge(
        self,
        data: np.ndarray,
        a: CandidateEllipsoid,
        b: CandidateEllipsoid,
        extent_a: Tuple[np.ndarray, float],
        extent_b: Tuple[np.ndarray, float],
    ) -> Optional[CandidateEllipsoid]:
        """The merged candidate if the union is one ellipsoid, else ``None``.

        ``extent_a`` and ``extent_b`` are each group's ``(centroid,
        radius)``: the member mean and the largest member distance from it.
        Two gates run before the expensive joint PCA:

        * *proximity*: the groups' extents must overlap (centroid distance
          at most the sum of their radii).  Fragments of one ellipsoid
          always overlap; well-separated clusters never do, which stops the
          level escalation below from gluing distinct clusters whose union
          happens to fit in a higher-dimensional subspace.
        * *representability*: each group's centroid must be roughly
          representable by the other's subspace.

        The union's MPE is then tested at escalating levels
        ``max(s_a, s_b), 2·max, ...`` capped at ``min(2·max, d)`` — a
        cluster over-segmented at a low level (e.g. thin k-means slices)
        re-merges at the level its full shape actually needs.
        """
        centroid_a, radius_a = extent_a
        centroid_b, radius_b = extent_b
        gap = float(np.linalg.norm(centroid_a - centroid_b))
        if gap > radius_a + radius_b:
            return None
        # Mutual representability: each group's centroid must be roughly
        # representable by the other's subspace.  Requiring BOTH directions
        # matters — accepting a one-sided fit lets one broad group
        # chain-absorb its neighbours (observed on the sparse histogram
        # data, where a wide theme's subspace passes near every centroid).
        # The bound is slack (MaxMPE + 2*beta) because a thin fragment's
        # low-dimensional basis sits up to ~beta away from its sibling's
        # centroid along directions its own slice did not sample.
        bound = self.config.max_mpe + 2 * self.config.beta
        if self._subspace_residual(centroid_b, a) > bound:
            return None
        if self._subspace_residual(centroid_a, b) > bound:
            return None

        ids = np.concatenate([a.member_ids, b.member_ids])
        union_data = data[ids]
        pca = fit_pca(union_data)
        d = data.shape[1]
        base = min(max(a.s_dim, b.s_dim), d)
        dists = projection_distances(union_data, pca, base)
        for s_dim in (base, min(2 * base, d)):
            mpe = dists.at(s_dim).mpe
            if mpe <= self.config.max_mpe:
                return CandidateEllipsoid(
                    member_ids=ids, s_dim=s_dim, pca=pca, mpe_at_s_dim=mpe
                )
        return None

    @staticmethod
    def _subspace_residual(
        point: np.ndarray, candidate: CandidateEllipsoid
    ) -> float:
        """Distance from ``point`` to the candidate's retained subspace."""
        centered = point - candidate.pca.mean
        basis = candidate.pca.basis(candidate.s_dim)
        residual = centered - basis @ (basis.T @ centered)
        return float(np.linalg.norm(residual))

    # ------------------------------------------------------------------
    # Dimensionality Optimization (Figure 4 lines 12-24)
    # ------------------------------------------------------------------

    def _optimize_dimensionality(
        self, data: np.ndarray, candidate: CandidateEllipsoid, subspace_id: int
    ):
        """Shrink d_r while MPE barely changes, then apply the β filter.

        Returns ``(subspace_or_None, rejected_ids)``.
        """
        group_data = data[candidate.member_ids]
        pca = candidate.pca
        d = pca.dimensionality

        d_r = min(self.config.max_dim, candidate.s_dim, d)
        current = projection_distances(group_data, pca, d_r)
        while d_r > 1:
            lower = current.at(d_r - 1)
            if lower.mpe - current.mpe >= self.config.mpe_change_threshold:
                break
            d_r -= 1
            current = lower
        member_mask = current.proj_dist_r <= self.config.beta
        rejected = candidate.member_ids[~member_mask]
        kept = candidate.member_ids[member_mask]
        if kept.size < self._min_group:
            # Too little survives β: the whole group is uncorrelated noise.
            return None, candidate.member_ids

        kept_data = data[kept]
        kept_dists = projection_distances(kept_data, pca, d_r)
        mean = pca.mean
        basis = pca.basis(d_r)
        subspace = EllipticalSubspace(
            subspace_id=subspace_id,
            mean=mean,
            basis=basis,
            covariance=estimate_covariance(kept_data),
            member_ids=kept,
            projections=(kept_data - mean) @ basis,
            discovered_at_dim=candidate.s_dim,
            mpe=kept_dists.mpe,
            ellipticity=kept_dists.ellipticity,
        )
        return subspace, rejected
