"""Local Dimensionality Reduction (LDR) baseline — Chakrabarti & Mehrotra,
VLDB 2000.

LDR partitions the dataset into clusters with *Euclidean* distance in the
original space, fits a PCA per cluster, picks each cluster's retained
dimensionality so that a target fraction of members reconstruct within a
bound, and sends badly-represented points to an outlier set.  Our
implementation follows the published FindClusters pipeline:

1. spatial clustering (Euclidean k-means) in the original space;
2. per-cluster PCA;
3. per-cluster dimensionality: the smallest ``d_r`` for which at least
   ``frac_points`` of the members have reconstruction distance
   ``<= max_recon_dist`` (or an explicit ``target_dim`` for sweeps);
4. greedy reclustering, iterated: clusters claim points in descending
   coverage order — each point joins the first cluster whose subspace
   reconstructs it within ``max_recon_dist`` — then subspaces and
   dimensionalities are refit on the claimed memberships and the pass
   repeats.  (This is the VLDB'00 FindClusters loop: redundant spatial
   cells collapse into the cluster whose subspace generalizes, so e.g. a
   single globally-correlated cluster ends up as one subspace rather than
   ``max_clusters`` slivers.)  Uncovered points are outliers.

The contrast with MMDR is exactly the paper's §2 critique: the clustering
step "does not consider correlation nor dependency between the dimensions" —
Euclidean k-means finds spherical neighbourhoods, so intersecting elliptical
clusters of different scales are cut along the wrong boundaries, and the
per-cluster subspaces inherit those mistakes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..cluster.kmeans import kmeans
from ..core.geometry import projection_distances
from ..core.subspace import EllipticalSubspace, OutlierSet
from ..linalg.mahalanobis import estimate_covariance
from ..linalg.pca import PCAModel, fit_pca
from .base import ReducedDataset, Reducer

__all__ = ["LDRReducer"]


class LDRReducer(Reducer):
    """Local Dimensionality Reduction with Euclidean clustering."""

    name = "LDR"

    def __init__(
        self,
        max_clusters: int = 10,
        max_recon_dist: float = 0.1,
        frac_points: float = 0.8,
        max_dim: int = 20,
        min_cluster_size: int = 30,
        recluster_iterations: int = 3,
    ) -> None:
        if max_clusters < 1:
            raise ValueError(f"max_clusters must be >= 1, got {max_clusters}")
        if max_recon_dist <= 0:
            raise ValueError(
                f"max_recon_dist must be > 0, got {max_recon_dist}"
            )
        if not 0.0 < frac_points <= 1.0:
            raise ValueError(
                f"frac_points must be in (0, 1], got {frac_points}"
            )
        if max_dim < 1:
            raise ValueError(f"max_dim must be >= 1, got {max_dim}")
        if min_cluster_size < 2:
            raise ValueError(
                f"min_cluster_size must be >= 2, got {min_cluster_size}"
            )
        if recluster_iterations < 1:
            raise ValueError(
                "recluster_iterations must be >= 1, "
                f"got {recluster_iterations}"
            )
        self.max_clusters = max_clusters
        self.max_recon_dist = max_recon_dist
        self.frac_points = frac_points
        self.max_dim = max_dim
        self.min_cluster_size = min_cluster_size
        self.recluster_iterations = recluster_iterations

    def reduce(
        self,
        data: np.ndarray,
        rng: np.random.Generator,
        target_dim: Optional[int] = None,
    ) -> ReducedDataset:
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        n, d = data.shape
        if n == 0:
            raise ValueError("cannot reduce an empty dataset")

        clustering = kmeans(data, self.max_clusters, rng)
        models: List[PCAModel] = []
        dims: List[int] = []
        for cluster in range(clustering.n_clusters):
            members = clustering.members(cluster)
            model = fit_pca(data[members])
            models.append(model)
            dims.append(
                self._pick_dim(data[members], model, d, target_dim)
            )

        labels = np.full(n, -1, dtype=np.int64)
        for _ in range(self.recluster_iterations):
            labels = self._greedy_cover(data, models, dims)
            models, dims, changed = self._refit(
                data, labels, models, dims, target_dim
            )
            if not changed:
                break
        labels = self._greedy_cover(data, models, dims)

        subspaces: List[EllipticalSubspace] = []
        for cluster in range(len(models)):
            member_ids = np.flatnonzero(labels == cluster)
            if member_ids.size < self.min_cluster_size:
                labels[member_ids] = -1
                continue
            member_data = data[member_ids]
            model, d_r = models[cluster], dims[cluster]
            dists = projection_distances(member_data, model, d_r)
            basis = model.basis(d_r)
            subspaces.append(
                EllipticalSubspace(
                    subspace_id=len(subspaces),
                    mean=model.mean,
                    basis=basis,
                    covariance=estimate_covariance(member_data),
                    member_ids=member_ids,
                    projections=(member_data - model.mean) @ basis,
                    discovered_at_dim=d,
                    mpe=dists.mpe,
                    ellipticity=dists.ellipticity,
                )
            )

        outlier_ids = np.flatnonzero(labels == -1)
        return ReducedDataset(
            method=self.name,
            subspaces=subspaces,
            outliers=OutlierSet(
                member_ids=outlier_ids,
                points=data[outlier_ids]
                if outlier_ids.size
                else np.zeros((0, d)),
            ),
            n_points=n,
            dimensionality=d,
            info={
                "kmeans_iterations": float(clustering.iterations),
                "outlier_fraction": float(outlier_ids.size) / n,
            },
        )

    def _greedy_cover(
        self,
        data: np.ndarray,
        models: List[PCAModel],
        dims: List[int],
    ) -> np.ndarray:
        """Assign each point to the first (best-covering) cluster whose
        subspace reconstructs it within the bound; ``-1`` if none does."""
        n = data.shape[0]
        recon = np.stack(
            [
                projection_distances(data, models[c], dims[c]).proj_dist_r
                for c in range(len(models))
            ],
            axis=1,
        )
        covered = recon <= self.max_recon_dist
        order = np.argsort(-covered.sum(axis=0), kind="stable")
        labels = np.full(n, -1, dtype=np.int64)
        for cluster in order:
            take = (labels == -1) & covered[:, cluster]
            labels[take] = cluster
        return labels

    def _refit(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        models: List[PCAModel],
        dims: List[int],
        target_dim,
    ):
        """Refit each surviving cluster's subspace on its claimed members.

        Clusters whose claim fell below ``min_cluster_size`` are removed
        (their points will be re-covered or become outliers next pass).
        Returns the new models/dims and whether anything changed.
        """
        d = data.shape[1]
        new_models: List[PCAModel] = []
        new_dims: List[int] = []
        changed = False
        for cluster in range(len(models)):
            member_ids = np.flatnonzero(labels == cluster)
            if member_ids.size < self.min_cluster_size:
                changed = True
                continue
            member_data = data[member_ids]
            model = fit_pca(member_data)
            d_r = self._pick_dim(member_data, model, d, target_dim)
            if d_r != dims[cluster]:
                changed = True
            new_models.append(model)
            new_dims.append(d_r)
        if not new_models:
            # Nothing survived (degenerate thresholds): keep the old set so
            # the caller still produces a model; everything not covered
            # becomes an outlier.
            return models, dims, False
        changed = changed or len(new_models) != len(models)
        return new_models, new_dims, changed

    def _pick_dim(
        self,
        member_data: np.ndarray,
        model: PCAModel,
        d: int,
        target_dim: Optional[int],
    ) -> int:
        """Smallest d_r covering ``frac_points`` of members within the
        reconstruction bound (or the pinned ``target_dim``)."""
        if target_dim is not None:
            if target_dim < 1:
                raise ValueError(f"target_dim must be >= 1, got {target_dim}")
            return min(target_dim, d)
        ceiling = min(self.max_dim, d)
        # One projection, split again at each candidate d_r.
        dists = projection_distances(member_data, model, ceiling)
        for d_r in range(1, ceiling + 1):
            lost = dists.at(d_r).proj_dist_r
            covered = float(
                np.count_nonzero(lost <= self.max_recon_dist)
            ) / max(1, member_data.shape[0])
            if covered >= self.frac_points:
                return d_r
        return ceiling
