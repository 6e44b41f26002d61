"""Common API for dimensionality-reduction methods.

The experiments compare three reducers — GDR, LDR, MMDR — so they share one
output currency: a :class:`ReducedDataset` holding a list of
:class:`~repro.core.subspace.EllipticalSubspace` (each cluster in its own
axis system, possibly with different retained dimensionality) plus an
:class:`~repro.core.subspace.OutlierSet` kept in the original space.  GDR is
the degenerate case of a single global subspace with no outliers.

Indexes build from a :class:`ReducedDataset`; the precision evaluation in
:mod:`repro.eval.precision` queries it directly (index-free), matching how
Figures 7–8 measure the reduction itself rather than any index.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.subspace import EllipticalSubspace, OutlierSet

__all__ = ["ReducedDataset", "Reducer", "retarget_dimensionality"]


@dataclass
class ReducedDataset:
    """Output of any reducer: per-cluster subspaces plus outliers."""

    method: str
    subspaces: List[EllipticalSubspace]
    outliers: OutlierSet
    n_points: int
    dimensionality: int
    info: Dict[str, float] = field(default_factory=dict)
    #: Search metric the reduction was prepared for.  ``"l2"`` is the
    #: paper's setting; ``"cosine"`` means the input rows were unit-
    #: normalized before reduction, under which cosine distance is a
    #: monotone function of L2 and every index searches unchanged
    #: (DESIGN.md §13).  Indexes inherit this so they can normalize
    #: queries and inserts the same way.
    metric: str = "l2"

    def __post_init__(self) -> None:
        covered = sum(s.size for s in self.subspaces) + self.outliers.size
        if covered != self.n_points:
            raise ValueError(
                f"subspaces + outliers cover {covered} points, "
                f"dataset has {self.n_points}"
            )
        if self.metric not in ("l2", "cosine"):
            raise ValueError(
                f"metric must be 'l2' or 'cosine', got {self.metric!r}"
            )

    @property
    def n_subspaces(self) -> int:
        return len(self.subspaces)

    def reduced_dims(self) -> List[int]:
        return [s.reduced_dim for s in self.subspaces]

    def mean_reduced_dim(self) -> float:
        """Point-weighted average retained dimensionality (what a
        "dimensionality = X" sweep holds fixed across methods)."""
        total = sum(s.size * s.reduced_dim for s in self.subspaces)
        total += self.outliers.size * self.dimensionality
        return total / self.n_points if self.n_points else 0.0

    def labels(self) -> np.ndarray:
        """Per-point subspace id, ``-1`` for outliers."""
        labels = np.full(self.n_points, -1, dtype=np.int64)
        for idx, subspace in enumerate(self.subspaces):
            labels[subspace.member_ids] = idx
        return labels


def retarget_dimensionality(
    data: np.ndarray, reduced: ReducedDataset, target_dim: int
) -> ReducedDataset:
    """Re-project every subspace at exactly ``min(target_dim, d)`` retained
    components, keeping memberships and outliers fixed.

    This realizes the paper's "number of dimensions retained" sweeps
    (Figures 8-10): each method discovers its clusters once, with its own
    rules, and then the *representation width* is varied — so a sweep point
    compares how much distance information each method's subspaces keep at
    that width, not how its outlier thresholds react to it.  Per-cluster
    PCA is refit on the members (the basis beyond the original ``d_r`` is
    needed when sweeping upward).
    """
    from ..core.geometry import projection_distances
    from ..linalg.mahalanobis import estimate_covariance
    from ..linalg.pca import fit_pca

    if target_dim < 1:
        raise ValueError(f"target_dim must be >= 1, got {target_dim}")
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    d = reduced.dimensionality
    d_r = min(target_dim, d)
    subspaces = []
    for subspace in reduced.subspaces:
        member_data = data[subspace.member_ids]
        pca = fit_pca(member_data)
        dists = projection_distances(member_data, pca, d_r)
        basis = pca.basis(d_r)
        subspaces.append(
            EllipticalSubspace(
                subspace_id=subspace.subspace_id,
                mean=pca.mean,
                basis=basis,
                covariance=estimate_covariance(member_data),
                member_ids=subspace.member_ids,
                projections=(member_data - pca.mean) @ basis,
                discovered_at_dim=subspace.discovered_at_dim,
                mpe=dists.mpe,
                ellipticity=dists.ellipticity,
            )
        )
    return ReducedDataset(
        method=reduced.method,
        subspaces=subspaces,
        outliers=reduced.outliers,
        n_points=reduced.n_points,
        dimensionality=d,
        info=dict(reduced.info, retargeted_dim=float(d_r)),
        metric=getattr(reduced, "metric", "l2"),
    )


class Reducer(ABC):
    """A dimensionality-reduction method under a common interface.

    ``target_dim`` pins the retained dimensionality for sweeps like Figure 8
    (every method reduced to the same number of dimensions); ``None`` lets
    the method pick its own optimum (MMDR's Dimensionality Optimization,
    LDR's reconstruction-bound rule, GDR's variance threshold).
    """

    #: Short name used in experiment tables ("GDR", "LDR", "MMDR").
    name: str = "base"

    @abstractmethod
    def reduce(
        self,
        data: np.ndarray,
        rng: np.random.Generator,
        target_dim: Optional[int] = None,
    ) -> ReducedDataset:
        """Reduce ``(n, d)`` data; must cover every point exactly once."""
        raise NotImplementedError
