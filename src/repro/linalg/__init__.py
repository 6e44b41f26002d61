"""Linear-algebra substrate: PCA, Mahalanobis distances, random rotations.

Everything is implemented from scratch on numpy primitives — the paper's
Definitions 3.2–3.5 map one-to-one onto this subpackage:

* :func:`fit_pca` / :func:`project` / :func:`residual_norms` — Definition 3.3
  (multi-level projections) and the ``ProjDist_r`` half of Definition 3.4.
* :class:`ClusterShape` — Definition 3.2 (MahaDist and normalized MahaDist).
* :func:`random_orthonormal` — the Appendix-A rotation step.
* :mod:`~repro.linalg.kernels` — the one implementation of every batched
  distance kernel, plus the cold-LRU replay used by the batch query engine.
"""

from . import backend  # noqa: F401  (the traced benchmark's binding point)
from .kernels import (
    batch_l2_rows,
    batch_mahalanobis_rows,
    cold_lru_physical_reads,
    flat_l2,
    multi_arange,
    normalize_rows,
)
from .mahalanobis import (
    ClusterShape,
    Normalization,
    batch_normalized_mahalanobis,
    estimate_covariance,
)
from .pca import PCAModel, fit_pca, project, reconstruct, residual_norms
from .rotation import is_orthonormal, random_orthonormal

__all__ = [
    "ClusterShape",
    "Normalization",
    "PCAModel",
    "batch_l2_rows",
    "batch_mahalanobis_rows",
    "batch_normalized_mahalanobis",
    "cold_lru_physical_reads",
    "estimate_covariance",
    "fit_pca",
    "flat_l2",
    "is_orthonormal",
    "multi_arange",
    "normalize_rows",
    "project",
    "random_orthonormal",
    "reconstruct",
    "residual_norms",
]
