"""Mahalanobis distance and its normalized variant (Definition 3.2).

The Mahalanobis distance weights displacement by the inverse covariance of a
cluster, so iso-distance surfaces are ellipsoids aligned with the cluster's
principal axes — exactly the shape MMDR wants to discover.  The *normalized*
variant adds a volume penalty so that a large, elongated cluster does not
keep absorbing points from smaller neighbours (the failure mode Definition
3.2 warns about, citing Sung & Poggio's elliptical k-means).

Two normalizations are provided:

* ``"gaussian"`` (default): :math:`\\tfrac12 (d \\ln 2\\pi + \\ln|C| + m)` —
  the Gaussian negative log-likelihood, which is the Sung–Poggio normalized
  distance the paper cites.
* ``"paper"``: :math:`\\tfrac12 (d \\ln(2\\pi\\,|C|) + m)` — the formula
  exactly as printed in Definition 3.2 (almost certainly a typesetting slip,
  but preserved for fidelity; it scales the volume penalty by ``d``).

Covariance matrices from small or degenerate clusters are regularized with a
relative ridge before factorization; the class precomputes the Cholesky
factor once so distance evaluation over ``n`` points is a vectorized
``O(n d^2)`` instead of per-point inversions.
"""

from __future__ import annotations

import copy
import math
from typing import Literal, Optional, Sequence

import numpy as np

from ..storage.metrics import CostCounters
from .kernels import batch_mahalanobis_rows

__all__ = [
    "Normalization",
    "ClusterShape",
    "batch_normalized_mahalanobis",
    "estimate_covariance",
]

Normalization = Literal["none", "gaussian", "paper"]

#: Relative ridge added to covariance diagonals for invertibility.
_RIDGE_SCALE = 1e-8
#: Absolute floor used when a covariance is entirely zero.
_RIDGE_FLOOR = 1e-12


def estimate_covariance(
    data: np.ndarray, mean: Optional[np.ndarray] = None
) -> np.ndarray:
    """Population covariance of ``(n, d)`` data around ``mean``.

    A single point (or none) yields the zero matrix, which
    :class:`ClusterShape` then regularizes to a tiny isotropic ball —
    mirroring how elliptical k-means seeds clusters with identity shape.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n, d = data.shape
    if n == 0:
        return np.zeros((d, d))
    if mean is None:
        mean = data.mean(axis=0)
    centered = data - mean
    return centered.T @ centered / n


class ClusterShape:
    """A cluster's centroid and covariance, ready for distance queries.

    The constructor factors a regularized covariance once so that each
    distance evaluation costs a pair of triangular solves instead of a fresh
    inversion.  ``log_det`` is the log-determinant of the regularized
    covariance, used by the normalized distance.
    """

    def __init__(self, centroid: np.ndarray, covariance: np.ndarray) -> None:
        self.centroid = np.asarray(centroid, dtype=np.float64)
        self.covariance = np.asarray(covariance, dtype=np.float64)
        d = self.centroid.shape[0]
        if self.covariance.shape != (d, d):
            raise ValueError(
                f"covariance shape {self.covariance.shape} does not match "
                f"centroid dimensionality {d}"
            )
        regularized = self._regularize(self.covariance)
        self._chol = np.linalg.cholesky(regularized)
        # Inverse of the lower-triangular factor: mahalanobis^2 of x is then
        # || L^{-1} (x - centroid) ||^2, computed as one matmul per batch.
        self._chol_inv = np.linalg.inv(self._chol)
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    @staticmethod
    def _regularize(cov: np.ndarray) -> np.ndarray:
        d = cov.shape[0]
        scale = float(np.trace(cov)) / d if d else 0.0
        ridge = max(scale * _RIDGE_SCALE, _RIDGE_FLOOR)
        return cov + ridge * np.eye(d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterShape(d={self.dimensionality}, "
            f"log_det={self.log_det:.3f})"
        )

    @property
    def dimensionality(self) -> int:
        return self.centroid.shape[0]

    def moved_to(self, centroid: np.ndarray) -> "ClusterShape":
        """This shape re-centred on ``centroid``, covariance unchanged.

        The factorization depends on the covariance alone, so the copy
        shares it instead of factoring again: its distances are
        bit-identical to ``ClusterShape(centroid, self.covariance)``'s.
        """
        centroid = np.asarray(centroid, dtype=np.float64)
        if centroid.shape != self.centroid.shape:
            raise ValueError(
                f"centroid shape {centroid.shape} does not match "
                f"{self.centroid.shape}"
            )
        moved = copy.copy(self)
        moved.centroid = centroid
        return moved

    @classmethod
    def from_points(
        cls, points: np.ndarray, centroid: Optional[np.ndarray] = None
    ) -> "ClusterShape":
        """Fit centroid + covariance from member points."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] == 0:
            raise ValueError("cannot fit a ClusterShape on zero points")
        if centroid is None:
            centroid = points.mean(axis=0)
        return cls(
            centroid=centroid,
            covariance=estimate_covariance(points, centroid),
        )

    @classmethod
    def spherical(
        cls, centroid: np.ndarray, radius: float = 1.0
    ) -> "ClusterShape":
        """Isotropic shape used to seed elliptical k-means."""
        centroid = np.asarray(centroid, dtype=np.float64)
        d = centroid.shape[0]
        return cls(centroid=centroid, covariance=(radius**2) * np.eye(d))

    def mahalanobis_sq(
        self, points: np.ndarray, counters: Optional[CostCounters] = None
    ) -> np.ndarray:
        """MahaDist from each point to the centroid.

        Definition 3.2 defines *MahaDist* as the quadratic form
        :math:`(P-O)^T C^{-1} (P-O)` (no square root), so this **is** the
        paper's MahaDist; the ``_sq`` suffix records that it scales like a
        squared Euclidean distance.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.dimensionality:
            raise ValueError(
                f"points have dimensionality {pts.shape[1]}, "
                f"shape expects {self.dimensionality}"
            )
        diff = pts - self.centroid
        z = diff @ self._chol_inv.T
        if counters is not None:
            counters.count_distance(pts.shape[0], dims=self.dimensionality)
        return np.einsum("ij,ij->i", z, z)

    def normalized_distance(
        self,
        points: np.ndarray,
        normalization: Normalization = "gaussian",
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Normalized Mahalanobis distance (Definition 3.2).

        With ``normalization="none"`` this degenerates to plain MahaDist,
        which lets the elliptical k-means implementation switch metric with
        one parameter (and lets the ablation bench show why the volume
        penalty matters).
        """
        msq = self.mahalanobis_sq(points, counters=counters)
        if normalization == "none":
            return msq
        return 0.5 * (self.volume_penalty(normalization) + msq)

    def volume_penalty(self, normalization: Normalization) -> float:
        """The scalar volume term of the normalized distance.

        Factored out so the fused batch kernel can precompute one penalty
        per cluster with *exactly* the arithmetic the per-shape path uses.
        """
        d = self.dimensionality
        if normalization == "gaussian":
            return d * math.log(2.0 * math.pi) + self.log_det
        if normalization == "paper":
            return d * (math.log(2.0 * math.pi) + self.log_det)
        raise ValueError(f"unknown normalization {normalization!r}")


def batch_normalized_mahalanobis(
    points: np.ndarray,
    shapes: Sequence[ClusterShape],
    normalization: Normalization = "gaussian",
    counters: Optional[CostCounters] = None,
) -> np.ndarray:
    """``(n, k)`` normalized distances from every point to every shape.

    This is the batched form of calling ``shape.normalized_distance`` once
    per shape and stacking the columns — the hottest loop of elliptical
    k-means — routed through the fused
    :func:`repro.linalg.kernels.batch_mahalanobis_rows` kernel, whose
    columns are bit-identical to the per-shape call.  Counters are charged
    here exactly as the per-shape loop charged them (``n`` distance
    evaluations per shape, at full ``d``), so logical costs are invariant
    to batching.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    shapes = list(shapes)
    if not shapes:
        return np.empty((pts.shape[0], 0), dtype=np.float64)
    d = shapes[0].dimensionality
    if pts.shape[1] != d:
        raise ValueError(
            f"points have dimensionality {pts.shape[1]}, "
            f"shapes expect {d}"
        )
    centroids = np.ascontiguousarray(
        np.stack([s.centroid for s in shapes])
    )
    chol_invs = np.ascontiguousarray(
        np.stack([s._chol_inv for s in shapes])
    )
    penalties = (
        None
        if normalization == "none"
        else np.array(
            [s.volume_penalty(normalization) for s in shapes],
            dtype=np.float64,
        )
    )
    if counters is not None:
        for _ in shapes:
            counters.count_distance(pts.shape[0], dims=d)
    return batch_mahalanobis_rows(pts, centroids, chol_invs, penalties)
