"""Principal Component Analysis, implemented from scratch on numpy.

MMDR (Definition 3.3) uses PCA twice: globally/locally to produce the
multi-level low-dimensional projections that `Generate Ellipsoid` clusters
in, and per-ellipsoid to pick the retained subspace during Dimensionality
Optimization.  The principal components are exactly the eigenvectors of the
covariance matrix that the Mahalanobis distance is built from, which is the
observation the whole algorithm rests on.

The implementation eigendecomposes the (symmetric) covariance matrix with
``numpy.linalg.eigh`` and orders components by decreasing eigenvalue.  Signs
of eigenvectors are canonicalized (largest-magnitude coordinate positive) so
results are deterministic across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PCAModel", "fit_pca", "project", "reconstruct", "residual_norms"]


@dataclass(frozen=True)
class PCAModel:
    """A fitted PCA basis.

    Attributes
    ----------
    mean:
        ``(d,)`` sample mean subtracted before projection.
    components:
        ``(d, d)`` orthonormal matrix whose *columns* are principal
        components ordered by decreasing eigenvalue, i.e. column 0 is the
        first principal component (:math:`\\Phi` in Definition 3.3 is
        ``components[:, :d_r]``).
    eigenvalues:
        ``(d,)`` variances along each component, non-increasing.
    n_samples:
        Number of points the model was fitted on.
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    n_samples: int = field(default=0)

    @property
    def dimensionality(self) -> int:
        """Original dimensionality ``d``."""
        return self.components.shape[0]

    def basis(self, n_components: int) -> np.ndarray:
        """The ``(d, n_components)`` matrix of leading components."""
        d = self.dimensionality
        if not 0 <= n_components <= d:
            raise ValueError(
                f"n_components must be in [0, {d}], got {n_components}"
            )
        return self.components[:, :n_components]

    def explained_variance_ratio(self) -> np.ndarray:
        """Per-component fraction of total variance (all zeros if the data
        had no variance at all)."""
        total = float(self.eigenvalues.sum())
        if total <= 0.0:
            return np.zeros_like(self.eigenvalues)
        return self.eigenvalues / total


def fit_pca(data: np.ndarray) -> PCAModel:
    """Fit a full PCA basis to ``(n, d)`` data.

    Degenerate inputs are handled explicitly: a single point (or identical
    points) yields zero eigenvalues and an identity basis contribution, and
    clusters with fewer points than dimensions simply produce a rank-deficient
    covariance whose trailing eigenvalues are zero.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D (n, d), got shape {data.shape}")
    n, d = data.shape
    if n == 0:
        raise ValueError("cannot fit PCA on an empty dataset")
    mean = data.mean(axis=0)
    if n == 1:
        return PCAModel(
            mean=mean,
            components=np.eye(d),
            eigenvalues=np.zeros(d),
            n_samples=1,
        )
    centered = data - mean
    # Population covariance (divide by n): matches the Mahalanobis covariance
    # used for clustering, and keeps single-cluster MPE values consistent.
    cov = centered.T @ centered / n
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    # eigh can return tiny negative eigenvalues for rank-deficient matrices.
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    eigenvectors = _canonicalize_signs(eigenvectors)
    return PCAModel(
        mean=mean,
        components=eigenvectors,
        eigenvalues=eigenvalues,
        n_samples=n,
    )


def _canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-|coordinate| entry is positive.

    On a tie in |coordinate| the first such entry is the pivot.
    """
    pivots = np.argmax(np.abs(vectors), axis=0)
    negative = vectors[pivots, np.arange(vectors.shape[1])] < 0
    flipped = vectors.copy()
    flipped[:, negative] = -flipped[:, negative]
    return flipped


def project(
    data: np.ndarray, model: PCAModel, n_components: int
) -> np.ndarray:
    """Project ``(n, d)`` (or a single ``(d,)``) point(s) onto the leading
    ``n_components`` principal components.

    This is Definition 3.3's :math:`P'_{d_r} = P \\cdot \\Phi_{d_r}` with the
    conventional mean-centering step made explicit.
    """
    basis = model.basis(n_components)
    arr = np.asarray(data, dtype=np.float64)
    return (arr - model.mean) @ basis


def reconstruct(
    projections: np.ndarray, model: PCAModel, n_components: int
) -> np.ndarray:
    """Map reduced points back into the original space (lossy inverse)."""
    basis = model.basis(n_components)
    arr = np.asarray(projections, dtype=np.float64)
    return arr @ basis.T + model.mean


def residual_norms(
    data: np.ndarray, model: PCAModel, n_components: int
) -> np.ndarray:
    """Euclidean distance from each point to the retained subspace.

    This is the paper's :math:`ProjDist_r` (Definition 3.4): the information
    *lost* when a point is represented by its ``n_components``-dimensional
    projection.  Computed as the norm of the point's coordinates along the
    eliminated components, which equals the reconstruction error because the
    basis is orthonormal.
    """
    arr = np.atleast_2d(np.asarray(data, dtype=np.float64))
    centered = arr - model.mean
    eliminated = model.components[:, n_components:]
    if eliminated.shape[1] == 0:
        return np.zeros(arr.shape[0])
    coords = centered @ eliminated
    return np.linalg.norm(coords, axis=1)
