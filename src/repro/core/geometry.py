"""Projection distances, MPE, and ellipticity (Definitions 3.1, 3.4, 3.5).

Naming is pinned down once here because the paper's prose swaps terms in one
place (see DESIGN.md):

* ``proj_dist_r`` — distance from a point P to its projection P' on the
  **retained** subspace = the norm of P's coordinates along the *eliminated*
  components = the information **lost** by the reduction.  MPE (Definition
  3.5) is the mean of this quantity, and β (Table 1) thresholds it.
* ``proj_dist_e`` — distance from P to its projection P'' on the
  **eliminated** subspace = the norm of P's coordinates along the *retained*
  components = the information **kept**.

For an elongated cluster the retained components carry the large coordinates,
so ``max(proj_dist_e)`` plays the role of the major radius ``b`` and
``max(proj_dist_r)`` the minor radius ``a``; Definition 3.4's generalized
ellipticity ``e = (b - a) / a`` then reduces to Definition 3.1 in 2-D.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..linalg.pca import PCAModel

__all__ = [
    "ProjectionDistances",
    "projection_distances",
    "mean_projection_error",
    "ellipticity",
]


class ProjectionDistances:
    """Both projection distances for a batch of points at a given ``d_r``.

    It keeps the squares of the points' coordinates in the full PCA basis,
    so :meth:`at` splits them again at another ``d_r`` without a second
    projection.  Each distance is ``sqrt(add.reduce(squares[:, cols]))``,
    the arithmetic ``np.linalg.norm(coords[:, cols], axis=1)`` performs,
    on the same values in the same order, so a split is bit-identical to a
    fresh :func:`projection_distances` call.  ``proj_dist_e`` is computed
    on first read.
    """

    def __init__(self, squares: np.ndarray, n_components: int) -> None:
        self._squares = squares
        self.n_components = n_components
        # information lost (eliminated-component norms)
        self.proj_dist_r = self._norms(slice(n_components, None))

    def _norms(self, cols: slice) -> np.ndarray:
        return np.sqrt(np.add.reduce(self._squares[:, cols], axis=1))

    @cached_property
    def proj_dist_e(self) -> np.ndarray:
        """Information kept (retained-component norms)."""
        return self._norms(slice(None, self.n_components))

    def at(self, n_components: int) -> "ProjectionDistances":
        """The same points' distances at another ``d_r``."""
        return ProjectionDistances(self._squares, n_components)

    @property
    def mpe(self) -> float:
        """Mean ProjDist_r Error (Definition 3.5)."""
        if self.proj_dist_r.size == 0:
            return 0.0
        return float(self.proj_dist_r.mean())

    @property
    def ellipticity(self) -> float:
        """Generalized ellipticity of the batch (Definition 3.4)."""
        return ellipticity(self.proj_dist_r, self.proj_dist_e)


def projection_distances(
    data: np.ndarray, model: PCAModel, n_components: int
) -> ProjectionDistances:
    """Compute both projection distances for ``(n, d)`` points.

    Because the PCA basis is orthonormal, the two distances are simply the
    norms of the centered point's coordinates split at column
    ``n_components``; no explicit projection matrices are materialized.
    """
    arr = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if arr.shape[1] != model.dimensionality:
        raise ValueError(
            f"points have dimensionality {arr.shape[1]}, "
            f"PCA model expects {model.dimensionality}"
        )
    coords = (arr - model.mean) @ model.components
    return ProjectionDistances(coords * coords, n_components)


def mean_projection_error(
    data: np.ndarray, model: PCAModel, n_components: int
) -> float:
    """MPE (Definition 3.5): average information lost at ``n_components``.

    This is the quantity `Generate Ellipsoid` compares against MaxMPE and
    Dimensionality Optimization tracks while shrinking ``d_r``.
    """
    return projection_distances(data, model, n_components).mpe


def ellipticity(
    proj_dist_r: np.ndarray, proj_dist_e: np.ndarray
) -> float:
    """Generalized ellipticity ``e = (max PDe - max PDr) / max PDr``.

    A perfectly flat cluster (nothing lost, ``max PDr == 0``) has unbounded
    ellipticity; we return ``inf`` for that case, and ``0.0`` for an empty or
    fully degenerate batch where both radii vanish.
    """
    proj_dist_r = np.asarray(proj_dist_r, dtype=np.float64)
    proj_dist_e = np.asarray(proj_dist_e, dtype=np.float64)
    if proj_dist_r.size == 0 or proj_dist_e.size == 0:
        return 0.0
    minor = float(proj_dist_r.max())
    major = float(proj_dist_e.max())
    if minor <= 0.0:
        return float("inf") if major > 0.0 else 0.0
    return (major - minor) / minor
