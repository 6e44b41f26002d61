"""Exact brute-force KNN over the reduced-space vectors an index holds.

The program scores a candidate by L2 in the frame it is stored in: a
subspace member by its projection ``(q - mean) @ basis`` against the
stored projection, an outlier by full-dimensional L2.  :class:`Oracle`
recomputes that scoring with plain numpy over every held vector, and
:meth:`Oracle.check` judges an answer by distances, not by tie order:

* the answer has ``min(k, n)`` distinct ids;
* every returned id is held, and its returned distance equals the
  oracle's distance for that id within ``TOLERANCE``;
* the sorted returned distances equal the oracle's top-k distances
  within ``TOLERANCE``.

Any valid tie-breaking passes; a wrong, missing, duplicated or
mis-scored neighbour fails.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TOLERANCE", "Frame", "Oracle", "frames_of_reduced"]

#: Absolute distance tolerance for an answer to count as exact.
TOLERANCE = 1e-9

#: ``(mean, basis, vectors, rids)``: ``mean``/``basis`` are ``None`` for a
#: full-dimensional frame (outliers), else the subspace's projection.
Frame = Tuple[Optional[np.ndarray], Optional[np.ndarray], np.ndarray,
              np.ndarray]


def frames_of_reduced(reduced) -> List[Frame]:
    """The frames a freshly built index over ``reduced`` holds."""
    frames: List[Frame] = [
        (s.mean, s.basis, s.projections, s.member_ids)
        for s in reduced.subspaces
    ]
    if reduced.outliers.size:
        frames.append(
            (None, None, reduced.outliers.points,
             reduced.outliers.member_ids)
        )
    return frames


class Oracle:
    """Exact scorer over a fixed set of frames."""

    def __init__(self, frames: Sequence[Frame]) -> None:
        self.frames = [
            (
                None if mean is None else np.asarray(mean, np.float64),
                None if basis is None else np.asarray(basis, np.float64),
                np.ascontiguousarray(vectors, dtype=np.float64),
                np.asarray(rids, dtype=np.int64),
            )
            for mean, basis, vectors, rids in frames
        ]
        all_rids = (
            np.concatenate([f[3] for f in self.frames])
            if self.frames
            else np.empty(0, dtype=np.int64)
        )
        if np.unique(all_rids).size != all_rids.size:
            raise ValueError("an id is held twice")
        self.rids = all_rids
        self.n = int(all_rids.size)
        size = int(all_rids.max()) + 1 if all_rids.size else 0
        self._frame_of = np.full(size, -1, dtype=np.int64)
        self._row_of = np.full(size, -1, dtype=np.int64)
        for f, (_, _, _, rids) in enumerate(self.frames):
            self._frame_of[rids] = f
            self._row_of[rids] = np.arange(rids.size)

    def _projected(self, query: np.ndarray) -> List[np.ndarray]:
        return [
            query if basis is None else (query - mean) @ basis
            for mean, basis, _, _ in self.frames
        ]

    def distances(self, query: np.ndarray) -> np.ndarray:
        """Distance to every held vector, in :attr:`rids` order."""
        query = np.asarray(query, dtype=np.float64)
        parts = [
            np.linalg.norm(vectors - q, axis=1)
            for q, (_, _, vectors, _) in zip(
                self._projected(query), self.frames
            )
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    def topk(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k, ordered by (distance, id)."""
        dists = self.distances(query)
        k = min(k, dists.size)
        if k == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        part = np.argpartition(dists, k - 1)[:k]
        order = np.lexsort((self.rids[part], dists[part]))
        return self.rids[part][order], dists[part][order]

    def topk_distances(self, queries: np.ndarray, k: int) -> np.ndarray:
        """``(Q, min(k, n))`` exact top-k distances, one row per query."""
        return np.array([self.topk(q, k)[1] for q in queries])

    def distance_of(self, query: np.ndarray, rids: np.ndarray) -> np.ndarray:
        """Distance to each listed id; NaN for ids not held."""
        rids = np.asarray(rids, dtype=np.int64)
        out = np.full(rids.size, np.nan)
        ok = (rids >= 0) & (rids < self._frame_of.size)
        frames = np.full(rids.size, -1, dtype=np.int64)
        frames[ok] = self._frame_of[rids[ok]]
        projected = self._projected(np.asarray(query, dtype=np.float64))
        for f in np.unique(frames[frames >= 0]).tolist():
            sel = frames == f
            rows = self._row_of[rids[sel]]
            vectors = self.frames[f][2][rows]
            out[sel] = np.linalg.norm(vectors - projected[f], axis=1)
        return out

    def check(
        self,
        query: np.ndarray,
        k: int,
        ids: np.ndarray,
        dists: np.ndarray,
        expected: Optional[np.ndarray] = None,
    ) -> Optional[str]:
        """``None`` when the answer is exact, else the reason it is not.

        ``expected`` is the precomputed top-k distance row for ``query``
        (computed here when omitted).
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        dists = np.asarray(dists, dtype=np.float64).ravel()
        want = min(k, self.n)
        if ids.size != want or dists.size != want:
            return f"expected {want} neighbours, got {ids.size}"
        if np.unique(ids).size != ids.size:
            return "duplicate ids in the answer"
        true = self.distance_of(query, ids)
        if np.isnan(true).any():
            return f"ids not held: {ids[np.isnan(true)].tolist()}"
        if not np.all(np.abs(true - dists) <= TOLERANCE):
            return "returned distances differ from the ids' true distances"
        if expected is None:
            expected = self.topk(query, k)[1]
        if not np.all(np.abs(np.sort(dists) - expected) <= TOLERANCE):
            return "returned neighbours are not the exact top-k"
        return None
