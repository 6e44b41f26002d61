"""The oracle's model: the one exact reference every query path answers to.

An index is exact with respect to the reduced-space frame vectors it
holds, so the reference is an exact scan over those vectors under the
scheme's own distance: reduced L2 against the query's projection in a
subspace frame, full L2 in the original space.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.subspace import OutlierSet
from repro.linalg.kernels import normalize_rows
from repro.reduction import ReducedDataset


class Model:
    """Live rid -> (frame, frame vector): frame ``s >= 0`` is subspace
    ``s`` of the index's reduction, ``-1`` the original space.
    ``points`` keeps each live rid's point as the index admitted it."""

    def __init__(self, reduced: ReducedDataset, points: dict) -> None:
        self.reduced, self.points, self.frames = reduced, points, {}
        for frame, subspace in enumerate(reduced.subspaces):
            ids = subspace.member_ids.tolist()
            block = subspace.project(np.stack([points[r] for r in ids]))
            self.frames.update(zip(ids, zip([frame] * len(ids), block)))
        for rid in reduced.outliers.member_ids.tolist():
            self.frames[rid] = (-1, points[rid])
        self.deleted = set()

    @property
    def live(self) -> np.ndarray:
        return np.array(sorted(self.frames), dtype=np.int64)

    def admit(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=np.float64)
        if self.reduced.metric == "cosine":
            return normalize_rows(point[None, :])[0]
        return point

    def route(self, point: np.ndarray, beta: float):
        """§5's insert rule: the subspace of smallest ``ProjDist_r``
        within ``beta``, else the original space."""
        residuals = [float(s.proj_dist_r(point)[0])
                     for s in self.reduced.subspaces]
        if not residuals or min(residuals) > beta:
            return -1, point
        frame = int(np.argmin(residuals))
        return frame, self.reduced.subspaces[frame].project(point)

    def add(self, rid: int, point, frame: int, vector) -> None:
        self.points[rid], self.frames[rid] = point, (frame, vector)

    def remove(self, rid: int) -> None:
        del self.frames[rid], self.points[rid]
        self.deleted.add(rid)

    def groups(self) -> dict:
        """Frame -> (its live rids ascending, their vectors as rows)."""
        members = {}
        for rid in sorted(self.frames):
            frame, vector = self.frames[rid]
            members.setdefault(frame, ([], []))
            members[frame][0].append(rid)
            members[frame][1].append(vector)
        return {
            frame: (np.array(ids, dtype=np.int64), np.array(vectors))
            for frame, (ids, vectors) in sorted(members.items())
        }

    def scan(self, query: np.ndarray):
        """Every live rid, ascending, and its distance to ``query``."""
        rids, dists = [], []
        for frame, (ids, vectors) in self.groups().items():
            ref = (query if frame < 0
                   else self.reduced.subspaces[frame].project(query))
            rids.append(ids)
            dists.append(np.linalg.norm(vectors - ref, axis=1))
        rids, dists = np.concatenate(rids), np.concatenate(dists)
        order = np.argsort(rids)
        return rids[order], dists[order]

    def live_reduction(self):
        """The live set as a reduction (each frame keeps its mean and
        basis) whose member ids are positions in the returned
        :attr:`live`."""
        live, groups = self.live, self.groups()
        subspaces = [
            dataclasses.replace(
                self.reduced.subspaces[frame], subspace_id=i,
                member_ids=np.searchsorted(live, ids), projections=vectors,
            )
            for i, (frame, (ids, vectors)) in enumerate(
                (f, g) for f, g in groups.items() if f >= 0)
        ]
        ids, vectors = groups.get(
            -1, (live[:0], np.empty((0, self.reduced.dimensionality))))
        outliers = OutlierSet(np.searchsorted(live, ids), vectors)
        return ReducedDataset(
            self.reduced.method, subspaces, outliers, live.size,
            self.reduced.dimensionality, metric=self.reduced.metric,
        ), live
