"""Dynamic insertion into the extended iDistance (the §5 capability the
paper's auxiliary covariance/radius arrays exist for)."""

import dataclasses

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.core.subspace import OutlierSet
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index.idistance import ExtendedIDistance
from repro.persist import load_index, save_index
from repro.recovery import checkpoint, recover
from repro.reduction.base import ReducedDataset
from repro.reduction.mmdr_adapter import model_to_reduced
from repro.storage.wal import WriteAheadLog


@pytest.fixture(scope="module")
def built_index():
    spec = SyntheticSpec(
        n_points=4000,
        dimensionality=24,
        n_clusters=3,
        retained_dims=4,
        variance_r=0.3,
        variance_e=0.012,
        noise_fraction=0.01,
    )
    ds = generate_correlated_clusters(spec, np.random.default_rng(55))
    model = MMDR().fit(ds.points, np.random.default_rng(56))
    index = ExtendedIDistance(model_to_reduced(model))
    return ds, model, index


class TestRouting:
    def test_cluster_point_joins_its_subspace(self, built_index):
        ds, model, index = built_index
        subspace = model.subspaces[0]
        # A fresh point synthesized inside subspace 0's plane.
        new_point = subspace.reconstruct(
            subspace.projections[:25].mean(axis=0)
        )
        partition = index.insert(new_point, rid=999_001)
        assert partition == subspace.subspace_id

    def test_far_point_goes_to_outlier_partition(self, built_index):
        _, model, index = built_index
        junk = np.full(model.dimensionality, 40.0)
        partition = index.insert(junk, rid=999_002)
        assert index.partitions[partition].subspace is None

    def test_tree_grows(self, built_index):
        ds, _, index = built_index
        before = len(index.tree)
        index.insert(ds.points[0] + 0.001, rid=999_003)
        assert len(index.tree) == before + 1


class TestSearchAfterInsert:
    def test_inserted_point_is_findable(self, built_index):
        ds, model, index = built_index
        subspace = model.subspaces[1]
        anchor = ds.points[subspace.member_ids[3]]
        new_point = anchor + 1e-6  # essentially a duplicate
        index.insert(new_point, rid=999_100)
        index.reset_cache()
        result = index.knn(anchor, 3)
        assert 999_100 in result.ids.tolist()

    def test_inserted_outlier_is_findable(self, built_index):
        _, model, index = built_index
        lonely = np.full(model.dimensionality, -30.0)
        index.insert(lonely, rid=999_200)
        index.reset_cache()
        result = index.knn(lonely, 1)
        assert result.ids[0] == 999_200

    def test_existing_answers_unchanged_for_far_queries(self, built_index):
        """Inserting into one region must not corrupt answers elsewhere."""
        ds, _, index = built_index
        query = ds.points[100]
        baseline = index.knn(query, 10).ids
        far = np.full(ds.points.shape[1], 25.0)
        index.insert(far, rid=999_300)
        index.reset_cache()
        after = index.knn(query, 10).ids
        assert set(after.tolist()) == set(baseline.tolist())

    def test_many_inserts_then_exact_self_queries(self, built_index):
        ds, model, index = built_index
        rng = np.random.default_rng(4)
        subspace = model.subspaces[0]
        inserted = []
        for i in range(30):
            base = ds.points[subspace.member_ids[rng.integers(
                subspace.member_ids.size)]]
            point = base + rng.normal(0, 1e-4, base.shape)
            rid = 1_000_000 + i
            index.insert(point, rid=rid)
            inserted.append((point, rid))
        index.reset_cache()
        hits = sum(
            rid in index.knn(point, 2).ids.tolist()
            for point, rid in inserted
        )
        assert hits >= 28  # near-duplicates must find themselves


def _far_in_plane(model, index):
    """A point inside subspace 0's plane but so far out along it that its
    key offset would reach the stretch constant ``c``."""
    subspace = model.subspaces[0]
    return subspace.mean + subspace.basis[:, 0] * (index.c * 5)


def _without_outliers(model):
    """The model's reduction with its outlier set left out (member ids
    renumbered densely), so the index built on it has no outlier
    partition."""
    red = model_to_reduced(model)
    kept = np.sort(np.concatenate([s.member_ids for s in red.subspaces]))
    return ReducedDataset(
        method=red.method,
        subspaces=[
            dataclasses.replace(
                s, member_ids=np.searchsorted(kept, s.member_ids)
            )
            for s in red.subspaces
        ],
        outliers=OutlierSet(
            member_ids=np.zeros(0, dtype=np.int64),
            points=np.zeros((0, red.dimensionality)),
        ),
        n_points=red.n_points - red.outliers.size,
        dimensionality=red.dimensionality,
    )


def _brute_force_knn(red, extra, query, k):
    """Exact top-``k`` over every bulk frame vector plus the full-``d``
    inserted outliers ``extra`` (``{rid: point}``)."""
    rids, dists = [], []
    for subspace in red.subspaces:
        rids.append(subspace.member_ids)
        dists.append(
            np.linalg.norm(
                subspace.projections - subspace.project(query), axis=1
            )
        )
    rids.append(red.outliers.member_ids)
    dists.append(np.linalg.norm(red.outliers.points - query, axis=1))
    rids.append(np.fromiter(extra, dtype=np.int64))
    dists.append(
        np.array([np.linalg.norm(p - query) for p in extra.values()])
    )
    rids, dists = np.concatenate(rids), np.concatenate(dists)
    order = np.argsort(dists, kind="stable")[:k]
    return rids[order], dists[order]


class TestKeySpaceGuard:
    def test_offset_beyond_c_rejected(self, built_index):
        """Without an outlier partition there is nowhere to put a point
        whose key would leave its partition's range."""
        _, model, _ = built_index
        index = ExtendedIDistance(_without_outliers(model))
        assert len(index.partitions) == model.n_subspaces
        with pytest.raises(ValueError, match="stretch constant"):
            index.insert(_far_in_plane(model, index), rid=999_999)
        assert index.n_inserted == 0


class TestOutOfRangeInsert:
    """Paper §5 sends a point that conforms to no subspace to the
    outliers; a point whose key offset would reach ``c`` in its
    subspace's partition is treated the same way."""

    def test_offset_beyond_c_joins_the_outliers(self, built_index, tmp_path):
        ds, model, _ = built_index
        red = model_to_reduced(model)
        assert red.outliers.size > 0
        index = ExtendedIDistance(red)
        wal = WriteAheadLog(tmp_path / "wal.log")
        index.enable_wal(wal)
        checkpoint(index, tmp_path / "ckpt")

        point = _far_in_plane(model, index)
        rid = red.n_points + 7
        assert index.insert(point, rid=rid) == -1
        index.disable_wal()
        save_index(index, tmp_path / "snap")
        wal.close()
        restored = load_index(tmp_path / "snap")
        recovered, report = recover(tmp_path / "wal.log")
        assert report.committed_kinds == ["insert"]

        member = ds.points[model.subspaces[0].member_ids[0]]
        queries = [point, ds.points[0], member]
        for held in (index, restored, recovered):
            part, pos = held.locate(rid)
            outliers = held.partitions[part]
            assert outliers.subspace is None
            stored = outliers.delta_vectors[pos - outliers.rids.size]
            # Full-d, as route_point stores a non-conforming point.
            assert np.array_equal(stored, point)
            assert held.live_count == red.n_points + 1
            for query in queries:
                got = held.knn(query, 10)
                ids, dists = _brute_force_knn(red, {rid: point}, query, 10)
                assert np.array_equal(got.ids, ids)
                assert np.allclose(got.distances, dists, rtol=0, atol=1e-9)
        assert index.knn(point, 1).ids[0] == rid
