"""Sequential scan and gLDR composite index, and the brute-force
exactness check every scheme in ``INDEX_SCHEMES`` must pass."""

import copyreg
import dataclasses
import io
import pickle

import numpy as np
import pytest

from repro.core.subspace import OutlierSet
from repro.eval.precision import reduced_knn
from repro.index import INDEX_SCHEMES
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.seqscan import SequentialScan
from repro.linalg.kernels import normalize_rows
from repro.reduction.ldr import LDRReducer
from repro.storage.mmap_store import MmapPageStore
from repro.storage.pager import pages_for_vectors


@pytest.fixture(scope="module")
def ldr_data():
    from repro.data.synthetic import (
        SyntheticSpec,
        generate_correlated_clusters,
    )

    spec = SyntheticSpec(
        n_points=4000,
        dimensionality=32,
        n_clusters=4,
        retained_dims=6,
        variance_r=0.25,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    return generate_correlated_clusters(
        spec, np.random.default_rng(21)
    ).points


@pytest.fixture(scope="module")
def ldr_reduced(ldr_data):
    return ldr_data, LDRReducer().reduce(ldr_data, np.random.default_rng(5))


@pytest.fixture(scope="module")
def ldr_cosine_reduced(ldr_data):
    red = LDRReducer().reduce(
        normalize_rows(ldr_data), np.random.default_rng(5)
    )
    red.metric = "cosine"
    return ldr_data, red


def _frame_point(red, point):
    """``point`` as the index stores it: unit length under cosine."""
    point = np.asarray(point, dtype=np.float64)
    if red.metric == "cosine":
        return normalize_rows(point[None, :])[0]
    return point


def _bulk_frames(red):
    """Live rid -> (subspace index or -1 for outliers, frame vector)."""
    frames = {}
    for sidx, subspace in enumerate(red.subspaces):
        for rid, vec in zip(subspace.member_ids, subspace.projections):
            frames[int(rid)] = (sidx, vec)
    for rid, vec in zip(red.outliers.member_ids, red.outliers.points):
        frames[int(rid)] = (-1, vec)
    return frames


def _brute_force_knn(red, frames, queries, k):
    """Exact top-``k`` by scanning every live frame vector."""
    groups = {}
    for rid in sorted(frames):
        sidx, vec = frames[rid]
        groups.setdefault(sidx, ([], []))
        groups[sidx][0].append(rid)
        groups[sidx][1].append(vec)
    rids = np.concatenate(
        [np.asarray(g[0], dtype=np.int64) for g in groups.values()]
    )
    blocks = {sidx: np.vstack(g[1]) for sidx, g in groups.items()}
    ids = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k))
    for qi, query in enumerate(queries):
        query = _frame_point(red, query)
        scores = np.concatenate([
            np.linalg.norm(
                block
                - (red.subspaces[sidx].project(query) if sidx >= 0 else query),
                axis=1,
            )
            for sidx, block in blocks.items()
        ])
        order = np.argsort(scores, kind="stable")[:k]
        ids[qi], dists[qi] = rids[order], scores[order]
    return ids, dists


def _mutate(index, red, data, frames):
    """Insert jittered copies of early points (some route to a subspace,
    some are stored as full-``d`` outliers) and one far outlier point,
    then delete bulk outliers, bulk tree members and inserted rids of
    both kinds.  Returns the far insert, a query whose nearest neighbor
    is itself."""
    rng = np.random.default_rng(8)
    next_rid = red.n_points
    outlier = data[41] + rng.normal(0.0, 1.0, data.shape[1])
    points = [
        data[i] + rng.normal(0.0, 1e-3, data.shape[1])
        for i in range(0, 40, 2)
    ]
    inserted = {}
    for point in points + [outlier]:
        sidx = index.insert(point, next_rid)
        point = _frame_point(red, point)
        frames[next_rid] = (
            (sidx, red.subspaces[sidx].project(point))
            if sidx >= 0
            else (-1, point)
        )
        inserted.setdefault(sidx >= 0, []).append(next_rid)
        next_rid += 1
    assert frames[next_rid - 1][0] == -1  # the far point is an outlier
    labels = red.labels()
    doomed = (
        np.flatnonzero(labels < 0)[:2].tolist()
        + np.flatnonzero(labels >= 0)[:2].tolist()
        + inserted[True][:1]
        + inserted[False][:1]
    )
    for rid in doomed:
        index.delete(rid)
        del frames[rid]
    return outlier


class TestSequentialScan:
    def test_exact_under_reduced_scoring(self, ldr_reduced):
        data, red = ldr_reduced
        scan = SequentialScan(red)
        truth = reduced_knn(red, data[:15], 10)
        for qi, query in enumerate(data[:15]):
            result = scan.knn(query, 10)
            assert set(result.ids.tolist()) == set(truth[qi].tolist())

    def test_io_is_constant_and_matches_page_math(self, ldr_reduced):
        data, red = ldr_reduced
        scan = SequentialScan(red)
        expected = sum(
            pages_for_vectors(s.size, s.reduced_dim) for s in red.subspaces
        ) + pages_for_vectors(red.outliers.size, red.dimensionality)
        for query in data[:5]:
            result = scan.knn(query, 10)
            assert result.stats.page_reads == expected

    def test_distance_computations_equal_n(self, ldr_reduced):
        data, red = ldr_reduced
        scan = SequentialScan(red)
        result = scan.knn(data[0], 10)
        assert result.stats.distance_computations == red.n_points

    def test_k_validation(self, ldr_reduced):
        data, red = ldr_reduced
        with pytest.raises(ValueError):
            SequentialScan(red).knn(data[0], 0)


@pytest.mark.parametrize("scheme", list(INDEX_SCHEMES.values()))
@pytest.mark.parametrize("metric", ["l2", "cosine"])
@pytest.mark.parametrize("store", ["memory", "mmap"])
@pytest.mark.parametrize("state", ["bulk", "mutated"])
@pytest.mark.parametrize("method", ["knn", "knn_batch"])
def test_exact_against_brute_force(
    method, state, store, metric, scheme, ldr_reduced, ldr_cosine_reduced
):
    """Every query must return exactly the reduced-space KNN: the ids of
    a brute-force scan over every live point's frame vector, and its
    distances to 1e-9 — after deletes of outliers, tree members and
    inserts, and with delta entries both in subspaces and at full ``d``."""
    data, red = ldr_reduced if metric == "l2" else ldr_cosine_reduced
    index = scheme(
        red, store_factory=MmapPageStore if store == "mmap" else None
    )
    try:
        frames = _bulk_frames(red)
        queries = data[:25]
        if state == "mutated":
            outlier = _mutate(index, red, data, frames)
            queries = np.vstack([queries, outlier])
        want_ids, want_dists = _brute_force_knn(red, frames, queries, 10)
        if method == "knn":
            results = [index.knn(query, 10) for query in queries]
            got_ids = np.vstack([r.ids for r in results])
            got_dists = np.vstack([r.distances for r in results])
        else:
            batch = index.knn_batch(queries, 10)
            got_ids, got_dists = batch.ids, batch.distances
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_allclose(got_dists, want_dists, rtol=0, atol=1e-9)
    finally:
        index.store.close()


@pytest.mark.parametrize("scheme", list(INDEX_SCHEMES.values()))
def test_insert_rejects_a_live_or_deleted_rid(scheme, ldr_reduced):
    """A rid already live (bulk-loaded or inserted) or deleted cannot be
    inserted again: the index is left exactly as it was."""
    data, red = ldr_reduced
    index = scheme(red)
    fresh = red.n_points
    index.insert(data[3] + 1e-6, fresh)
    index.delete(11)
    for rid in (7, fresh, 11):
        with pytest.raises(ValueError):
            index.insert(data[7] + 1e-6, rid)
    assert index.live_count == red.n_points
    assert index.n_inserted == 1
    ids = index.knn(data[7], 5).ids.tolist()
    assert ids[0] == 7 and len(set(ids)) == 5


class TestGlobalLDR:
    def test_exact_under_reduced_scoring(self, ldr_reduced):
        data, red = ldr_reduced
        index = GlobalLDRIndex(red)
        truth = reduced_knn(red, data[:15], 10)
        for qi, query in enumerate(data[:15]):
            result = index.knn(query, 10)
            assert set(result.ids.tolist()) == set(truth[qi].tolist())

    def test_one_tree_per_subspace(self, ldr_reduced):
        _, red = ldr_reduced
        index = GlobalLDRIndex(red)
        assert len(index.trees) == red.n_subspaces

    def test_outlier_pages_charged_every_query(self, ldr_reduced):
        data, red = ldr_reduced
        index = GlobalLDRIndex(red)
        if red.outliers.size == 0:
            pytest.skip("reduction produced no outliers")
        result = index.knn(data[0], 10)
        assert result.stats.page_reads >= index.outlier_pages

    def test_agrees_with_seqscan(self, ldr_reduced):
        data, red = ldr_reduced
        gldr = GlobalLDRIndex(red)
        scan = SequentialScan(red)
        for query in data[:10]:
            a = gldr.knn(query, 10)
            b = scan.knn(query, 10)
            assert set(a.ids.tolist()) == set(b.ids.tolist())

    def test_prunes_relative_to_scan(self, ldr_reduced):
        data, red = ldr_reduced
        gldr = GlobalLDRIndex(red)
        result = gldr.knn(data[0], 10)
        # Hybrid trees must not score every stored vector.
        scored = result.stats.distance_computations
        assert scored < red.n_points

    def test_k_validation(self, ldr_reduced):
        data, red = ldr_reduced
        with pytest.raises(ValueError):
            GlobalLDRIndex(red).knn(data[0], -1)

    def test_outlier_columns_stay_out_of_the_pickle(self, ldr_reduced):
        """The outliers' column block is derived state: a pickle leaves
        it out and loading rebuilds it."""
        _, red = ldr_reduced
        blob = pickle.dumps(GlobalLDRIndex(red))
        assert b"_outlier_columns" not in blob
        columns = pickle.loads(blob)._outlier_columns
        assert columns.flags.c_contiguous
        assert np.array_equal(columns, red.outliers.points.T)

    def test_pickle_without_the_column_copy_answers_bit_identically(
        self, ldr_reduced
    ):
        """An index pickled as its bare ``__dict__`` without the column
        block (the layout snapshots had before the block existed) has the
        same bytes as a pickle of today's index, loads, and answers with
        the same ids, distance bits and counts."""
        data, red = ldr_reduced
        index = GlobalLDRIndex(red)
        index.delete(int(red.outliers.member_ids[0]))
        bare = {
            key: value
            for key, value in index.__dict__.items()
            if key != "_outlier_columns"
        }

        class BareDictPickler(pickle.Pickler):
            def reducer_override(self, obj):
                if obj is index:
                    return copyreg.__newobj__, (GlobalLDRIndex,), bare
                return NotImplemented

        buffer = io.BytesIO()
        BareDictPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(index)
        blob = buffer.getvalue()
        assert blob == pickle.dumps(index, pickle.HIGHEST_PROTOCOL)
        loaded = pickle.loads(blob)
        for query in data[:12]:
            index.reset_cache()
            loaded.reset_cache()
            a, b = index.knn(query, 10), loaded.knn(query, 10)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(
                a.distances.view(np.int64), b.distances.view(np.int64)
            )
            assert a.stats.page_reads == b.stats.page_reads
            assert (
                a.stats.distance_computations
                == b.stats.distance_computations
            )

    def test_outlier_ties_and_counts_pinned(self, ldr_reduced):
        """Duplicate outlier rows, scattered through the scan order with
        rids out of order, tie at the k-th distance.  The answers pin the
        heap's tie rule (the outlier leg keeps every row at the k-th
        distance and offers them in scan order) and the per-query page
        reads and distance computations; all were recorded with the
        one-row-at-a-time offer loop the vectorized search replaced."""
        data, red = ldr_reduced
        outliers = red.outliers
        perm = np.random.default_rng(3).permutation(outliers.size)
        rids = outliers.member_ids[perm]
        points = outliers.points[perm]
        a = points[0].copy()
        b = a.copy()
        b[0] += 1e-3
        pos = np.random.default_rng(4).choice(
            np.arange(1, outliers.size), 13, replace=False
        )
        points[pos[:4]] = a  # five rows at distance 0 from a
        points[pos[4:]] = b  # nine at distance 1e-3
        index = GlobalLDRIndex(
            dataclasses.replace(
                red, outliers=OutlierSet(member_ids=rids, points=points)
            )
        )
        tie = [1112, 1181, 2757, 3202]
        pinned = [
            (a, 10, [24, 858, 1719, 1856, 2956, 123] + tie, 26, 846),
            (a, 3, [24, 1719, 1856], 22, 846),
            (b, 7, [121, 123, 1112, 1155, 1181, 2757, 3202], 22, 846),
            (data[0], 10, [0, 2475, 693, 2566, 768, 497, 181, 2754, 2450,
                           1941], 25, 992),
        ]
        for query, k, ids, reads, dists in pinned:
            result = index.knn(query, k)
            assert result.ids.tolist() == ids
            assert result.stats.page_reads == reads
            assert result.stats.distance_computations == dists
        index.delete(int(rids[pos[5]]))
        index.delete(int(rids[0]))
        pinned = [
            (a, 10, [858, 1719, 1856, 2956, 1112, 1155, 1181, 1829, 2757,
                     3202], 22, 846),
            (b, 7, [121, 1112, 1155, 1181, 1829, 2757, 3202], 22, 846),
        ]
        for query, k, ids, reads, dists in pinned:
            result = index.knn(query, k)
            assert result.ids.tolist() == ids
            assert result.stats.page_reads == reads
            assert result.stats.distance_computations == dists
