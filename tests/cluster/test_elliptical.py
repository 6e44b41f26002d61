"""Elliptical k-means — the Sung-Poggio engine inside Generate Ellipsoid."""

import numpy as np
import pytest

from repro.cluster.elliptical import EllipticalKMeans
from repro.cluster.lookup import CentroidLookupTable
from repro.linalg.mahalanobis import (
    ClusterShape,
    batch_normalized_mahalanobis,
)
from repro.storage.metrics import CostCounters


def purity(labels, truth):
    """Mean per-found-cluster majority share."""
    total, correct = 0, 0
    for cluster in np.unique(labels):
        mask = labels == cluster
        values, counts = np.unique(truth[mask], return_counts=True)
        total += mask.sum()
        correct += counts.max()
    return correct / total


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            EllipticalKMeans(0)
        with pytest.raises(ValueError):
            EllipticalKMeans(2, lookup_k=0)
        with pytest.raises(ValueError):
            EllipticalKMeans(2, max_outer_iterations=0)

    def test_empty_data_rejected(self, rng):
        with pytest.raises(ValueError):
            EllipticalKMeans(2).fit(np.zeros((0, 3)), rng)


class TestClustering:
    def test_separates_colocated_anisotropic_clusters(
        self, anisotropic_pair, rng
    ):
        """Figure 1's scenario: two clusters distinguishable only by their
        covariance orientation.  Euclidean k-means cannot do this.

        Hard-assignment elliptical k-means at exactly k=2 has a sticky
        symmetric local optimum on a perfectly co-centered cross (the two
        'V' halves), so — like MMDR itself, which runs with MaxEC=10 and
        merges afterwards — we over-provision clusters and check that the
        pieces are *orientation-pure*: no piece mixes the two ellipsoids.
        (Points near the shared center are intrinsically ambiguous since
        both densities peak there, so ~0.85 is the hard-assignment
        ceiling.)"""
        points, truth = anisotropic_pair
        result = EllipticalKMeans(10).fit(points, rng)
        assert result.n_clusters >= 2
        assert purity(result.labels, truth) > 0.8

    def test_separates_offset_anisotropic_clusters(self, rng):
        """With even a modest centroid offset, k=2 recovers the two
        differently-oriented clusters exactly."""
        gen = np.random.default_rng(3)
        a = gen.normal(0, [5, 1, 0.1, 0.1, 0.1], (400, 5))
        b = gen.normal(0, [1, 5, 0.1, 0.1, 0.1], (400, 5))
        b[:, 0] += 12.0
        points = np.vstack([a, b])
        truth = np.repeat([0, 1], 400)
        result = EllipticalKMeans(2).fit(points, rng)
        assert result.n_clusters == 2
        assert purity(result.labels, truth) > 0.95

    def test_result_structure(self, anisotropic_pair, rng):
        points, _ = anisotropic_pair
        result = EllipticalKMeans(2).fit(points, rng)
        assert result.labels.shape == (points.shape[0],)
        assert len(result.shapes) == result.n_clusters
        assert result.centroids.shape == (result.n_clusters, 5)
        for cluster in range(result.n_clusters):
            members = result.members(cluster)
            assert members.size > 0
            assert np.allclose(
                result.shapes[cluster].centroid,
                points[members].mean(axis=0),
                atol=1e-9,
            )

    def test_single_cluster_request(self, rng):
        data = rng.normal(size=(100, 3))
        result = EllipticalKMeans(1).fit(data, rng)
        assert result.n_clusters == 1
        assert np.all(result.labels == 0)

    def test_more_clusters_than_points(self, rng):
        data = rng.normal(size=(5, 2))
        result = EllipticalKMeans(10).fit(data, rng)
        assert 1 <= result.n_clusters <= 5

    def test_deterministic_under_seed(self, anisotropic_pair):
        points, _ = anisotropic_pair
        r1 = EllipticalKMeans(2).fit(points, np.random.default_rng(4))
        r2 = EllipticalKMeans(2).fit(points, np.random.default_rng(4))
        assert np.array_equal(r1.labels, r2.labels)

    def test_duplicate_points_handled(self, rng):
        data = np.repeat(rng.normal(size=(4, 3)), 30, axis=0)
        result = EllipticalKMeans(4).fit(data, rng)
        assert result.n_clusters >= 1
        assert np.all(np.isfinite(result.centroids))


class TestOptimizations:
    @pytest.mark.parametrize(
        "use_lookup,use_activity",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_optimizations_preserve_quality(
        self, anisotropic_pair, use_lookup, use_activity
    ):
        """§4.2's claim: the lookup table and activity filter are pure
        speedups — clustering quality must not degrade."""
        points, truth = anisotropic_pair
        result = EllipticalKMeans(
            10, use_lookup=use_lookup, use_activity=use_activity
        ).fit(points, np.random.default_rng(8))
        assert purity(result.labels, truth) > 0.8

    def test_lookup_reduces_distance_computations(self, anisotropic_pair):
        points, _ = anisotropic_pair
        costs = {}
        for use_lookup in (False, True):
            counters = CostCounters()
            EllipticalKMeans(
                5,
                use_lookup=use_lookup,
                use_activity=False,
                lookup_k=1,
                n_init=1,
            ).fit(points, np.random.default_rng(8), counters)
            costs[use_lookup] = counters.distance_computations
        assert costs[True] <= costs[False]

    def test_activity_freezes_points(self, anisotropic_pair):
        points, _ = anisotropic_pair
        result = EllipticalKMeans(
            2, use_activity=True, activity_threshold=2,
            max_outer_iterations=8, max_inner_iterations=20,
        ).fit(points, np.random.default_rng(8))
        # After convergence on easy data, a large share should be frozen.
        assert result.final_inactive_fraction > 0.3


class TestNormalizations:
    @pytest.mark.parametrize("norm", ["none", "gaussian", "paper"])
    def test_all_normalizations_run(self, anisotropic_pair, norm, rng):
        points, _ = anisotropic_pair
        result = EllipticalKMeans(2, normalization=norm).fit(points, rng)
        assert result.n_clusters >= 1

    def test_normalized_resists_size_imbalance(self, rng):
        """Definition 3.2: without normalization a big elongated cluster
        tends to absorb a small compact one."""
        big = rng.normal(0, [8.0, 0.5], (1500, 2))
        small = rng.normal([6.0, 4.0], 0.25, (150, 2))
        points = np.vstack([big, small])
        truth = np.repeat([0, 1], [1500, 150])
        result = EllipticalKMeans(
            2, normalization="gaussian"
        ).fit(points, np.random.default_rng(17))
        assert purity(result.labels, truth) > 0.9


def _recentre_by_masks(data, labels, shapes):
    """Reference: one ``labels == cluster`` mask and one freshly factored
    shape per cluster."""
    kept = []
    remap = np.full(len(shapes), -1, dtype=np.int64)
    for cluster, shape in enumerate(shapes):
        mask = labels == cluster
        if not np.any(mask):
            continue
        remap[cluster] = len(kept)
        kept.append(
            ClusterShape(
                centroid=data[mask].mean(axis=0),
                covariance=shape.covariance,
            )
        )
    new_labels = labels.copy()
    assigned = labels >= 0
    new_labels[assigned] = remap[labels[assigned]]
    return new_labels, kept, len(kept) < len(shapes)


def _assign_by_scans(estimator, data, rows, labels, shapes, table, counters):
    """Reference for the cached path: one scan of the lookup table per
    cluster."""
    cached = table.candidates_for(rows)
    best = np.full(rows.size, np.inf)
    best_label = labels[rows].copy()
    for cluster in range(len(shapes)):
        mask = np.any(cached == cluster, axis=1)
        if not np.any(mask):
            continue
        dist = shapes[cluster].normalized_distance(
            data[rows[mask]], estimator.normalization, counters
        )
        better = dist < best[mask]
        idx = np.flatnonzero(mask)[better]
        best[idx] = dist[better]
        best_label[idx] = cluster
    moved = np.flatnonzero(best_label != labels[rows])
    if moved.size:
        full = batch_normalized_mahalanobis(
            data[rows[moved]], shapes, estimator.normalization, counters
        )
        table.refresh(rows[moved], full)
        best_label[moved] = np.argmin(full, axis=1)
    return best_label.astype(np.int64)


def _shapes(data, n_shapes):
    return [
        ClusterShape.from_points(data[i::n_shapes]) for i in range(n_shapes)
    ]


class TestFastPathsBitIdentical:
    """The grouped ``_recentre`` and the one-pass ``_assign`` against the
    per-cluster loops they replaced: same bits, same counter charges."""

    def test_recentre_matches_mask_loop(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(600, 6)) * rng.uniform(0.1, 9.0, 6)
        shapes = _shapes(data, 5)
        labels = rng.integers(0, 5, data.shape[0])
        labels[labels == 2] = 4  # cluster 2 empties: labels 3, 4 remap
        labels[[0, 9, 17]] = -1  # not yet assigned rows stay -1
        got_labels, got, got_dropped = EllipticalKMeans._recentre(
            data, labels, shapes
        )
        want_labels, want, want_dropped = _recentre_by_masks(
            data, labels, shapes
        )
        assert got_dropped and want_dropped
        assert np.array_equal(got_labels, want_labels)
        assert got_labels.max() == 3 and np.count_nonzero(got_labels < 0) == 3
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.centroid.tobytes() == w.centroid.tobytes()
            assert g.log_det == w.log_det
            for norm in ("none", "gaussian", "paper"):
                assert (
                    g.normalized_distance(data, norm).tobytes()
                    == w.normalized_distance(data, norm).tobytes()
                )

    def test_recentre_keeps_every_cluster(self):
        rng = np.random.default_rng(22)
        data = rng.normal(size=(300, 3))
        shapes = _shapes(data, 3)
        labels = rng.integers(0, 3, data.shape[0])
        got_labels, got, dropped = EllipticalKMeans._recentre(
            data, labels, shapes
        )
        want_labels, want, _ = _recentre_by_masks(data, labels, shapes)
        assert not dropped
        assert np.array_equal(got_labels, want_labels)
        assert [g.centroid.tobytes() for g in got] == [
            w.centroid.tobytes() for w in want
        ]

    def test_assign_with_padded_lookup_matches_full_matrix(self):
        """``n_clusters < lookup_k``: ``refresh`` pads each list with -1,
        which must not read as the last cluster."""
        rng = np.random.default_rng(23)
        data = rng.normal(size=(400, 4))
        shapes = _shapes(data, 2)
        estimator = EllipticalKMeans(2, lookup_k=3)
        table = CentroidLookupTable(data.shape[0], 3, activity_threshold=10)
        rows = np.arange(data.shape[0])
        labels = np.full(data.shape[0], -1, dtype=np.int64)
        first = estimator._assign(data, rows, labels, shapes, table, None)
        assert np.all(table.candidates[:, 2] == -1)
        # Move the shapes so some points change cluster on the cached pass.
        shapes = [s.moved_to(s.centroid + 0.3) for s in shapes]
        full = batch_normalized_mahalanobis(data, shapes, "gaussian")
        counters = CostCounters()
        got = estimator._assign(data, rows, first, shapes, table, counters)
        assert np.array_equal(got, np.argmin(full, axis=1))

    def test_assign_matches_per_cluster_scans(self):
        """Hand-made candidate lists of every length (with -1 padding):
        the one-pass table read evaluates exactly the listed clusters."""
        rng = np.random.default_rng(24)
        data = rng.normal(size=(500, 4))
        shapes = _shapes(data, 5)
        estimator = EllipticalKMeans(5, lookup_k=3)
        rows = np.sort(rng.choice(data.shape[0], 350, replace=False))
        labels = rng.integers(0, 5, data.shape[0])
        candidates = np.full((data.shape[0], 3), -1, dtype=np.int64)
        for row in range(data.shape[0]):
            listed = rng.choice(5, int(rng.integers(1, 4)), replace=False)
            candidates[row, : listed.size] = listed
        results = []
        for assign in (estimator._assign, _assign_by_scans):
            table = CentroidLookupTable(
                data.shape[0], 3, activity_threshold=10
            )
            table.candidates[:] = candidates
            counters = CostCounters()
            if assign is _assign_by_scans:
                got = assign(
                    estimator, data, rows, labels, shapes, table, counters
                )
            else:
                got = assign(data, rows, labels, shapes, table, counters)
            results.append(
                (got, table.candidates.copy(), counters.distance_computations)
            )
        (got, got_table, got_cost), (want, want_table, want_cost) = results
        assert np.array_equal(got, want)
        assert np.array_equal(got_table, want_table)
        assert got_cost == want_cost
