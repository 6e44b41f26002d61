"""Mahalanobis distance (Definition 3.2) and its normalized variant."""

import math

import numpy as np
import pytest

from repro.linalg.mahalanobis import ClusterShape, estimate_covariance
from repro.storage.metrics import CostCounters


class TestCovariance:
    def test_matches_numpy_population_covariance(self, rng):
        data = rng.normal(size=(200, 4))
        ours = estimate_covariance(data)
        theirs = np.cov(data, rowvar=False, bias=True)
        assert np.allclose(ours, theirs)

    def test_empty_data_gives_zero_matrix(self):
        cov = estimate_covariance(np.zeros((0, 3)))
        assert cov.shape == (3, 3)
        assert np.allclose(cov, 0.0)

    def test_explicit_mean_changes_result(self, rng):
        data = rng.normal(size=(50, 2))
        shifted = estimate_covariance(data, mean=np.zeros(2))
        centered = estimate_covariance(data)
        # Covariance around a wrong center is inflated.
        assert np.trace(shifted) >= np.trace(centered)


class TestClusterShape:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClusterShape(np.zeros(3), np.eye(2))

    def test_moved_shape_matches_fresh_construction(self, rng):
        """``moved_to`` shares the factorization instead of redoing it; its
        distances must carry the same bits as a freshly factored shape."""
        data = rng.normal(size=(400, 5)) @ rng.normal(size=(5, 5))
        shape = ClusterShape.from_points(data[:150])
        centroid = data[150:].mean(axis=0)
        moved = shape.moved_to(centroid)
        fresh = ClusterShape(centroid=centroid, covariance=shape.covariance)
        assert moved.log_det == fresh.log_det
        counters = [CostCounters(), CostCounters()]
        for norm in ("none", "gaussian", "paper"):
            got = moved.normalized_distance(data, norm, counters[0])
            want = fresh.normalized_distance(data, norm, counters[1])
            assert got.tobytes() == want.tobytes()
        assert counters[0].snapshot() == counters[1].snapshot()
        # The original shape is untouched.
        assert shape.centroid.tobytes() == data[:150].mean(axis=0).tobytes()

    def test_moved_to_rejects_a_wrong_width(self):
        with pytest.raises(ValueError):
            ClusterShape(np.zeros(3), np.eye(3)).moved_to(np.zeros(2))

    def test_identity_covariance_equals_squared_euclidean(self, rng):
        shape = ClusterShape(np.zeros(3), np.eye(3))
        pts = rng.normal(size=(20, 3))
        expected = (pts**2).sum(axis=1)
        assert np.allclose(
            shape.mahalanobis_sq(pts), expected, rtol=1e-6
        )

    def test_matches_direct_quadratic_form(self, rng):
        data = rng.normal(size=(300, 4)) @ rng.normal(size=(4, 4))
        shape = ClusterShape.from_points(data)
        pts = rng.normal(size=(10, 4))
        inv = np.linalg.inv(
            shape.covariance + np.eye(4) * 1e-12
        )
        diff = pts - shape.centroid
        direct = np.einsum("ij,jk,ik->i", diff, inv, diff)
        assert np.allclose(
            shape.mahalanobis_sq(pts), direct, rtol=1e-3
        )

    def test_weights_elongation_direction_less(self, rng):
        """Figure 1: a point along the major axis scores lower than an
        equally distant point along the minor axis."""
        data = rng.normal(0, [5.0, 0.5], size=(5000, 2))
        shape = ClusterShape.from_points(data)
        along_major = np.array([[4.0, 0.0]])
        along_minor = np.array([[0.0, 4.0]])
        assert (
            shape.mahalanobis_sq(along_major)[0]
            < shape.mahalanobis_sq(along_minor)[0]
        )

    def test_degenerate_covariance_is_regularized(self):
        # All points identical: zero covariance must still factorize.
        shape = ClusterShape.from_points(np.ones((5, 3)))
        dist = shape.mahalanobis_sq(np.array([[1.0, 1.0, 1.0]]))
        assert np.isfinite(dist[0])

    def test_rank_deficient_covariance_finite(self, rng):
        # Points on a line in 3-D.
        t = rng.normal(size=(50, 1))
        data = t @ np.array([[1.0, 2.0, 3.0]])
        shape = ClusterShape.from_points(data)
        assert np.all(
            np.isfinite(shape.mahalanobis_sq(rng.normal(size=(5, 3))))
        )

    def test_dimension_mismatch_raises(self):
        shape = ClusterShape.spherical(np.zeros(3))
        with pytest.raises(ValueError):
            shape.mahalanobis_sq(np.zeros((2, 4)))

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            ClusterShape.from_points(np.zeros((0, 2)))

    def test_spherical_radius_scales_distance(self):
        small = ClusterShape.spherical(np.zeros(2), radius=1.0)
        big = ClusterShape.spherical(np.zeros(2), radius=2.0)
        pt = np.array([[2.0, 0.0]])
        assert small.mahalanobis_sq(pt)[0] == pytest.approx(
            4.0 * big.mahalanobis_sq(pt)[0], rel=1e-6
        )

    def test_counters_record_dimension_weighted_work(self, rng):
        c = CostCounters()
        shape = ClusterShape.spherical(np.zeros(4))
        shape.mahalanobis_sq(rng.normal(size=(7, 4)), counters=c)
        assert c.distance_computations == 7
        assert c.distance_flops == 28


class TestNormalizedDistance:
    def test_none_equals_raw(self, rng):
        shape = ClusterShape.spherical(np.zeros(2))
        pts = rng.normal(size=(5, 2))
        assert np.allclose(
            shape.normalized_distance(pts, "none"),
            shape.mahalanobis_sq(pts),
        )

    def test_gaussian_form_matches_formula(self, rng):
        data = rng.normal(0, [2.0, 0.5], size=(1000, 2))
        shape = ClusterShape.from_points(data)
        pts = rng.normal(size=(4, 2))
        expected = 0.5 * (
            2 * math.log(2 * math.pi)
            + shape.log_det
            + shape.mahalanobis_sq(pts)
        )
        assert np.allclose(
            shape.normalized_distance(pts, "gaussian"), expected
        )

    def test_paper_form_scales_penalty_by_d(self, rng):
        data = rng.normal(0, [2.0, 0.5], size=(1000, 2))
        shape = ClusterShape.from_points(data)
        pts = rng.normal(size=(4, 2))
        expected = 0.5 * (
            2 * (math.log(2 * math.pi) + shape.log_det)
            + shape.mahalanobis_sq(pts)
        )
        assert np.allclose(
            shape.normalized_distance(pts, "paper"), expected
        )

    def test_unknown_normalization_rejected(self):
        shape = ClusterShape.spherical(np.zeros(2))
        with pytest.raises(ValueError):
            shape.normalized_distance(np.zeros((1, 2)), "bogus")

    def test_big_cluster_pays_volume_penalty(self, rng):
        """Definition 3.2's rationale: under the normalized distance a huge
        cluster does not swallow points that a compact cluster explains."""
        big = ClusterShape.from_points(rng.normal(0, 10.0, (2000, 2)))
        small = ClusterShape.from_points(
            rng.normal([8.0, 0.0], 0.5, (2000, 2))
        )
        pt = np.array([[8.3, 0.2]])  # inside the small cluster
        # Raw Mahalanobis may prefer the big cluster; normalized must not.
        assert (
            small.normalized_distance(pt, "gaussian")[0]
            < big.normalized_distance(pt, "gaussian")[0]
        )
