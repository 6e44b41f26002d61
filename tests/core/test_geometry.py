"""Projection distances, MPE, ellipticity (Definitions 3.1/3.4/3.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import (
    ellipticity,
    mean_projection_error,
    projection_distances,
)
from repro.linalg.pca import fit_pca


class TestProjectionDistances:
    def test_split_matches_definition(self, rng):
        """proj_dist_r = ||P - P'|| (lost), proj_dist_e = ||P - P''|| (kept),
        verified against explicit projections onto both subspaces."""
        data = rng.normal(0, [3, 2, 0.5, 0.1], (200, 4))
        model = fit_pca(data)
        d_r = 2
        dists = projection_distances(data, model, d_r)
        centered = data - model.mean
        retained_basis = model.components[:, :d_r]
        eliminated_basis = model.components[:, d_r:]
        p_prime = centered @ retained_basis @ retained_basis.T
        p_dprime = centered @ eliminated_basis @ eliminated_basis.T
        assert np.allclose(
            dists.proj_dist_r, np.linalg.norm(centered - p_prime, axis=1)
        )
        assert np.allclose(
            dists.proj_dist_e, np.linalg.norm(centered - p_dprime, axis=1)
        )

    def test_zero_components_all_lost(self, rng):
        data = rng.normal(size=(50, 3))
        model = fit_pca(data)
        dists = projection_distances(data, model, 0)
        assert np.allclose(dists.proj_dist_e, 0.0)
        assert np.allclose(
            dists.proj_dist_r,
            np.linalg.norm(data - model.mean, axis=1),
        )

    def test_full_components_nothing_lost(self, rng):
        data = rng.normal(size=(50, 3))
        model = fit_pca(data)
        dists = projection_distances(data, model, 3)
        assert np.allclose(dists.proj_dist_r, 0.0)

    @pytest.mark.parametrize("d, start", [(8, 0), (8, 3), (8, 8), (64, 20)])
    def test_resplit_matches_fresh_projection(self, rng, d, start):
        """``at(k)`` reuses the coordinates of one projection; both
        distances must equal a fresh ``projection_distances`` and the
        norms of a fresh projection's columns bit for bit, at every ``k``
        in ``0..d``."""
        data = rng.normal(0, np.linspace(3, 0.05, d), (300, d))
        model = fit_pca(data)
        dists = projection_distances(data, model, start)
        for k in range(d + 1):
            got = dists.at(k)
            fresh = projection_distances(data, model, k)
            # The split as written out before results kept their
            # coordinates: one projection per call, split at k.
            coords = (data - model.mean) @ model.components
            lost = np.linalg.norm(coords[:, k:], axis=1)
            kept = np.linalg.norm(coords[:, :k], axis=1)
            assert (
                got.proj_dist_r.tobytes()
                == fresh.proj_dist_r.tobytes()
                == lost.tobytes()
            )
            assert (
                got.proj_dist_e.tobytes()
                == fresh.proj_dist_e.tobytes()
                == kept.tobytes()
            )
            assert got.mpe == fresh.mpe == float(lost.mean())

    def test_dimension_mismatch_raises(self, rng):
        model = fit_pca(rng.normal(size=(20, 4)))
        with pytest.raises(ValueError):
            projection_distances(rng.normal(size=(3, 5)), model, 2)


class TestMPE:
    def test_is_mean_of_proj_dist_r(self, rng):
        data = rng.normal(size=(100, 5))
        model = fit_pca(data)
        dists = projection_distances(data, model, 2)
        assert mean_projection_error(data, model, 2) == pytest.approx(
            dists.proj_dist_r.mean()
        )

    def test_monotone_nonincreasing_in_dims(self, rng):
        data = rng.normal(0, [4, 3, 2, 1, 0.5], (300, 5))
        model = fit_pca(data)
        mpes = [mean_projection_error(data, model, k) for k in range(6)]
        assert all(a >= b - 1e-12 for a, b in zip(mpes, mpes[1:]))

    def test_empty_batch_is_zero(self, rng):
        model = fit_pca(rng.normal(size=(10, 3)))
        dists = projection_distances(np.zeros((0, 3)), model, 1)
        assert dists.mpe == 0.0


class TestEllipticity:
    def test_matches_definition_3_1_in_2d(self, rng):
        """e = (b - a) / a for an axis-aligned ellipse-ish cloud."""
        b_radius, a_radius = 4.0, 1.0
        theta = rng.uniform(0, 2 * np.pi, 4000)
        data = np.stack(
            [b_radius * np.cos(theta), a_radius * np.sin(theta)], axis=1
        )
        model = fit_pca(data)
        dists = projection_distances(data, model, 1)
        expected = (b_radius - a_radius) / a_radius
        assert dists.ellipticity == pytest.approx(expected, rel=0.1)

    def test_circle_has_zero_ellipticity(self, rng):
        theta = rng.uniform(0, 2 * np.pi, 4000)
        data = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        model = fit_pca(data)
        assert projection_distances(data, model, 1).ellipticity < 0.1

    def test_flat_cluster_infinite(self):
        assert ellipticity(np.zeros(5), np.ones(5)) == np.inf

    def test_degenerate_zero(self):
        assert ellipticity(np.zeros(5), np.zeros(5)) == 0.0
        assert ellipticity(np.zeros(0), np.zeros(0)) == 0.0

    def test_larger_elongation_larger_e(self, rng):
        model_input = rng.normal(0, [1.0, 1.0], (500, 2))
        mild = model_input * np.array([2.0, 1.0])
        strong = model_input * np.array([8.0, 1.0])
        e_mild = projection_distances(mild, fit_pca(mild), 1).ellipticity
        e_strong = projection_distances(
            strong, fit_pca(strong), 1
        ).ellipticity
        assert e_strong > e_mild


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=5, max_value=50),
    d=st.integers(min_value=2, max_value=6),
)
def test_property_pythagorean_identity(seed, n, d):
    """proj_dist_r^2 + proj_dist_e^2 == ||P - mean||^2 for every point."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0, size=d)
    model = fit_pca(data)
    for d_r in range(d + 1):
        dists = projection_distances(data, model, d_r)
        total = np.linalg.norm(data - model.mean, axis=1)
        assert np.allclose(
            dists.proj_dist_r**2 + dists.proj_dist_e**2,
            total**2,
            rtol=1e-8,
            atol=1e-8,
        )
