"""PCA substrate: eigenstructure, projections, residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg.pca import (
    _canonicalize_signs,
    fit_pca,
    project,
    reconstruct,
    residual_norms,
)
from repro.linalg.rotation import random_orthonormal


class TestFit:
    def test_rejects_empty_and_wrong_ndim(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            fit_pca(np.zeros(5))

    def test_single_point_degenerate_model(self):
        model = fit_pca(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(model.mean, [1, 2, 3])
        assert np.allclose(model.eigenvalues, 0.0)
        assert model.n_samples == 1

    def test_eigenvalues_sorted_and_nonnegative(self, rng):
        data = rng.normal(0, [3, 1, 0.1, 0.01], (500, 4))
        model = fit_pca(data)
        eig = model.eigenvalues
        assert np.all(eig[:-1] >= eig[1:])
        assert np.all(eig >= 0)

    def test_components_orthonormal(self, rng):
        data = rng.normal(size=(200, 6))
        model = fit_pca(data)
        gram = model.components.T @ model.components
        assert np.allclose(gram, np.eye(6), atol=1e-9)

    def test_recovers_known_variances(self, rng):
        scales = np.array([4.0, 2.0, 1.0, 0.5])
        data = rng.normal(0, scales, (20000, 4))
        model = fit_pca(data)
        assert np.allclose(
            np.sqrt(model.eigenvalues), scales, rtol=0.05
        )

    def test_rotation_invariance_of_spectrum(self, rng):
        data = rng.normal(0, [3, 1, 0.2, 0.05], (2000, 4))
        rotation = random_orthonormal(4, rng)
        a = fit_pca(data).eigenvalues
        b = fit_pca(data @ rotation).eigenvalues
        assert np.allclose(a, b, rtol=1e-8)

    def test_deterministic_given_same_data(self, rng):
        data = rng.normal(size=(100, 5))
        m1, m2 = fit_pca(data), fit_pca(data)
        assert np.array_equal(m1.components, m2.components)

    def test_explained_variance_ratio_sums_to_one(self, rng):
        data = rng.normal(size=(300, 5))
        ratio = fit_pca(data).explained_variance_ratio()
        assert ratio.sum() == pytest.approx(1.0)

    def test_explained_variance_ratio_zero_variance(self):
        data = np.ones((10, 3))
        ratio = fit_pca(data).explained_variance_ratio()
        assert np.allclose(ratio, 0.0)

    def test_basis_validates_range(self, rng):
        model = fit_pca(rng.normal(size=(50, 4)))
        with pytest.raises(ValueError):
            model.basis(5)
        with pytest.raises(ValueError):
            model.basis(-1)
        assert model.basis(0).shape == (4, 0)


def _canonicalize_by_columns(vectors):
    """Reference: the column loop ``_canonicalize_signs`` replaced."""
    flipped = vectors.copy()
    for j in range(flipped.shape[1]):
        col = flipped[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            flipped[:, j] = -col
    return flipped


class TestCanonicalizeSigns:
    def test_matches_column_loop(self):
        vectors = np.array(
            [
                [0.5, -0.5, 0.0, 0.3, -0.0],
                [-0.5, 0.5, -0.9, -0.3, 0.0],
                [0.1, 0.2, 0.9, 0.3, -0.0],
            ]
        )
        # Column 0/1: tied |max| with opposite signs, first one wins;
        # column 2: tie, negative first; column 3: three-way tie;
        # column 4: all zeros (signed), never flipped.
        got = _canonicalize_signs(vectors)
        want = _canonicalize_by_columns(vectors)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
        assert np.array_equal(got[:, 0], vectors[:, 0])
        assert np.array_equal(got[:, 1], -vectors[:, 1])
        assert np.array_equal(got[:, 2], -vectors[:, 2])
        assert np.signbit(got[0, 4])  # -0.0 stays, column untouched

    def test_matches_column_loop_on_eigenvectors(self, rng):
        for d in (1, 2, 7, 64):
            cov = np.cov(rng.normal(size=(3 * d + 5, d)), rowvar=False)
            _, vectors = np.linalg.eigh(np.atleast_2d(cov))
            vectors = vectors[:, ::-1]
            got = _canonicalize_signs(vectors)
            assert got.tobytes() == _canonicalize_by_columns(vectors).tobytes()


class TestProjectReconstruct:
    def test_roundtrip_exact_at_full_dim(self, rng):
        data = rng.normal(size=(100, 5))
        model = fit_pca(data)
        proj = project(data, model, 5)
        back = reconstruct(proj, model, 5)
        assert np.allclose(back, data, atol=1e-9)

    def test_projection_shape(self, rng):
        data = rng.normal(size=(100, 8))
        model = fit_pca(data)
        assert project(data, model, 3).shape == (100, 3)

    def test_single_point_projection(self, rng):
        data = rng.normal(size=(100, 8))
        model = fit_pca(data)
        assert project(data[0], model, 3).shape == (3,)

    def test_projection_of_mean_is_origin(self, rng):
        data = rng.normal(size=(200, 4))
        model = fit_pca(data)
        proj = project(model.mean, model, 3)
        assert np.allclose(proj, 0.0, atol=1e-12)

    def test_projection_preserves_centered_norm_at_full_dim(self, rng):
        data = rng.normal(size=(50, 6))
        model = fit_pca(data)
        proj = project(data, model, 6)
        assert np.allclose(
            np.linalg.norm(proj, axis=1),
            np.linalg.norm(data - model.mean, axis=1),
        )


class TestResiduals:
    def test_zero_at_full_dimensionality(self, rng):
        data = rng.normal(size=(100, 4))
        model = fit_pca(data)
        assert np.allclose(residual_norms(data, model, 4), 0.0)

    def test_monotone_in_retained_dims(self, rng):
        data = rng.normal(0, [3, 2, 1, 0.5], (300, 4))
        model = fit_pca(data)
        norms = [residual_norms(data, model, k).mean() for k in range(5)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_pythagoras_with_projection(self, rng):
        """retained^2 + eliminated^2 == centered norm^2 (orthonormal basis)."""
        data = rng.normal(size=(100, 6))
        model = fit_pca(data)
        retained = np.linalg.norm(project(data, model, 2), axis=1)
        eliminated = residual_norms(data, model, 2)
        total = np.linalg.norm(data - model.mean, axis=1)
        assert np.allclose(retained**2 + eliminated**2, total**2)

    def test_equals_reconstruction_error(self, rng):
        data = rng.normal(size=(80, 5))
        model = fit_pca(data)
        recon = reconstruct(project(data, model, 2), model, 2)
        direct = np.linalg.norm(data - recon, axis=1)
        assert np.allclose(residual_norms(data, model, 2), direct)

    def test_dimension_mismatch_raises(self, rng):
        model = fit_pca(rng.normal(size=(20, 4)))
        from repro.core.geometry import projection_distances

        with pytest.raises(ValueError):
            projection_distances(rng.normal(size=(5, 3)), model, 2)


@settings(max_examples=20, deadline=None)
@given(
    data=hnp.arrays(
        np.float64,
        st.tuples(
            st.integers(min_value=3, max_value=40),
            st.integers(min_value=2, max_value=6),
        ),
        elements=st.floats(
            min_value=-100, max_value=100, allow_nan=False
        ),
    )
)
def test_property_spectrum_and_energy(data):
    """Eigenvalue sum equals total variance; residuals bounded by norms."""
    model = fit_pca(data)
    total_var = ((data - data.mean(axis=0)) ** 2).sum() / data.shape[0]
    assert model.eigenvalues.sum() == pytest.approx(
        total_var, rel=1e-6, abs=1e-8
    )
    res = residual_norms(data, model, 1)
    centered = np.linalg.norm(data - model.mean, axis=1)
    assert np.all(res <= centered + 1e-8)
