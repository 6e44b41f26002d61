"""The MMDR algorithm end to end (Figure 4)."""

import numpy as np
import pytest

from repro.core.config import MMDRConfig
from repro.core.mmdr import MMDR
from repro.data.synthetic import (
    ClusterSpec,
    SyntheticSpec,
    generate_correlated_clusters,
)


def cluster_purity(model, truth):
    """Worst-case per-subspace majority share."""
    worst = 1.0
    for subspace in model.subspaces:
        labels = truth[subspace.member_ids]
        _, counts = np.unique(labels, return_counts=True)
        worst = min(worst, counts.max() / counts.sum())
    return worst


class TestBasics:
    def test_empty_data_rejected(self, rng):
        with pytest.raises(ValueError):
            MMDR().fit(np.zeros((0, 4)), rng)

    def test_covers_every_point_exactly_once(self, five_cluster_dataset):
        model = MMDR().fit(
            five_cluster_dataset.points, np.random.default_rng(1)
        )
        seen = np.zeros(model.n_points, dtype=int)
        for subspace in model.subspaces:
            seen[subspace.member_ids] += 1
        seen[model.outliers.member_ids] += 1
        assert np.all(seen == 1)

    def test_deterministic_under_seed(self, two_cluster_dataset):
        m1 = MMDR().fit(two_cluster_dataset.points, np.random.default_rng(5))
        m2 = MMDR().fit(two_cluster_dataset.points, np.random.default_rng(5))
        assert np.array_equal(m1.labels(), m2.labels())
        assert m1.reduced_dims() == m2.reduced_dims()

    def test_stats_populated(self, two_cluster_dataset):
        model = MMDR().fit(
            two_cluster_dataset.points, np.random.default_rng(5)
        )
        assert model.stats.fit_seconds > 0
        assert len(model.stats.levels_used) >= 1
        assert model.stats.levels_used[0] == 1  # starts at s_dim = 1


class TestDiscovery:
    def test_recovers_five_clusters_and_dims(self, five_cluster_dataset):
        """The headline behaviour: exact cluster count, exact intrinsic
        dimensionality, near-perfect purity, only the injected noise as
        outliers."""
        ds = five_cluster_dataset
        model = MMDR().fit(ds.points, np.random.default_rng(1))
        assert model.n_subspaces == 5
        assert model.reduced_dims() == [8] * 5
        assert cluster_purity(model, ds.labels) > 0.99
        n_noise = int((ds.labels == -1).sum())
        assert model.outliers.size <= n_noise * 3

    def test_multi_level_recursion_used(self, five_cluster_dataset):
        """Generate Ellipsoid must actually climb levels 1 -> 2 -> 4 -> 8
        (the paper's divide-lower-before-conquer-upper order)."""
        model = MMDR().fit(
            five_cluster_dataset.points, np.random.default_rng(1)
        )
        levels = set(model.stats.levels_used)
        assert 1 in levels
        assert max(levels) >= 8

    def test_globally_correlated_data_single_subspace(self, rng):
        spec = SyntheticSpec(
            n_points=1500,
            dimensionality=24,
            n_clusters=1,
            retained_dims=4,
            variance_r=0.3,
            variance_e=0.01,
        )
        ds = generate_correlated_clusters(spec, rng)
        model = MMDR().fit(ds.points, rng)
        assert model.n_subspaces == 1
        assert model.subspaces[0].reduced_dim == 4

    def test_noise_points_become_outliers(self, five_cluster_dataset):
        ds = five_cluster_dataset
        model = MMDR().fit(ds.points, np.random.default_rng(1))
        outlier_truth = ds.labels[model.outliers.member_ids]
        # A clear majority of the detected outliers are true noise.
        assert (outlier_truth == -1).mean() > 0.8

    def test_max_dim_respected(self, rng):
        spec = SyntheticSpec(
            n_points=2000,
            dimensionality=32,
            n_clusters=1,
            retained_dims=12,
            variance_r=0.2,
            variance_e=0.01,
        )
        ds = generate_correlated_clusters(spec, rng)
        config = MMDRConfig(max_dim=6, beta=10.0)  # huge beta: keep all
        model = MMDR(config).fit(ds.points, rng)
        assert all(d <= 6 for d in model.reduced_dims())

    def test_max_clusters_respected(self, rng):
        spec = SyntheticSpec(
            n_points=4000,
            dimensionality=16,
            n_clusters=8,
            retained_dims=2,
            variance_r=0.3,
            variance_e=0.01,
        )
        ds = generate_correlated_clusters(spec, rng)
        config = MMDRConfig(max_clusters=3)
        model = MMDR(config).fit(ds.points, rng)
        assert model.n_subspaces <= 3

    def test_beta_controls_outliers(self, five_cluster_dataset):
        ds = five_cluster_dataset
        strict = MMDR(MMDRConfig(beta=0.01)).fit(
            ds.points, np.random.default_rng(2)
        )
        loose = MMDR(MMDRConfig(beta=0.5)).fit(
            ds.points, np.random.default_rng(2)
        )
        assert strict.outliers.size >= loose.outliers.size

    def test_subspace_mpe_within_beta(self, five_cluster_dataset):
        """Members were admitted under ProjDist_r <= beta, so each final
        subspace's MPE cannot exceed beta."""
        model = MMDR().fit(
            five_cluster_dataset.points, np.random.default_rng(1)
        )
        for subspace in model.subspaces:
            assert subspace.mpe <= 0.1 + 1e-9


class TestMergeBehaviour:
    def test_fragments_reunite(self, rng):
        """Over-segmentation by per-level clustering must be undone: one
        elongated cluster in, one subspace out."""
        spec = SyntheticSpec(
            n_points=3000,
            dimensionality=24,
            n_clusters=1,
            retained_dims=6,
            variance_r=0.25,
            variance_e=0.01,
        )
        ds = generate_correlated_clusters(spec, rng)
        model = MMDR().fit(ds.points, rng)
        assert model.n_subspaces == 1

    def test_distant_clusters_not_merged(self, rng):
        clusters = tuple(
            ClusterSpec(
                size=1000,
                s_dim=3,
                s_r_dim=start,
                variance_r=0.3,
                variance_e=0.01,
                lb=lb,
                rotate=False,
            )
            for start, lb in [(0, 0.0), (5, 10.0)]
        )
        spec = SyntheticSpec(
            n_points=2000,
            dimensionality=12,
            n_clusters=2,
            noise_fraction=0.0,
            clusters=clusters,
        )
        ds = generate_correlated_clusters(spec, rng)
        model = MMDR().fit(ds.points, rng)
        assert model.n_subspaces == 2

    def test_merge_disabled_keeps_fragments(self, five_cluster_dataset):
        config = MMDRConfig(merge_compatible=False)
        model = MMDR(config).fit(
            five_cluster_dataset.points, np.random.default_rng(1)
        )
        baseline = MMDR().fit(
            five_cluster_dataset.points, np.random.default_rng(1)
        )
        assert model.n_subspaces >= baseline.n_subspaces


def _model_bytes(model):
    """Every field of a fitted model except the wall-clock fit time."""
    parts = []
    for s in model.subspaces:
        parts += [
            s.member_ids, s.mean, s.basis, s.covariance, s.projections,
            np.array([s.subspace_id, s.discovered_at_dim]),
            np.array([s.mpe, s.ellipticity]),
        ]
    parts += [model.outliers.member_ids, model.outliers.points]
    stats = model.stats
    return [p.tobytes() for p in parts] + [
        stats.levels_used,
        stats.clustering_inner_iterations,
        stats.clustering_outer_iterations,
        stats.distance_computations,
    ]


class TestBuildReuse:
    def test_no_group_is_fitted_twice(self, five_cluster_dataset, monkeypatch):
        """A child level reuses the PCA its parent fitted on the same rows,
        so no member-id sequence reaches ``fit_pca`` twice, and the model
        is the one an unwrapped fit builds.

        A merge may rebuild a set that an earlier level fitted, but it
        lists the rows in another order, which is another computation
        (the PCA's bits depend on the row order), so sequences, not sets,
        are compared.
        """
        import repro.core.mmdr as mmdr_module

        points = five_cluster_dataset.points
        row_id = {row.tobytes(): i for i, row in enumerate(points)}
        assert len(row_id) == points.shape[0]
        unwrapped = MMDR().fit(points, np.random.default_rng(3))

        fitted = []
        real_fit_pca = mmdr_module.fit_pca

        def recording_fit_pca(data):
            fitted.append(tuple(row_id[row.tobytes()] for row in data))
            return real_fit_pca(data)

        monkeypatch.setattr(mmdr_module, "fit_pca", recording_fit_pca)
        model = MMDR().fit(points, np.random.default_rng(3))

        assert max(model.stats.levels_used) > 1  # the recursion ran
        assert len(fitted) == len(set(fitted))
        assert _model_bytes(model) == _model_bytes(unwrapped)
