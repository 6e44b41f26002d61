"""WorkloadSpec: serialization hygiene and deterministic builders."""

import numpy as np
import pytest

from repro.bench import DEFAULT_SPECS, WorkloadSpec


TINY = dict(
    name="tiny", n_points=400, dimensionality=8, n_clusters=2,
    retained_dims=3, n_queries=4, k=3,
)


class TestSerialization:
    def test_round_trip(self):
        spec = WorkloadSpec(**TINY)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        data = WorkloadSpec(**TINY).to_dict()
        data["n_pionts"] = 999  # the typo this guard exists for
        with pytest.raises(ValueError, match="unknown WorkloadSpec fields"):
            WorkloadSpec.from_dict(data)

    def test_retired_fields_are_dropped(self):
        """A baseline written while the spec still carried the retired
        fault-leg knobs re-runs as the same workload."""
        spec = WorkloadSpec(**TINY)
        data = dict(spec.to_dict(), fault_seed=7, transient_read_prob=0.05)
        assert WorkloadSpec.from_dict(data) == spec

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            WorkloadSpec(**dict(TINY, scheme="btree"))

    def test_unknown_reducer_rejected(self):
        with pytest.raises(ValueError, match="unknown reducer"):
            WorkloadSpec(**dict(TINY, reducer="pca2"))


class TestBuilders:
    def test_dataset_and_queries_are_seed_deterministic(self):
        spec = WorkloadSpec(**TINY)
        points_a, points_b = spec.build_points(), spec.build_points()
        assert np.array_equal(points_a, points_b)
        wl_a = spec.build_workload(points_a)
        wl_b = spec.build_workload(points_b)
        assert np.array_equal(wl_a.queries, wl_b.queries)
        assert wl_a.k == spec.k

    def test_update_ops_are_seed_deterministic(self):
        spec = WorkloadSpec(**dict(TINY, n_inserts=3, n_deletes=2))
        points = spec.build_points()
        ops_a = spec.build_ops(points, spec.n_points)
        ops_b = spec.build_ops(points, spec.n_points)
        assert len(ops_a) == 5
        assert [op[0] for op in ops_a] == [op[0] for op in ops_b]

    def test_no_updates_means_no_ops(self):
        spec = WorkloadSpec(**dict(TINY, n_inserts=0, n_deletes=0))
        assert not spec.has_updates
        assert spec.build_ops(spec.build_points(), spec.n_points) == []


class TestRegistry:
    def test_default_specs_cover_every_scheme(self):
        assert {spec.scheme for spec in DEFAULT_SPECS.values()} == {
            "iMMDR", "gLDR", "SeqScan",
        }

    def test_names_match_keys(self):
        for name, spec in DEFAULT_SPECS.items():
            assert spec.name == name

    def test_all_default_specs_exercise_updates(self):
        assert all(spec.has_updates for spec in DEFAULT_SPECS.values())
