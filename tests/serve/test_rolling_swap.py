"""Rolling generational swap across shard workers.

The bench's served leg drives the swap under sustained open-loop load;
these tests pin the mechanism deterministically: route-around of a
draining shard, plan compatibility validation, and post-swap answers
fingerprint-identical to a fresh single-node build of the new generation.
"""

import numpy as np
import pytest

from repro.bench.fingerprint import result_fingerprint
from repro.index import INDEX_SCHEMES
from repro.reduction import MMDRReducer
from repro.serve import ShardPlanner, Supervisor
from repro.serve.planner import mode_for_scheme
from repro.serve.router import canonicalize_rows

from .conftest import fork_only


@pytest.fixture(scope="module")
def next_generation(serve_points):
    """The post-ingest dataset and its re-fit reduction: the base points
    plus a shifted cluster, re-clustered from scratch."""
    rng = np.random.default_rng(21)
    extra = rng.normal(2.0, 0.3, (80, serve_points.shape[1]))
    points = np.concatenate([serve_points, extra])
    return points, MMDRReducer().reduce(points, np.random.default_rng(1))


def _fingerprint(ids, distances):
    return result_fingerprint(*canonicalize_rows(ids, distances))


@fork_only
class TestRollingSwap:
    def test_swap_serves_the_new_generation_exactly(
        self, serve_cluster, next_generation, serve_queries, tmp_path
    ):
        points, new_reduced = next_generation
        scheme = "SeqScan"
        router = serve_cluster(scheme=scheme, n_shards=3)
        before = router.knn(serve_queries, 5)
        assert not before.partial

        new_plan = ShardPlanner(3, mode_for_scheme(scheme)).plan(new_reduced)
        report = router.rolling_swap(new_plan, tmp_path / "gen1")
        assert report.shards_swapped == tuple(router.supervisor.shard_ids)
        assert router.supervisor.plan is new_plan

        after = router.knn(serve_queries, 5)
        assert not after.partial
        reference = INDEX_SCHEMES[scheme](new_reduced).knn_batch(
            serve_queries, 5
        )
        assert _fingerprint(after.ids, after.distances) == _fingerprint(
            reference.ids, reference.distances
        )
        # The swap changed the answers (new points are in range), so the
        # equality above is not vacuous.
        assert _fingerprint(after.ids, after.distances) != _fingerprint(
            before.ids, before.distances
        )

    def test_draining_shard_is_routed_around(
        self, serve_cluster, serve_queries
    ):
        router = serve_cluster(scheme="SeqScan", n_shards=3)
        router._draining.add(1)
        try:
            result = router.knn(serve_queries, 5)
        finally:
            router._draining.clear()
        assert result.partial
        assert result.missing_shards == (1,)
        assert result.shards_answered == 2
        healed = router.knn(serve_queries, 5)
        assert not healed.partial

    def test_incompatible_plan_is_rejected_before_any_worker_dies(
        self, serve_cluster, next_generation, tmp_path
    ):
        _, new_reduced = next_generation
        router = serve_cluster(scheme="SeqScan", n_shards=3)
        bad_plan = ShardPlanner(2, "hash").plan(new_reduced)
        with pytest.raises(ValueError, match="shard ids"):
            router.rolling_swap(bad_plan, tmp_path / "bad")
        # Nothing drained, nothing respawned: the cluster still answers.
        result = router.knn(np.zeros((1, new_reduced.dimensionality)), 3)
        assert not result.partial

    def test_swap_is_per_shard_spawn_counted(
        self, serve_cluster, next_generation, tmp_path
    ):
        _, new_reduced = next_generation
        router = serve_cluster(scheme="SeqScan", n_shards=2)
        supervisor: Supervisor = router.supervisor
        spawns_before = dict(supervisor.spawn_counts)
        new_plan = ShardPlanner(2, "hash").plan(new_reduced)
        router.rolling_swap(new_plan, tmp_path / "gen1")
        for sid in supervisor.shard_ids:
            assert supervisor.spawn_counts[sid] == spawns_before[sid] + 1
        assert (
            router.metrics.counter("serve.generation_swaps").value
            == len(supervisor.shard_ids)
        )
