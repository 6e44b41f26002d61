"""Rolling generational swap across shard workers.

The bench's served leg drives the swap under sustained open-loop load;
these tests pin the mechanism deterministically: route-around of a
draining shard, plan compatibility validation, post-swap answers
fingerprint-identical to a fresh single-node build of the new generation,
and — for the two interleavings in which a request could meet shards of
both generations — a partial answer instead of a blended one.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.bench.fingerprint import batch_fingerprint
from repro.index import INDEX_SCHEMES
from repro.reduction import MMDRReducer
from repro.serve import ShardPlanner, Supervisor
from repro.serve.planner import mode_for_scheme

from .conftest import fork_only


@pytest.fixture(scope="module")
def next_generation(serve_points):
    """The post-ingest dataset and its re-fit reduction: the base points
    plus a shifted cluster, re-clustered from scratch."""
    rng = np.random.default_rng(21)
    extra = rng.normal(2.0, 0.3, (80, serve_points.shape[1]))
    points = np.concatenate([serve_points, extra])
    return points, MMDRReducer().reduce(points, np.random.default_rng(1))


def _fp(result):
    return batch_fingerprint(result.ids, result.distances)


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
        assert _fp(after) == _fp(reference)
        # The swap changed the answers (new points are in range), so the
        # equality above is not vacuous.
        assert _fp(after) != _fp(before)

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


@fork_only
class TestMidRollRequestsNeverBlend:
    """A non-partial answer must come from one generation (DESIGN §15).
    Each test forces one interleaving that used to merge an old-generation
    shard with a new-generation one into a non-partial answer."""

    @pytest.fixture
    def swap(self, serve_cluster, next_generation, serve_queries, tmp_path):
        _, new_reduced = next_generation
        router = serve_cluster(scheme="SeqScan", n_shards=3)
        old_fp = _fp(router.knn(serve_queries, 5))
        new_plan = ShardPlanner(3, mode_for_scheme("SeqScan")).plan(
            new_reduced
        )
        reference = INDEX_SCHEMES["SeqScan"](new_reduced)
        new_fp = _fp(reference.knn_batch(serve_queries, 5))
        assert old_fp != new_fp
        return router, new_plan, tmp_path / "gen1", old_fp, new_fp

    def test_shard_swapped_while_the_request_waits_for_it(
        self, swap, serve_queries
    ):
        router, new_plan, new_root, old_fp, new_fp = swap
        original = router._shard_call
        waiting, release = threading.Event(), threading.Event()
        answered = []

        def shard_0_arrives_late(sid, *args):
            if sid == 0:
                waiting.set()
                release.wait(60)
            reply = original(sid, *args)
            answered.append(sid)
            return reply

        router._shard_call = shard_0_arrives_late
        results = []
        request = threading.Thread(
            target=lambda: results.append(router.knn(serve_queries, 5))
        )
        request.start()
        try:
            # The request planned on the old generation and shards 1 and 2
            # answered from it; shard 0 has not reached its channel yet.
            assert waiting.wait(60)
            deadline = time.monotonic() + 60
            while sorted(answered) != [1, 2]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            router.rolling_swap(new_plan, new_root)
        finally:
            release.set()
            request.join(60)
            router._shard_call = original
        (result,) = results
        assert result.partial or _fp(result) in (old_fp, new_fp)
        assert result.missing_shards == (0,)
        assert _fp(router.knn(serve_queries, 5)) == new_fp

    def test_request_between_two_shard_swaps(self, swap, serve_queries):
        router, new_plan, new_root, old_fp, new_fp = swap
        breaker = router._channels[0].breaker
        original = breaker.record_success
        results = []

        def request_once_shard_0_is_undrained():
            # rolling_swap calls this right after undraining shard 0 and
            # before draining shard 1: no shard is draining, shard 0 is on
            # the new generation, shards 1 and 2 on the old one.  The
            # request's own shard calls land here too, so restore first.
            breaker.record_success = original
            results.append(router.knn(serve_queries, 5))
            original()

        breaker.record_success = request_once_shard_0_is_undrained
        try:
            router.rolling_swap(new_plan, new_root)
        finally:
            breaker.record_success = original
        (result,) = results
        assert result.partial or _fp(result) in (old_fp, new_fp)
        assert result.missing_shards == (0,)
        assert _fp(router.knn(serve_queries, 5)) == new_fp

    def test_concurrent_requests_during_a_roll(self, swap, serve_queries):
        router, new_plan, new_root, old_fp, new_fp = swap
        stop = threading.Event()
        answers, blends, errors = [], [], []

        def client():
            while not stop.is_set():
                try:
                    result = router.knn(serve_queries, 5)
                except Exception as exc:  # asserted on below
                    errors.append(exc)
                    return
                answers.append(result)
                if not result.partial and _fp(result) not in (
                    old_fp,
                    new_fp,
                ):
                    blends.append(result.missing_shards)

        # More clients than cores, and frequent thread switches, so the
        # roll interleaves with requests at many points.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        clients = [threading.Thread(target=client) for _ in range(4)]
        try:
            for thread in clients:
                thread.start()
            router.rolling_swap(new_plan, new_root)
        finally:
            stop.set()
            for thread in clients:
                thread.join(60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert not errors
        assert answers
        assert not blends
