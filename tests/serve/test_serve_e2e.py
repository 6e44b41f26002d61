"""End-to-end sharded serving: exact merges and every ladder rung.

Each rung of the router's degrade ladder (retry, respawn, route-around,
shed) is driven by a deterministic
:class:`~repro.serve.faults.WorkerFaultSpec` — the fault fires on a known
request ordinal in a known process, so every test asserts the *specific*
rung it provoked via the ``serve.*`` metrics, not just "it survived".
"""

import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.index import INDEX_SCHEMES
from repro.index.base import InvalidQueryError, QueryStats
from repro.linalg.kernels import normalize_rows
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.tracer import Tracer
from repro.reduction import MMDRReducer
from repro.serve import (
    NoShardsAvailableError,
    OverloadError,
    Router,
    RouterConfig,
    ShardPlanner,
    Supervisor,
    WorkerFaultSpec,
)
from repro.serve.router import canonicalize_rows
from repro.storage.faults import FaultPlan

from .conftest import fork_only

pytestmark = fork_only


@pytest.fixture(scope="module")
def baselines(serve_reduced, serve_queries):
    """Canonicalized single-node answers per scheme."""
    out = {}
    for scheme, build in INDEX_SCHEMES.items():
        index = build(serve_reduced)
        batch = index.knn_batch(serve_queries, 5)
        out[scheme] = canonicalize_rows(batch.ids, batch.distances)
    return out


def assert_exact(result, baseline):
    ids, distances = baseline
    np.testing.assert_array_equal(result.ids, ids)
    np.testing.assert_array_equal(result.distances, distances)


@pytest.mark.serve_smoke
@pytest.mark.parametrize("scheme", sorted(INDEX_SCHEMES))
def test_merged_answers_equal_single_node(
    serve_cluster, serve_queries, baselines, scheme
):
    router = serve_cluster(scheme=scheme, n_shards=2)
    result = router.knn(serve_queries, 5)
    assert not result.partial
    assert result.shards_answered == 2
    assert_exact(result, baselines[scheme])
    # Per-query stats carry the summed shard work.
    assert sum(s.distance_computations for s in result.stats) > 0


def test_mmap_backed_shards_serve_identically(
    serve_cluster, serve_queries, baselines
):
    heaps = Path(tempfile.gettempdir())
    before = set(heaps.glob("repro_mmap_*.pages"))
    router = serve_cluster(scheme="iMMDR", n_shards=2, store="mmap")
    result = router.knn(serve_queries, 5)
    assert not result.partial
    assert_exact(result, baselines["iMMDR"])
    router.close()
    # Each worker closes its store before exiting: no heap file is left.
    assert set(heaps.glob("repro_mmap_*.pages")) <= before


def test_three_shards_hash_mode(serve_cluster, serve_queries, baselines):
    router = serve_cluster(scheme="gLDR", n_shards=3, mode="hash")
    result = router.knn(serve_queries, 5)
    assert not result.partial
    assert_exact(result, baselines["gLDR"])


# -- ladder rungs --------------------------------------------------------


@pytest.mark.serve_smoke
def test_crash_respawn_recovers_exact_answer(
    serve_cluster, serve_queries, baselines
):
    """Rung: respawn.  SIGKILL on the first request -> EOF -> the
    supervisor respawns from checkpoint + WAL -> the retry answers, and
    the merged result is still exact (recovery, not degradation)."""
    router = serve_cluster(
        fault_specs={0: WorkerFaultSpec(kill_on_request=1)}
    )
    result = router.knn(serve_queries, 5)
    assert not result.partial
    assert_exact(result, baselines["SeqScan"])
    assert router.metrics.counter("serve.respawns").value >= 1
    assert router.metrics.counter("serve.connection_lost").value >= 1
    assert router.supervisor.spawn_counts[0] == 2


def test_dropped_reply_retried_after_deadline(
    serve_cluster, serve_queries, baselines
):
    """Rung: deadline + retry.  The worker swallows reply #1, so the
    attempt times out against a healthy worker; the retry (request #2 to
    the same process) answers exactly, with no respawn."""
    router = serve_cluster(
        fault_specs={0: WorkerFaultSpec(drop_on_request=1)},
        config=RouterConfig(deadline_s=0.3, max_attempts=3),
    )
    result = router.knn(serve_queries, 5)
    assert not result.partial
    assert_exact(result, baselines["SeqScan"])
    assert router.metrics.counter("serve.timeouts").value == 1
    assert router.metrics.counter("serve.retries").value == 1
    assert router.supervisor.spawn_counts[0] == 1


def test_garbled_frame_retried_on_aligned_stream(
    serve_cluster, serve_queries, baselines
):
    """Rung: retry.  A CRC-failing reply is dropped, the stream stays in
    sync, and the bounded retry gets a clean answer."""
    router = serve_cluster(
        fault_specs={1: WorkerFaultSpec(garble_on_request=1)}
    )
    result = router.knn(serve_queries, 5)
    assert not result.partial
    assert_exact(result, baselines["SeqScan"])
    assert router.metrics.counter("serve.garbled_frames").value >= 1
    assert router.metrics.counter("serve.retries").value >= 1
    # Garbling is retriable on the same process: no respawn happened.
    assert router.supervisor.spawn_counts[1] == 1


def test_timeout_retry_without_respawn(
    serve_cluster, serve_queries, baselines
):
    """Rung: deadline + retry.  One hang longer than the deadline times
    the attempt out; the worker is alive, so the first recourse is a
    plain retry on the same connection.  The hung attempt's late reply
    arrives first and is drained as stale by its request id, never
    served; the retry's own reply answers, and so does the next call."""
    router = serve_cluster(
        fault_specs={
            0: WorkerFaultSpec(hang_on_request=1, hang_s=0.7)
        },
        config=RouterConfig(deadline_s=0.5, max_attempts=3),
    )
    result = router.knn(serve_queries, 5)
    assert not result.partial
    assert_exact(result, baselines["SeqScan"])
    assert router.metrics.counter("serve.timeouts").value == 1
    assert router.metrics.counter("serve.retries").value == 1
    assert router.metrics.counter("serve.stale_responses").value >= 1
    assert router.supervisor.spawn_counts[0] == 1
    assert_exact(router.knn(serve_queries, 5), baselines["SeqScan"])


@pytest.mark.serve_smoke
def test_persistent_crash_routes_around_with_partial(
    serve_cluster, serve_queries
):
    """Rung: route-around.  A shard whose every incarnation dies on its
    first request exhausts the ladder; the router answers from the
    remaining shards and says so."""
    router = serve_cluster(
        n_shards=3,
        fault_specs={
            0: WorkerFaultSpec(kill_on_request=1, persistent=True)
        },
        config=RouterConfig(deadline_s=5.0, max_attempts=2),
    )
    result = router.knn(serve_queries, 5)
    assert result.partial
    assert result.missing_shards == (0,)
    assert result.shards_answered == 2
    assert router.metrics.counter("serve.partial_results").value == 1
    # The partial answer is exact over the shards that answered: every
    # returned id belongs to shards 1 and 2.
    surviving = np.concatenate(
        [
            a.rid_map
            for a in router.supervisor.plan.shards
            if a.shard_id != 0
        ]
    )
    assert np.isin(result.ids.ravel(), surviving).all()


def test_breaker_opens_then_recovers_after_cooldown(
    serve_cluster, serve_queries, baselines
):
    """Failures trip the breaker OPEN (instant route-around, no ladder
    cost); after the cooldown a half-open probe closes it again and the
    shard rejoins the merge."""
    router = serve_cluster(
        n_shards=3,
        fault_specs={
            0: WorkerFaultSpec(kill_on_request=1, persistent=True)
        },
        config=RouterConfig(
            deadline_s=5.0,
            max_attempts=3,
            breaker_failure_threshold=3,
            breaker_cooldown_s=0.2,
        ),
    )
    first = router.knn(serve_queries, 5)
    assert first.partial
    opened = router.metrics.counter("serve.breaker.open").value
    assert opened >= 1
    # While OPEN, the shard is skipped without touching the worker.
    second = router.knn(serve_queries, 5)
    assert second.partial
    assert router.metrics.counter("serve.breaker_rejected").value >= 1
    # Disarm the fault, wait out the cooldown: the half-open probe's
    # success closes the breaker and the shard answers again.
    router.supervisor._fault_specs.clear()
    router.supervisor.respawn(0)
    import time

    time.sleep(0.25)
    third = router.knn(serve_queries, 5)
    assert not third.partial
    assert_exact(third, baselines["SeqScan"])
    assert router.metrics.counter("serve.breaker.closed").value >= 1


def test_admission_control_sheds_typed(serve_cluster, serve_queries):
    """Rung: shed.  Beyond max_inflight the call fails fast with a typed
    OverloadError instead of queueing without bound."""
    router = serve_cluster(
        config=RouterConfig(deadline_s=10.0, max_inflight=1)
    )
    big = np.repeat(serve_queries, 50, axis=0)
    shed = []
    answered = []

    def call():
        try:
            answered.append(router.knn(big, 5))
        except OverloadError:
            shed.append(1)

    threads = [threading.Thread(target=call) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(shed) >= 1
    assert len(answered) >= 1
    assert router.metrics.counter("serve.shed").value == len(shed)
    # Capacity is restored once in-flight work drains.
    assert not router.knn(serve_queries, 5).partial


def test_all_shards_down_raises_no_shards(serve_cluster, serve_queries):
    router = serve_cluster(
        n_shards=2,
        fault_specs={
            0: WorkerFaultSpec(kill_on_request=1, persistent=True),
            1: WorkerFaultSpec(kill_on_request=1, persistent=True),
        },
        config=RouterConfig(deadline_s=5.0, max_attempts=1),
    )
    with pytest.raises(NoShardsAvailableError):
        router.knn(serve_queries, 5)


# -- storage faults compose with serving ---------------------------------


def test_transient_storage_faults_leave_results_exact(
    serve_cluster, serve_queries, baselines
):
    """A shard running over a seeded transient-only FaultPlan retries
    inside its own storage stack; the served answer stays bit-exact."""
    router = serve_cluster(
        fault_specs={
            0: WorkerFaultSpec(
                storage_plan=FaultPlan(seed=11, transient_read_prob=0.05)
            )
        }
    )
    result = router.knn(serve_queries, 5)
    assert not result.partial
    assert_exact(result, baselines["SeqScan"])


# -- invalid queries (satellite: skip-and-report through the router) ----


@pytest.mark.serve_smoke
def test_invalid_query_skip_and_report(
    serve_cluster, serve_queries, baselines
):
    """A NaN row in a scattered batch is reported exactly once, answered
    rows match single-node, and no shard saw the bad row — nothing
    crashed, no breaker moved."""
    router = serve_cluster(n_shards=3)
    queries = serve_queries.copy()
    queries[2, 0] = np.nan
    queries[5, 1] = np.inf
    result = router.knn(queries, 5)
    assert result.invalid_queries == (2, 5)
    assert not result.partial
    ids, distances = baselines["SeqScan"]
    valid = [i for i in range(len(queries)) if i not in (2, 5)]
    np.testing.assert_array_equal(result.ids[valid], ids[valid])
    assert (result.ids[2] == -1).all() and (result.ids[5] == -1).all()
    assert np.isnan(result.distances[2]).all()
    assert result.stats[2].page_reads == 0
    # No shard was harmed: all workers on their first spawn, breakers
    # closed, zero failures recorded.
    health = router.check_health()
    assert all(entry["breaker"] == "closed" for entry in health.values())
    assert all(entry["responsive"] for entry in health.values())
    assert all(
        count == 1 for count in router.supervisor.spawn_counts.values()
    )


def test_cosine_zero_row_reported_like_single_node(
    serve_points, serve_queries, tmp_path
):
    """Under cosine a zero row has no direction: the router skips and
    reports it exactly as single-node ``knn_batch`` does."""
    reduced = MMDRReducer().reduce(
        normalize_rows(serve_points), np.random.default_rng(1)
    )
    reduced.metric = "cosine"
    queries = serve_queries.copy()
    queries[3] = 0.0
    single = INDEX_SCHEMES["SeqScan"](reduced).knn_batch(queries, 5)
    plan = ShardPlanner(2, "hash").plan(reduced)
    router = Router(
        Supervisor(plan, "SeqScan", tmp_path), RouterConfig(deadline_s=10.0)
    )
    try:
        router.supervisor.start()
        result = router.knn(queries, 5)
    finally:
        router.close()
    assert result.invalid_queries == single.invalid_queries == (3,)
    assert not result.partial
    np.testing.assert_array_equal(result.ids[3], single.ids[3])
    np.testing.assert_array_equal(result.distances[3], single.distances[3])
    assert (result.ids[3] == -1).all()
    assert np.isnan(result.distances[3]).all()
    assert result.stats[3] == single.stats[3] == QueryStats(0, 0, 0, 0, 0.0)
    ids, distances = canonicalize_rows(single.ids, single.distances)
    valid = [i for i in range(len(queries)) if i != 3]
    np.testing.assert_array_equal(result.ids[valid], ids[valid])
    np.testing.assert_array_equal(result.distances[valid], distances[valid])


@pytest.mark.perf_smoke
def test_all_invalid_block_keeps_width(serve_cluster, serve_queries):
    """A block with no valid row is as wide as an answered one:
    ``min(k, n_points)`` columns of -1 ids and NaN distances."""
    router = serve_cluster(n_shards=2)
    queries = np.full((3, serve_queries.shape[1]), np.nan)
    result = router.knn(queries, 5)
    width = min(5, router.supervisor.plan.n_points)
    assert result.ids.shape == result.distances.shape == (3, width)
    assert result.invalid_queries == (0, 1, 2)
    assert (result.ids == -1).all() and np.isnan(result.distances).all()
    assert result.ids.shape[1] == router.knn(serve_queries, 5).ids.shape[1]


def test_dimension_mismatch_raises_structurally(serve_cluster):
    router = serve_cluster()
    with pytest.raises(InvalidQueryError, match="dimensions"):
        router.knn(np.zeros((2, 3)), 5)


# -- health + observability ---------------------------------------------


def test_check_health_reports_and_heals(serve_cluster, serve_queries):
    router = serve_cluster(n_shards=2)
    health = router.check_health()
    assert set(health) == {0, 1}
    assert all(entry["responsive"] for entry in health.values())
    assert all(
        entry["live_count"] > 0 for entry in health.values()
    )
    # Kill a worker behind the router's back: the heartbeat notices and
    # respawns it.
    router.supervisor.handle(0).process.kill()
    router.supervisor.handle(0).process.join(timeout=5.0)
    health = router.check_health()
    assert router.supervisor.spawn_counts[0] == 2
    assert not router.knn(serve_queries, 5).partial


@pytest.mark.obs_smoke
def test_trace_stitching_across_workers(serve_cluster, serve_queries):
    router = serve_cluster(n_shards=2)
    tracer = Tracer()
    result = router.knn(serve_queries, 5, tracer=tracer)
    assert not result.partial
    # One event log: indices are positions, and every parent link
    # resolves to an earlier span exactly one level up.
    spans = tracer.spans
    assert [s.index for s in spans] == list(range(len(spans)))
    for span in spans:
        if span.parent != -1:
            parent = spans[span.parent]
            assert parent.index < span.index
            assert span.depth == parent.depth + 1
    scatter = [s for s in spans if s.name == "serve.scatter"]
    assert len(scatter) == 1
    adopted = [
        s
        for s in spans
        if s.parent == scatter[0].index
        and s.attributes.get("worker") is not None
    ]
    assert sorted(s.attributes["worker"] for s in adopted) == [0, 1]
    # Worker-side batch spans arrived under the scatter span, each with
    # its cost delta intact.
    batches = [s for s in spans if s.name == "knn.batch"]
    assert len(batches) == 2
    assert all(s.cost is not None for s in batches)
    # Worker metrics merged into the parent registry.
    names = {r["name"] for r in tracer.metrics.as_records()}
    assert "knn.batch_qps" in names
    # The stitched file stands alone as one trace.
    out_dir = Path("benchmarks") / "out" / "obs"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"stitched_{os.getpid()}.jsonl"
    try:
        assert write_jsonl(path, tracer) > 0
        records = read_jsonl(path)
    finally:
        path.unlink(missing_ok=True)
    assert records["other"] == [{"type": "trace", "id": tracer.trace_id}]
    assert [
        (r["name"], r["index"], r["parent"], r["depth"])
        for r in records["spans"]
    ] == [(s.name, s.index, s.parent, s.depth) for s in spans]
    assert records["metrics"] == tracer.metrics.as_records()
