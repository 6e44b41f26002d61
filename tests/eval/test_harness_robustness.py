"""Self-healing parallel execution: kills, hangs, and the degradation ladder.

A killed fork poisons its whole ``ProcessPoolExecutor``; a hung worker
outlives its timeout.  ``run_workload(..., workers=N)`` must survive both:
retry the failed chunks once on a fresh pool, then degrade to in-process
sequential execution — and on every rung return exactly the answers and
per-query accounting of an undisturbed run.

Sabotage only ever fires in forked children (``os.getpid()`` differs from
the pid recorded at construction), so the in-process fallback always
succeeds — mirroring real crashes, which kill workers, not the coordinator.
"""

import concurrent.futures
import concurrent.futures.process
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.workload import sample_queries
from repro.eval.harness import run_query_batch, run_workload
from repro.index.seqscan import SequentialScan
from repro.obs.tracer import Tracer
from repro.reduction.mmdr_adapter import model_to_reduced

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sabotage requires fork workers (COW state, killable pids)",
)


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(two_cluster_dataset.points, np.random.default_rng(5))
    return model_to_reduced(model)


@pytest.fixture(scope="module")
def workload(two_cluster_dataset):
    return sample_queries(
        two_cluster_dataset.points,
        12,
        np.random.default_rng(9),
        k=6,
        method="perturbed",
    )


class SabotagedIndex:
    """Delegating wrapper whose ``knn_batch`` misbehaves in fork children.

    ``kill_once`` dies until ``flag_path`` exists (created just before the
    first kill, so the retry round succeeds); ``kill_always`` dies in every
    child; ``hang`` sleeps far past any test timeout.
    """

    def __init__(self, inner, mode, flag_path=None):
        self.inner = inner
        self.mode = mode
        self.flag_path = flag_path
        self.parent_pid = os.getpid()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __deepcopy__(self, memo):  # thread fallback clones per chunk
        import copy

        clone = SabotagedIndex(
            copy.deepcopy(self.inner, memo), self.mode, self.flag_path
        )
        clone.parent_pid = self.parent_pid
        return clone

    def knn_batch(self, queries, k, **kwargs):
        self._sabotage()
        return self.inner.knn_batch(queries, k, **kwargs)

    def _sabotage(self):
        if os.getpid() == self.parent_pid:
            return  # the coordinator itself never crashes
        if self.mode == "kill_once" and not self.flag_path.exists():
            self.flag_path.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.mode == "kill_always":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.mode == "hang":
            time.sleep(600)


class _BreaksAfterOneSubmit(concurrent.futures.ProcessPoolExecutor):
    """A pool whose worker dies before the second chunk is queued: every
    submit after the first finds the pool already broken."""

    def submit(self, fn, /, *args, **kwargs):
        if getattr(self, "_submitted", False):
            raise concurrent.futures.process.BrokenProcessPool("worker died")
        self._submitted = True
        return super().submit(fn, *args, **kwargs)


def reference(index, workload):
    res = index.knn_batch(workload.queries, workload.k)
    return res.ids, res.distances, list(res.stats)


def assert_complete_and_identical(ref, got):
    ids, distances, stats = got
    assert np.array_equal(ref[0], ids)
    assert np.array_equal(ref[1], distances)
    assert len(stats) == len(ref[2])
    for a, b in zip(ref[2], stats):
        assert a.page_reads == b.page_reads
        assert a.distance_computations == b.distance_computations


@fork_only
class TestDegradationLadder:
    def test_killed_worker_recovers_on_retry(
        self, reduced, workload, tmp_path
    ):
        ref = reference(SequentialScan(reduced), workload)
        index = SabotagedIndex(
            SequentialScan(reduced), "kill_once", tmp_path / "killed"
        )
        tracer = Tracer()
        got = run_workload(index, workload, workers=2, tracer=tracer)
        assert_complete_and_identical(ref, got)
        counters = tracer.metrics.counters
        assert counters["harness.worker_failures"].value > 0
        assert counters["harness.chunk_retries"].value > 0
        assert "harness.degraded_chunks" not in counters

    def test_persistent_kills_degrade_to_in_process(
        self, reduced, workload
    ):
        ref = reference(SequentialScan(reduced), workload)
        index = SabotagedIndex(SequentialScan(reduced), "kill_always")
        tracer = Tracer()
        got = run_workload(index, workload, workers=2, tracer=tracer)
        assert_complete_and_identical(ref, got)
        counters = tracer.metrics.counters
        assert counters["harness.worker_failures"].value > 0
        assert counters["harness.chunk_retries"].value > 0
        assert counters["harness.degraded_chunks"].value == 2

    def test_hung_worker_times_out_and_degrades(self, reduced, workload):
        ref = reference(SequentialScan(reduced), workload)
        index = SabotagedIndex(SequentialScan(reduced), "hang")
        tracer = Tracer()
        start = time.perf_counter()
        got = run_workload(
            index, workload, workers=2, tracer=tracer,
            worker_timeout_s=1.0,
        )
        elapsed = time.perf_counter() - start
        assert_complete_and_identical(ref, got)
        assert elapsed < 60  # two 1 s rounds + fallback, not a 600 s hang
        assert tracer.metrics.counters[
            "harness.degraded_chunks"
        ].value == 2

    def test_pool_broken_between_submits_retries_the_chunk(
        self, reduced, workload, monkeypatch
    ):
        ref = reference(SequentialScan(reduced), workload)
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _BreaksAfterOneSubmit
        )
        tracer = Tracer()
        got = run_workload(
            SequentialScan(reduced), workload, workers=2, tracer=tracer
        )
        assert_complete_and_identical(ref, got)
        counters = tracer.metrics.counters
        assert counters["harness.worker_failures"].value == 1
        assert counters["harness.chunk_retries"].value == 1
        assert "harness.degraded_chunks" not in counters

    def test_run_query_batch_survives_kills(self, reduced, workload):
        clean_cost = run_query_batch(
            SequentialScan(reduced), workload, workers=2, use_batch=True
        )
        index = SabotagedIndex(SequentialScan(reduced), "kill_always")
        cost = run_query_batch(index, workload, workers=2, use_batch=True)
        assert cost.mean_page_reads == clean_cost.mean_page_reads
        assert cost.n_queries == clean_cost.n_queries


class TestHealthyPathUnchanged:
    def test_no_failures_records_no_ladder_metrics(self, reduced, workload):
        tracer = Tracer()
        ref = reference(SequentialScan(reduced), workload)
        got = run_workload(
            SequentialScan(reduced), workload, workers=2, tracer=tracer,
            worker_timeout_s=120.0,
        )
        assert_complete_and_identical(ref, got)
        counters = tracer.metrics.counters
        assert "harness.worker_failures" not in counters
        assert "harness.chunk_retries" not in counters
        assert "harness.degraded_chunks" not in counters
