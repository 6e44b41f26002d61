"""Fault injection, checksums, retries, and typed page errors (DESIGN.md §9)."""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index.idistance import ExtendedIDistance
from repro.reduction.mmdr_adapter import MMDRReducer
from repro.storage.buffer import BufferPool
from repro.storage.faults import (
    FaultPlan,
    FaultyPageStore,
    RetryPolicy,
    corrupt_page,
)
from repro.storage.pager import (
    Page,
    PageCorruptionError,
    PageNotFoundError,
    PageStore,
    TransientPageError,
    page_checksum,
    verify_page,
)


def seeded_store(store_factory=PageStore, n_pages=8):
    store = store_factory()
    ids = [store.allocate({"n": i}, 64) for i in range(n_pages)]
    return store, ids


class TestChecksums:
    def test_allocate_stamps_checksum(self, make_store):
        store, ids = seeded_store(make_store)
        page = store.fetch(ids[0])
        assert page.checksum == page_checksum(page.payload)

    def test_overwrite_restamps_checksum(self, make_store):
        store, ids = seeded_store(make_store)
        store.overwrite(ids[0], {"n": 999}, 64)
        page = store.fetch(ids[0])
        assert page.payload == {"n": 999}
        verify_page(page)  # restamped: must pass

    def test_verify_detects_mismatch(self, make_store):
        store, ids = seeded_store(make_store)
        corrupt_page(store, ids[0])
        with pytest.raises(PageCorruptionError):
            verify_page(store.fetch(ids[0]))

    def test_verify_skips_unstamped_pages(self):
        verify_page(Page(0, {"hand": "built"}, 16))  # checksum=None: no raise

    def test_corrupt_page_flips_one_bit(self, make_store):
        store, ids = seeded_store(make_store)
        original = store.fetch(ids[0]).checksum
        corrupt_page(store, ids[0], bit=3)
        assert store.fetch(ids[0]).checksum == original ^ (1 << 3)
        corrupt_page(store, ids[0], bit=3)
        verify_page(store.fetch(ids[0]))  # double flip restores


class TestTypedPageErrors:
    def test_fetch_unknown_page(self):
        store, _ = seeded_store()
        with pytest.raises(PageNotFoundError):
            store.fetch(999)

    def test_overwrite_unknown_page(self):
        store, _ = seeded_store()
        with pytest.raises(PageNotFoundError):
            store.overwrite(999, {}, 0)

    def test_free_unknown_page(self):
        store, _ = seeded_store()
        with pytest.raises(PageNotFoundError):
            store.free(999)

    def test_page_not_found_is_key_error(self):
        # Pre-existing callers catch bare KeyError; the subclass keeps them
        # working.
        store, _ = seeded_store()
        with pytest.raises(KeyError):
            store.fetch(999)

    def test_free_invalidates_registered_pools(self):
        store, ids = seeded_store()
        pool = BufferPool(store, 4)
        pool.read(ids[0])
        assert ids[0] in pool
        store.free(ids[0])
        assert ids[0] not in pool
        with pytest.raises(PageNotFoundError):
            pool.read(ids[0])

    def test_register_pool_deduplicates(self):
        store, _ = seeded_store()
        pool = BufferPool(store, 4)  # __init__ registers
        store.register_pool(pool)
        assert store._pools.count(pool) == 1


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, transient_read_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, transient_repeat=0)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, max_faults=-1)

    def test_transient_only(self):
        assert FaultPlan(seed=0, transient_read_prob=0.5).transient_only
        assert not FaultPlan(seed=0, bit_flip_prob=0.1).transient_only
        assert not FaultPlan(seed=0, torn_write_prob=0.1).transient_only


def faulty_fixture(plan, store_factory=PageStore, n_pages=8):
    store, ids = seeded_store(store_factory, n_pages)
    faulty = FaultyPageStore(store, plan)
    pool = BufferPool(faulty, 4, store.counters)
    return faulty, pool, ids


class TestFaultInjection:
    def test_deterministic_for_same_plan(self):
        plan = FaultPlan(seed=7, transient_read_prob=0.3)

        def run():
            faulty, pool, ids = faulty_fixture(plan)
            outcomes = []
            for page_id in ids * 4:
                try:
                    faulty.fetch(page_id)
                    outcomes.append("ok")
                except TransientPageError:
                    outcomes.append("fault")
            return outcomes

        assert run() == run()
        assert "fault" in run() and "ok" in run()

    def test_max_faults_budget(self, make_store):
        plan = FaultPlan(seed=1, transient_read_prob=1.0, max_faults=2)
        faulty, _, ids = faulty_fixture(plan, make_store)
        failures = 0
        for page_id in ids:
            try:
                faulty.fetch(page_id)
            except TransientPageError:
                failures += 1
        assert failures == 2
        assert faulty.faults_injected == 2

    def test_injection_metrics(self):
        plan = FaultPlan(seed=1, transient_read_prob=1.0, max_faults=3)
        faulty, pool, ids = faulty_fixture(plan)
        for page_id in ids:
            pool.read(page_id)  # retry path absorbs every fault
        counters = faulty.fault_metrics.counters
        assert counters["faults.injected"].value == 3
        assert counters["faults.injected.transient"].value == 3
        assert counters["faults.retried"].value == 3

    def test_transient_fault_recovered_by_retry(self, make_store):
        # repeat=2 < max_attempts=5, budget of 1: the pool must recover.
        plan = FaultPlan(
            seed=3, transient_read_prob=1.0, transient_repeat=2, max_faults=1
        )
        faulty, pool, ids = faulty_fixture(plan, make_store)
        assert pool.read(ids[0]) == {"n": 0}
        assert faulty.fault_metrics.counter("faults.retried").value == 2

    def test_retry_exhaustion_reraises(self):
        # repeat=10 > max_attempts: the fault outlives the retry budget.
        plan = FaultPlan(
            seed=3, transient_read_prob=1.0, transient_repeat=10
        )
        faulty, pool, ids = faulty_fixture(plan)
        with pytest.raises(TransientPageError):
            pool.read(ids[0])
        assert (
            faulty.fault_metrics.counter("faults.retried").value
            == pool.retry.max_attempts - 1
        )

    def test_bit_flip_detected_on_miss(self, make_store):
        plan = FaultPlan(seed=5, bit_flip_prob=1.0, max_faults=1)
        faulty, pool, ids = faulty_fixture(plan, make_store)
        with pytest.raises(PageCorruptionError):
            pool.read(ids[0])
        assert (
            faulty.fault_metrics.counter("faults.injected.bit_flip").value
            == 1
        )

    def test_torn_write_detected_on_next_miss(self, make_store):
        plan = FaultPlan(seed=5, torn_write_prob=1.0, max_faults=1)
        faulty, pool, ids = faulty_fixture(plan, make_store)
        page_id = faulty.allocate({"torn": True}, 32)
        with pytest.raises(PageCorruptionError):
            pool.read(page_id)
        assert (
            faulty.fault_metrics.counter("faults.injected.torn_write").value
            == 1
        )

    def test_raw_fetch_bypasses_faults(self):
        plan = FaultPlan(seed=1, transient_read_prob=1.0)
        faulty, _, ids = faulty_fixture(plan)
        for page_id in ids:  # never raises, never consumes the budget
            assert faulty.raw_fetch(page_id).payload == {
                "n": ids.index(page_id)
            }
        assert faulty.faults_injected == 0

    def test_free_clears_fault_state(self):
        plan = FaultPlan(
            seed=3, transient_read_prob=1.0, transient_repeat=10,
            max_faults=1,
        )
        faulty, _, ids = faulty_fixture(plan)
        with pytest.raises(TransientPageError):
            faulty.fetch(ids[0])
        faulty.free(ids[0])
        with pytest.raises(PageNotFoundError):
            faulty.fetch(ids[0])

    def test_wrapper_delegates_state(self):
        plan = FaultPlan(seed=0)
        faulty, _, ids = faulty_fixture(plan)
        assert len(faulty) == len(ids)
        assert ids[0] in faulty
        assert faulty.allocated_pages == len(ids)
        assert faulty.counters is faulty.inner.counters


    def test_attempt_after_a_repeat_run_reads_clean(self):
        # Every draw faults: each fault fails `repeat` attempts, the next
        # one reads clean, and only then may the page fault again.
        plan = FaultPlan(seed=0, transient_read_prob=1.0, transient_repeat=2)
        faulty, _, ids = faulty_fixture(plan)
        outcomes = []
        for _ in range(6):
            try:
                faulty.fetch(ids[0])
                outcomes.append("ok")
            except TransientPageError:
                outcomes.append("fault")
        assert outcomes == ["fault", "fault", "ok"] * 2

    def test_transient_only_plan_leaves_idistance_answers_unchanged(self):
        """The plan the differential oracle first hit: with faults
        drawn again right after a repeat run, one read could fail five
        times in a row and exhaust the retry budget."""
        spec = SyntheticSpec(
            n_points=300, dimensionality=8, n_clusters=2, retained_dims=3,
            noise_fraction=0.02,
        )
        points = generate_correlated_clusters(
            spec, np.random.default_rng(4)
        ).points
        reduced = MMDRReducer().reduce(points, np.random.default_rng(4))
        clean, faulted = ExtendedIDistance(reduced), ExtendedIDistance(reduced)
        faulty = faulted.enable_faults(
            FaultPlan(seed=4, transient_read_prob=0.4, transient_repeat=2)
        )
        queries = points[::10]
        want = clean.knn_loop(queries, 1)
        got = faulted.knn_loop(queries, 1)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.distances, want.distances)
        assert [s.page_reads for s in got.stats] == [
            s.page_reads for s in want.stats
        ]
        assert faulty.faults_injected > 0


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)

    def test_zero_backoff_does_not_sleep(self):
        RetryPolicy(backoff_s=0.0).sleep(3)  # returns immediately


class TestWrapperPoolForwarding:
    """Regression: a store wrapper must forward ``register_pool`` to the
    inner store (which owns the ``_pools`` list consulted at free time).
    A wrapper that shadowed the registration would leave stale pages
    cached in pools after ``free``."""

    def test_register_pool_reaches_inner_store(self):
        store, _ = seeded_store()
        faulty = FaultyPageStore(store, FaultPlan(seed=1))
        pool = BufferPool(faulty, 4)  # __init__ registers via the wrapper
        assert pool in store._pools

    def test_free_through_wrapper_invalidates_pool(self):
        store, ids = seeded_store()
        faulty = FaultyPageStore(store, FaultPlan(seed=1))
        pool = BufferPool(faulty, 4)
        pool.read(ids[0])
        assert ids[0] in pool
        faulty.free(ids[0])
        assert ids[0] not in pool
        with pytest.raises(PageNotFoundError):
            pool.read(ids[0])

    def test_pool_registered_before_wrapping_still_invalidated(self):
        # enable_faults() wraps a live index whose pool registered with
        # the bare store; frees through the wrapper must still reach it.
        store, ids = seeded_store()
        pool = BufferPool(store, 4)
        faulty = FaultyPageStore(store, FaultPlan(seed=1))
        pool.store = faulty
        pool.read(ids[1])
        faulty.free(ids[1])
        assert ids[1] not in pool
