"""Fault-injection layering, tracing and typed corruption.

The self-healing contract (DESIGN.md §9) — recoverable transient reads
change neither answers nor cold-cache accounting — is checked against
the exact scan by the oracle's fault window (``tests/oracle``).  What
stays here pins something else: a traced faulted run injects and
retries exactly what an untraced one does, enabling and disabling
faults is reversible and refuses to stack over the WAL, and corruption
surfaces as a typed error.
"""

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.workload import sample_queries
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.obs.tracer import Tracer
from repro.reduction.mmdr_adapter import model_to_reduced
from repro.storage.faults import FaultPlan
from repro.storage.pager import PageCorruptionError

# The CI fault-smoke gate, beside the oracle's fault window: corruption
# surfaces as typed errors and the store layers stay reversible (see
# .github/workflows/ci.yml).
pytestmark = pytest.mark.fault_smoke


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(two_cluster_dataset.points, np.random.default_rng(5))
    return model_to_reduced(model)


@pytest.fixture(scope="module")
def workload(two_cluster_dataset):
    return sample_queries(
        two_cluster_dataset.points,
        15,
        np.random.default_rng(9),
        k=10,
        method="perturbed",
    )


SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]

#: High enough that the paged schemes hit dozens of faults per workload,
#: repeat below the retry budget so every one is recoverable.
TRANSIENT_PLAN = FaultPlan(
    seed=42, transient_read_prob=0.1, transient_repeat=2
)


def run_sequential(index, workload):
    res = index.knn_loop(workload.queries, workload.k)
    return res.ids, res.distances, list(res.stats)


def assert_identical(clean, faulty):
    assert np.array_equal(clean[0], faulty[0])
    assert np.array_equal(clean[1], faulty[1])
    for a, b in zip(clean[2], faulty[2]):
        assert a.page_reads == b.page_reads
        assert a.distance_computations == b.distance_computations
        assert a.key_comparisons == b.key_comparisons


class TestTransientFaultEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_overhead_invariant_on_faulted_path(
        self, scheme, reduced, workload
    ):
        """Tracing a faulted run must not change anything the retry path
        produces: same answers, same accounting, same injected/retried
        fault counts as the NULL_TRACER default — the tracer only watches
        the retries, never participates in them."""
        plain_index = scheme(reduced)
        plain_faulty = plain_index.enable_faults(TRANSIENT_PLAN)
        plain = run_sequential(plain_index, workload)

        traced_index = scheme(reduced)
        traced_faulty = traced_index.enable_faults(TRANSIENT_PLAN)
        tracer = Tracer()
        res = traced_index.knn_loop(workload.queries, workload.k, tracer)
        traced = (res.ids, res.distances, list(res.stats))

        assert_identical(plain, traced)
        for a, b in zip(plain[2], traced[2]):
            assert a.distance_flops == b.distance_flops
        assert (
            plain_faulty.faults_injected == traced_faulty.faults_injected
        )
        assert (
            plain_faulty.fault_metrics.counter("faults.retried").value
            == traced_faulty.fault_metrics.counter("faults.retried").value
        )
        # The traced run really did trace: one span per query.
        assert (
            sum(1 for s in tracer.spans if s.name == "knn.query")
            == workload.n_queries
        )

    def test_disable_faults_restores_store(self, reduced, workload):
        index = ExtendedIDistance(reduced)
        inner = index.store
        index.enable_faults(TRANSIENT_PLAN)
        index.disable_faults()
        assert index.store is inner
        assert index.pool.store is inner
        assert index.tree.store is inner
        index.disable_faults()  # idempotent

    def test_double_enable_raises(self, reduced):
        index = ExtendedIDistance(reduced)
        index.enable_faults(TRANSIENT_PLAN)
        with pytest.raises(RuntimeError):
            index.enable_faults(TRANSIENT_PLAN)

    def test_faults_refuse_a_wal_protected_store(self, reduced, tmp_path):
        # Layering faults over the WAL would hide the WAL from
        # ``index.wal`` / ``disable_wal`` while it kept logging underneath.
        index = ExtendedIDistance(reduced)
        wal_store = index.enable_wal(tmp_path / "wal.log")
        try:
            with pytest.raises(RuntimeError, match="already wrapped"):
                index.enable_faults(TRANSIENT_PLAN)
            assert index.store is wal_store
            assert index.wal is wal_store.wal
            assert index.disable_wal() is wal_store
        finally:
            wal_store.wal.close()

    def test_wal_refuses_a_faulty_store(self, reduced, tmp_path):
        index = ExtendedIDistance(reduced)
        faulty = index.enable_faults(TRANSIENT_PLAN)
        with pytest.raises(RuntimeError, match="already wrapped"):
            index.enable_wal(tmp_path / "wal.log")
        assert index.store is faulty

    def test_corruption_surfaces_as_typed_error(self, reduced, workload):
        # A corrupting plan is NOT in the bit-identical regime: the first
        # poisoned miss must raise, never return wrong neighbors.
        plan = FaultPlan(seed=7, bit_flip_prob=0.2)
        assert not plan.transient_only
        index = ExtendedIDistance(reduced)
        index.enable_faults(plan)
        with pytest.raises(PageCorruptionError):
            for query in workload.queries:
                index.reset_cache()
                index.knn(query, workload.k)
