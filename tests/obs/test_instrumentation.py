"""End-to-end tracing smoke tests over the instrumented components."""

import numpy as np
import pytest

from repro import MMDR, ExtendedIDistance, ScalableMMDR, Tracer
from repro.cluster.elliptical import EllipticalKMeans
from repro.data.workload import sample_queries
from repro.eval.harness import run_query_batch
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.seqscan import SequentialScan
from repro.reduction import model_to_reduced


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(
        two_cluster_dataset.points, np.random.default_rng(5)
    )
    return two_cluster_dataset, model_to_reduced(model)


@pytest.fixture(scope="module")
def workload(two_cluster_dataset):
    return sample_queries(
        two_cluster_dataset.points, 8, np.random.default_rng(9), k=10
    )


def span_names(tracer):
    return [s.name for s in tracer.spans]


class TestQueryBatchTracing:
    def test_one_query_span_per_query(self, reduced, workload):
        _, red = reduced
        index = ExtendedIDistance(red)
        tracer = Tracer()
        run_query_batch(index, workload, tracer=tracer)
        names = span_names(tracer)
        assert names.count("knn.query") == workload.n_queries
        assert "knn.expand_radius" in names
        assert "knn.probe_partition" in names

    def test_expand_radius_spans_carry_page_deltas(self, reduced, workload):
        _, red = reduced
        index = ExtendedIDistance(red)
        tracer = Tracer()
        run_query_batch(index, workload, tracer=tracer)
        expands = [s for s in tracer.spans if s.name == "knn.expand_radius"]
        assert expands, "no radius-expansion spans recorded"
        assert all(s.cost is not None for s in expands)
        total_pages = sum(s.cost.total_page_reads for s in expands)
        assert total_pages > 0
        # Expansion spans nest under their query span.
        queries = {
            s.index for s in tracer.spans if s.name == "knn.query"
        }
        assert all(s.parent in queries for s in expands)

    def test_batch_metrics_recorded(self, reduced, workload):
        _, red = reduced
        index = ExtendedIDistance(red)
        tracer = Tracer()
        run_query_batch(index, workload, tracer=tracer)
        m = tracer.metrics
        assert m.counter("knn.radius_expansions").value > 0
        assert (
            m.histogram("knn.candidates_per_query").count
            == workload.n_queries
        )
        assert 0.0 <= m.gauge("buffer.hit_rate").value <= 1.0
        hits = m.counter("buffer.hits").value
        misses = m.counter("buffer.misses").value
        assert hits + misses > 0

    def test_batch_and_live_expansion_histograms_agree(
        self, reduced, workload
    ):
        """``knn_batch`` records one ``knn.expansions_per_query``
        observation per query, the same ones a ``knn`` loop records."""
        _, red = reduced
        index = ExtendedIDistance(red)
        live, batch = Tracer(), Tracer()
        for query in workload.queries:
            index.knn(query, workload.k, tracer=live)
        index.knn_batch(workload.queries, workload.k, tracer=batch)
        name = "knn.expansions_per_query"
        want = live.metrics.histogram(name)
        got = batch.metrics.histogram(name)
        assert got.count == want.count == workload.n_queries
        assert got.counts == want.counts
        assert got.overflow == want.overflow
        assert got.total == want.total
        assert (
            batch.metrics.counter("knn.radius_expansions").value
            == live.metrics.counter("knn.radius_expansions").value
            == want.total
        )

    def test_results_bit_identical_with_and_without_tracer(
        self, reduced, workload
    ):
        _, red = reduced
        index = ExtendedIDistance(red)
        ids_plain, ids_traced = [], []
        plain = run_query_batch(index, workload, collect_ids=ids_plain)
        traced = run_query_batch(
            index, workload, collect_ids=ids_traced, tracer=Tracer()
        )
        assert plain.mean_page_reads == traced.mean_page_reads
        assert (
            plain.mean_distance_computations
            == traced.mean_distance_computations
        )
        assert plain.mean_cpu_work == traced.mean_cpu_work
        for a, b in zip(ids_plain, ids_traced):
            assert np.array_equal(a, b)

    def test_baseline_indexes_accept_tracer(self, reduced, workload):
        _, red = reduced
        for cls in (SequentialScan, GlobalLDRIndex):
            tracer = Tracer()
            run_query_batch(cls(red), workload, tracer=tracer)
            assert span_names(tracer).count("knn.query") == (
                workload.n_queries
            )


class TestKMeansTracing:
    def test_iteration_spans_and_freeze_counts(self, two_cluster_dataset):
        tracer = Tracer()
        estimator = EllipticalKMeans(n_clusters=2)
        result = estimator.fit(
            two_cluster_dataset.points[:600],
            np.random.default_rng(3),
            tracer=tracer,
        )
        names = span_names(tracer)
        assert names.count("kmeans.fit") == 1
        outers = [
            s for s in tracer.spans if s.name == "kmeans.outer_iteration"
        ]
        assert len(outers) == result.outer_iterations
        assert all("frozen_points" in s.attributes for s in outers)
        inners = [
            s for s in tracer.spans if s.name == "kmeans.inner_iteration"
        ]
        assert len(inners) == result.inner_iterations

    def test_tracer_does_not_change_clustering(self, two_cluster_dataset):
        data = two_cluster_dataset.points[:600]
        plain = EllipticalKMeans(n_clusters=2).fit(
            data, np.random.default_rng(3)
        )
        traced = EllipticalKMeans(n_clusters=2).fit(
            data, np.random.default_rng(3), tracer=Tracer()
        )
        assert np.array_equal(plain.labels, traced.labels)
        assert plain.inner_iterations == traced.inner_iterations


class TestMMDRTracing:
    def test_phase_spans_and_retained_dims(self, two_cluster_dataset):
        tracer = Tracer()
        model = MMDR().fit(
            two_cluster_dataset.points, np.random.default_rng(5),
            tracer=tracer,
        )
        names = span_names(tracer)
        assert names.count("mmdr.generate_ellipsoid") == 1
        assert names.count("mmdr.dimensionality_optimization") == 1
        assert "mmdr.generate_level" in names
        assert "kmeans.outer_iteration" in names
        hist = tracer.metrics.histogram("mmdr.retained_dims")
        assert hist.count == model.n_subspaces
        assert (
            tracer.metrics.gauge("mmdr.n_subspaces").value
            == model.n_subspaces
        )

    def test_tracer_does_not_change_model(self, two_cluster_dataset):
        plain = MMDR().fit(
            two_cluster_dataset.points, np.random.default_rng(5)
        )
        traced = MMDR().fit(
            two_cluster_dataset.points, np.random.default_rng(5),
            tracer=Tracer(),
        )
        assert np.array_equal(plain.labels(), traced.labels())
        assert plain.reduced_dims() == traced.reduced_dims()


class TestScalableMMDRTracing:
    def test_per_stream_spans(self, two_cluster_dataset):
        tracer = Tracer()
        model = ScalableMMDR().fit(
            two_cluster_dataset.points, np.random.default_rng(5),
            tracer=tracer,
        )
        names = span_names(tracer)
        assert (
            names.count("scalable.stream") == model.stats.streams_processed
        )
        assert names.count("scalable.merge_array") == 1
        assert names.count("scalable.route_points") == 1


class TestStorageStatsExposure:
    def test_hit_rate_through_vector_index(self, reduced, workload):
        _, red = reduced
        index = ExtendedIDistance(red)
        run_query_batch(index, workload, cold_cache=False)
        stats = index.storage_stats()
        assert stats["buffer_hits"] == index.pool.hits
        assert stats["buffer_misses"] == index.pool.misses
        assert stats["buffer_hits"] + stats["buffer_misses"] == (
            index.counters.logical_reads
        )
        assert stats["buffer_misses"] == index.counters.physical_reads
        assert index.buffer_hit_rate == pytest.approx(
            stats["buffer_hits"]
            / (stats["buffer_hits"] + stats["buffer_misses"])
        )
        # Warm cache on repeated identical queries must show hits.
        assert index.buffer_hit_rate > 0.0
