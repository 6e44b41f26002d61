"""Query validation: NaN/Inf/shape problems are typed errors, not garbage.

NaN comparisons are all false, so an unvalidated NaN query would silently
return confidently wrong neighbors.  ``knn`` refuses with
:class:`InvalidQueryError`; ``knn_batch`` skips the offending rows and
reports them (one bad row must not abort a thousand-query workload).
"""

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.workload import sample_queries
from repro.index.base import InvalidQueryError
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.reduction.mmdr_adapter import model_to_reduced


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(two_cluster_dataset.points, np.random.default_rng(5))
    return model_to_reduced(model)


@pytest.fixture(scope="module")
def workload(two_cluster_dataset):
    return sample_queries(
        two_cluster_dataset.points,
        10,
        np.random.default_rng(9),
        k=5,
        method="perturbed",
    )


SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]


class TestKnnValidation:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_raises(
        self, scheme, bad, reduced, workload
    ):
        index = scheme(reduced)
        query = workload.queries[0].copy()
        query[3] = bad
        with pytest.raises(InvalidQueryError):
            index.knn(query, 5)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_dimension_mismatch_raises(self, scheme, reduced):
        index = scheme(reduced)
        with pytest.raises(InvalidQueryError):
            index.knn(np.zeros(index.query_dim + 1), 5)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_non_vector_raises(self, scheme, reduced):
        index = scheme(reduced)
        with pytest.raises(InvalidQueryError):
            index.knn(np.zeros((2, index.query_dim)), 5)

    def test_invalid_query_error_is_value_error(self, reduced):
        with pytest.raises(ValueError):
            ExtendedIDistance(reduced).knn(np.array([np.nan]), 5)


class TestBatchSkipAndReport:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_invalid_rows_skipped_valid_rows_identical(
        self, scheme, reduced, workload
    ):
        clean = scheme(reduced).knn_batch(workload.queries, workload.k)
        poisoned = workload.queries.copy()
        poisoned[2, 0] = np.nan
        poisoned[7, 4] = np.inf
        res = scheme(reduced).knn_batch(poisoned, workload.k)
        assert res.invalid_queries == (2, 7)
        assert res.n_queries == workload.n_queries
        for row in range(workload.n_queries):
            if row in (2, 7):
                assert np.all(res.ids[row] == -1)
                assert np.all(np.isnan(res.distances[row]))
                assert res.stats[row].page_reads == 0
                assert res.stats[row].distance_computations == 0
            else:
                assert np.array_equal(res.ids[row], clean.ids[row])
                assert np.array_equal(
                    res.distances[row], clean.distances[row]
                )
                assert (
                    res.stats[row].page_reads == clean.stats[row].page_reads
                )

    def test_all_rows_invalid(self, reduced, workload):
        poisoned = np.full_like(workload.queries, np.nan)
        res = SequentialScan(reduced).knn_batch(poisoned, workload.k)
        assert res.invalid_queries == tuple(range(workload.n_queries))
        assert np.all(res.ids == -1)

    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_all_invalid_or_empty_block_keeps_width(
        self, scheme, n_rows, reduced, workload
    ):
        """An empty or all-invalid block is as wide as a mixed one:
        ``min(k, live_count)`` columns of -1 ids and NaN distances."""
        index = scheme(reduced)
        poisoned = np.full((n_rows, index.query_dim), np.nan)
        res = index.knn_batch(poisoned, workload.k)
        width = min(workload.k, index.live_count)
        assert width > 0
        assert res.ids.shape == res.distances.shape == (n_rows, width)
        assert res.invalid_queries == tuple(range(n_rows))
        assert (res.ids == -1).all() and np.isnan(res.distances).all()
        assert res.k == index.knn_batch(workload.queries, workload.k).k

    def test_dimension_mismatch_is_structural(self, reduced, workload):
        # A wrong-width matrix is a caller bug affecting every row: raise.
        index = SequentialScan(reduced)
        with pytest.raises(InvalidQueryError):
            index.knn_batch(workload.queries[:, :-1], workload.k)

    def test_no_invalid_rows_reports_empty(self, reduced, workload):
        res = SequentialScan(reduced).knn_batch(
            workload.queries, workload.k
        )
        assert res.invalid_queries == ()
