"""Text tables and the query-batch harness."""

import numpy as np
import pytest

from repro.data.workload import QueryWorkload, sample_queries
from repro.eval.harness import compare_index_schemes, run_query_batch
from repro.eval.reporting import format_series, format_table
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.reduction.ldr import LDRReducer
from repro.reduction.mmdr_adapter import MMDRReducer


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["name", "value"], [("a", 1), ("bb", 22.5)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_number_formatting(self):
        out = format_table(["x"], [(0.12345,), (1234567.0,), (3.14159,)])
        assert "0.1235" in out or "0.1234" in out
        assert "1,234,567" in out
        assert "3.14" in out


class TestFormatSeries:
    def test_columns_per_method(self):
        out = format_series(
            "dims", [10, 20], {"A": [0.5, 0.6], "B": [0.1, 0.2]}
        )
        header = out.splitlines()[0]
        assert "dims" in header and "A" in header and "B" in header

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], {"A": [0.5]})


@pytest.fixture(scope="module")
def small_setup():
    from repro.data.synthetic import (
        SyntheticSpec,
        generate_correlated_clusters,
    )

    spec = SyntheticSpec(
        n_points=3000, dimensionality=24, n_clusters=3,
        retained_dims=5, variance_r=0.25, variance_e=0.015,
        noise_fraction=0.005,
    )
    ds = generate_correlated_clusters(spec, np.random.default_rng(11))
    data = ds.points
    workload = sample_queries(data, 12, np.random.default_rng(2), k=10)
    mmdr = MMDRReducer().reduce(data, np.random.default_rng(5))
    ldr = LDRReducer().reduce(data, np.random.default_rng(5))
    return data, workload, mmdr, ldr


class TestRunQueryBatch:
    def test_batch_cost_fields(self, small_setup):
        _, workload, mmdr, _ = small_setup
        index = ExtendedIDistance(mmdr)
        cost = run_query_batch(index, workload)
        assert cost.scheme == "iDistance"
        assert cost.n_queries == 12
        assert cost.mean_page_reads > 0
        assert cost.mean_cpu_seconds > 0
        assert cost.mean_cpu_work > 0
        assert cost.index_pages == index.size_pages

    def test_cold_cache_not_cheaper_than_warm(self, small_setup):
        _, workload, mmdr, _ = small_setup
        cold = run_query_batch(
            ExtendedIDistance(mmdr), workload, cold_cache=True
        )
        warm = run_query_batch(
            ExtendedIDistance(mmdr), workload, cold_cache=False
        )
        assert warm.mean_page_reads <= cold.mean_page_reads + 1e-9

    def test_collect_ids(self, small_setup):
        _, workload, mmdr, _ = small_setup
        ids = []
        run_query_batch(ExtendedIDistance(mmdr), workload, collect_ids=ids)
        assert len(ids) == workload.n_queries
        assert all(batch.size == 10 for batch in ids)

    @pytest.mark.parametrize("cold_cache", [True, False])
    def test_skipped_rows_are_counted_not_averaged(
        self, small_setup, cold_cache
    ):
        """A NaN row is skipped and reported on both routes: it enters
        neither the averages nor ``n_queries``, and its collected ids are
        ``-1``."""
        _, workload, _, ldr = small_setup
        queries = workload.queries[:5].copy()
        queries[2, 0] = np.nan
        index = SequentialScan(ldr)
        pages = {index.knn(q, 10).stats.page_reads for q in queries[[0, 1]]}
        assert len(pages) == 1  # a scan reads the same pages every query
        ids = []
        cost = run_query_batch(
            index, QueryWorkload(queries=queries, k=10),
            cold_cache=cold_cache, collect_ids=ids,
        )
        assert cost.n_queries == 4
        assert cost.invalid_queries == 1
        assert cost.mean_page_reads == pages.pop()
        assert cost.mean_distance_computations == ldr.n_points
        assert len(ids) == 5
        assert (ids[2] == -1).all()
        assert all((row >= 0).all() for i, row in enumerate(ids) if i != 2)


class TestCompareSchemes:
    def test_full_panel(self, small_setup):
        _, workload, mmdr, ldr = small_setup
        panel = compare_index_schemes(mmdr, ldr, workload)
        assert set(panel) == {"iMMDR", "iLDR", "gLDR", "SeqScan"}
        for label, cost in panel.items():
            assert cost.scheme == label
            assert cost.mean_page_reads > 0
            assert cost.n_queries == workload.n_queries
            assert cost.invalid_queries == 0

    def test_seqscan_optional(self, small_setup):
        _, workload, mmdr, ldr = small_setup
        panel = compare_index_schemes(
            mmdr, ldr, workload, include_seqscan=False
        )
        assert "SeqScan" not in panel
