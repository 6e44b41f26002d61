"""Unit tests for the batch-scan kernels and their bit-identity contracts."""

import tracemalloc

import numpy as np
import pytest

from repro.linalg.kernels import (
    batch_l2_rows,
    cold_lru_physical_reads,
    flat_l2,
    multi_arange,
    row_dots,
    row_gemv,
)


class TestMultiArange:
    def test_matches_per_segment_arange(self, rng):
        starts = rng.integers(0, 50, size=20)
        stops = starts + rng.integers(0, 9, size=20)
        expected = np.concatenate(
            [np.arange(a, b) for a, b in zip(starts, stops)]
            or [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(multi_arange(starts, stops), expected)

    def test_all_empty_segments(self):
        starts = np.array([3, 7, 7])
        out = multi_arange(starts, starts)
        assert out.size == 0 and out.dtype == np.int64

    def test_no_segments(self):
        out = multi_arange(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            multi_arange(np.array([5]), np.array([4]))


class TestStackedRowProducts:
    """iDistance projects a block of queries into every same-width
    subspace with one stacked matmul; each row must keep the bits of the
    per-query gemv and dot the single-query path would run."""

    @pytest.mark.parametrize("n_rows", [1, 2, 33])
    @pytest.mark.parametrize(
        "width,dims",
        [
            (width, dims)
            for width in (1, 7, 8, 13, 64)
            for dims in (1, 8, 13, 64, 100, 128)
            if width <= dims
        ],
    )
    def test_rows_keep_per_row_bits(self, rng, n_rows, width, dims):
        means = rng.normal(size=(3, dims))
        bases = np.stack([
            np.linalg.qr(rng.normal(size=(dims, dims)))[0][:, :width]
            for _ in means
        ])
        rows = rng.normal(size=(n_rows, dims)) * 10
        proj = row_gemv(
            rows[None, :, None, :] - means[:, None, None, :], bases[:, None]
        )
        centroids = rng.normal(size=(3, width))
        square = row_dots(proj - centroids[:, None, None, :])
        for g, (mean, basis, centroid) in enumerate(
            zip(means, bases, centroids)
        ):
            want = np.stack([(row - mean) @ basis for row in rows])
            assert np.array_equal(_bits(proj[g, :, 0]), _bits(want))
            assert np.array_equal(
                _bits(square[g, :, 0, 0]),
                _bits(np.array([np.dot(x, x) for x in want - centroid])),
            )


class TestBatchL2Rows:
    def test_rows_bit_identical_to_per_query_norm(self, rng):
        points = rng.normal(size=(300, 17))
        queries = rng.normal(size=(9, 17))
        out = batch_l2_rows(points, queries)
        for i in range(queries.shape[0]):
            row = np.linalg.norm(points - queries[i], axis=1)
            assert np.array_equal(out[i], row)

    def test_chunking_preserves_bit_identity(self, rng, monkeypatch):
        import repro.linalg.kernels as kernels

        points = rng.normal(size=(64, 8))
        queries = rng.normal(size=(10, 8))
        full = batch_l2_rows(points, queries)
        # Force a tiny buffer so every query lands in its own chunk.
        monkeypatch.setattr(kernels, "_MAX_BUFFER_ELEMS", 1)
        chunked = batch_l2_rows(points, queries)
        assert np.array_equal(full, chunked)

    def test_empty_inputs(self):
        assert batch_l2_rows(np.empty((0, 4)), np.empty((3, 4))).shape == (3, 0)
        assert batch_l2_rows(np.empty((5, 4)), np.empty((0, 4))).shape == (0, 5)


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


class TestFlatL2:
    """``flat_l2`` scores column-major ``(d, m)`` blocks; every entry must
    carry the bits of the row-major ``np.linalg.norm(rows - q, axis=1)``."""

    def test_entries_bit_identical_to_per_block_norm(self, rng):
        rows = rng.normal(size=(200, 6))
        queries = rng.normal(size=(4, 6))
        positions = rng.integers(0, 200, size=150)
        owner = rng.integers(0, 4, size=150)
        out = flat_l2(
            np.ascontiguousarray(rows.T), positions,
            np.ascontiguousarray(queries.T), owner,
        )
        for q in range(4):
            mask = owner == q
            block = np.linalg.norm(rows[positions[mask]] - queries[q], axis=1)
            assert np.array_equal(_bits(out[mask]), _bits(block))

    @pytest.mark.parametrize(
        "width",
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 64, 127, 128, 129, 136, 256, 300],
    )
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 5000])
    def test_bit_identical_to_row_norm_across_the_row_column_cut(
        self, width, n
    ):
        """Both sides of the row/column cut, every branch of numpy's
        pairwise tree (sequential, eight accumulators plus tail, recursive
        halves), gathered and contiguous.  This is the tripwire for a numpy
        build that reduces a row in another order."""
        rng = np.random.default_rng(1000 * width + n)
        m = n + 7
        # Per-dimension scales spread the squared terms over many binades,
        # so any change of summation order shows in the last bits.
        rows = rng.normal(size=(m, width)) * rng.uniform(
            1e-3, 1e3, size=(1, width)
        )
        queries = rng.normal(size=(5, width))
        columns = np.ascontiguousarray(rows.T)
        query_columns = np.ascontiguousarray(queries.T)

        positions = rng.integers(0, m, size=n)
        owner = rng.integers(0, 5, size=n)
        gathered = flat_l2(columns, positions, query_columns, owner)
        expected = np.linalg.norm(rows[positions] - queries[owner], axis=1)
        assert np.array_equal(_bits(gathered), _bits(expected))

        contiguous = flat_l2(columns, slice(3, 3 + n), query_columns, 2)
        expected = np.linalg.norm(rows[3 : 3 + n] - queries[2], axis=1)
        assert np.array_equal(_bits(contiguous), _bits(expected))

    def test_chunking_preserves_bit_identity(self, rng, monkeypatch):
        import repro.linalg.kernels as kernels

        columns = np.ascontiguousarray(rng.normal(size=(5, 600)))
        queries = np.ascontiguousarray(rng.normal(size=(5, 3)))
        positions = rng.integers(0, 600, size=500)
        owner = rng.integers(0, 3, size=500)
        full = flat_l2(columns, positions, queries, owner)
        run = flat_l2(columns, slice(40, 540), queries, 1)
        monkeypatch.setattr(kernels, "_MAX_BUFFER_ELEMS", 1)
        chunked = flat_l2(columns, positions, queries, owner)
        assert np.array_equal(full, chunked)
        chunked = flat_l2(columns, slice(40, 540), queries, 1)
        assert np.array_equal(run, chunked)

    @pytest.mark.parametrize("m", [1, 300])
    def test_contiguous_run_leaves_points_untouched(self, rng, m):
        """The kernel works in place on its own temporaries only; a
        contiguous run is a view of the caller's block (row path at
        ``m=1``, column path at ``m=300``)."""
        columns = np.ascontiguousarray(rng.normal(size=(4, m)))
        before = columns.copy()
        flat_l2(columns, slice(None), np.ones((4, 1)), 0)
        assert np.array_equal(columns, before)

    def test_wide_contiguous_run_makes_no_block_sized_temporary(self, rng):
        """A large contiguous run is streamed a few coordinate rows at a
        time: the call's peak allocation stays under a quarter of the
        block (forming the whole ``(d, n)`` difference would take all of
        it)."""
        columns = np.ascontiguousarray(rng.normal(size=(64, 20_000)))
        query = np.ascontiguousarray(rng.normal(size=(64, 1)))
        tracemalloc.start()
        try:
            flat_l2(columns, slice(None), query, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < columns.nbytes / 4

    def test_empty(self):
        out = flat_l2(
            np.empty((3, 0)),
            np.empty(0, dtype=np.int64),
            np.empty((3, 0)),
            np.empty(0, dtype=np.int64),
        )
        assert out.shape == (0,)
        out = flat_l2(np.empty((3, 0)), slice(None), np.zeros((3, 1)), 0)
        assert out.shape == (0,)


def _reference_lru(sequence, capacity):
    """Straight-line LRU model, independent of the implementation."""
    resident = []
    physical = 0
    for page in sequence:
        if page in resident:
            resident.remove(page)
            resident.append(page)
            continue
        physical += 1
        resident.append(page)
        if len(resident) > capacity:
            resident.pop(0)
    return physical


class TestColdLruPhysicalReads:
    def test_empty_sequence(self):
        assert cold_lru_physical_reads(np.empty(0, dtype=np.int64), 4) == 0

    def test_distinct_fast_path(self):
        seq = np.array([3, 1, 3, 2, 1, 1])
        assert cold_lru_physical_reads(seq, capacity=8) == 3

    def test_eviction_replay_matches_reference(self, rng):
        for _ in range(25):
            seq = rng.integers(0, 12, size=rng.integers(1, 80))
            capacity = int(rng.integers(1, 10))
            assert cold_lru_physical_reads(seq, capacity) == _reference_lru(
                seq.tolist(), capacity
            )

    def test_matches_buffer_pool(self, rng):
        """The model must mirror the real BufferPool's accounting."""
        from repro.storage.buffer import BufferPool
        from repro.storage.metrics import CostCounters
        from repro.storage.pager import PageStore

        counters = CostCounters()
        store = PageStore(counters)
        for i in range(12):
            store.allocate(("kernel-test", i), 0)
        pool = BufferPool(store, 4, counters)
        seq = rng.integers(0, 12, size=120)
        for page in seq.tolist():
            pool.read(int(page))
        assert cold_lru_physical_reads(seq, 4) == counters.physical_reads


class TestInputGuard:
    """The query-path kernels take C-contiguous float64 2-D operands and
    raise on anything else instead of silently copying it per call.
    ``batch_l2_rows`` takes ``(n, d)`` rows, ``flat_l2`` ``(d, m)`` column
    blocks; the guard is the same for both layouts."""

    def test_guards_dtype_and_layout(self, rng):
        positions = np.arange(8, dtype=np.int64)
        query_of_entry = np.repeat(np.arange(4, dtype=np.int64), 2)

        def flat(p, q):
            return flat_l2(p, positions, q, query_of_entry)

        rows, row_queries = rng.normal(size=(50, 6)), rng.normal(size=(4, 6))
        columns = np.ascontiguousarray(rows.T)
        query_columns = np.ascontiguousarray(row_queries.T)
        for kernel, points, queries in (
            (batch_l2_rows, rows, row_queries),
            (flat, columns, query_columns),
        ):
            for p, q in ((points, queries.astype(np.float32)),
                         (points.astype(np.float32), queries)):
                with pytest.raises(TypeError, match="float64"):
                    kernel(p, q)
            for p, q in ((np.asfortranarray(points), queries),
                         (points, np.asfortranarray(queries)),
                         (points[:, ::2], queries[:, ::2])):
                with pytest.raises(ValueError, match="C-contiguous"):
                    kernel(p, q)
            for p, q in ((points.ravel(), queries),
                         (points, queries[None, :, :])):
                with pytest.raises(ValueError, match="2-d"):
                    kernel(p, q)

    def test_flat_l2_rejects_row_views_of_a_column_block(self, rng):
        """A partition's ``vectors`` rows are a transposed view of its
        column block: handing them to ``flat_l2`` must raise, not score
        through a silent per-call copy."""
        rows = rng.normal(size=(50, 6))
        query_columns = np.ascontiguousarray(rng.normal(size=(6, 2)))
        with pytest.raises(ValueError, match="C-contiguous"):
            flat_l2(rows.T, slice(None), query_columns, 0)


def test_traced_binding_point_reexports_the_kernel_objects():
    """``repro.linalg.backend`` only re-exports; the traced benchmark
    finds every caller by the identity of these objects."""
    import repro.linalg as linalg
    from repro.linalg import backend, kernels

    for name in backend.__all__:
        assert getattr(backend, name) is getattr(kernels, name)
        assert getattr(linalg, name) is getattr(kernels, name)
