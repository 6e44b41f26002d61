"""Kernel-layer microbenchmarks: the reference distance kernels.

Times each distance kernel of :mod:`repro.linalg.kernels` on
query-path-shaped problems and the cold sequential page scan on both
physical stores, and writes the results through ``repro.bench``: a
versioned report at ``benchmarks/out/BENCH_kernels.report.json`` plus the
flat ``benchmarks/out/BENCH_kernels.json`` beside it.

All wall-clock numbers are **advisory** (min-of-N, machine-dependent,
never gated).  The kernels' answers are checked against their per-query
definitions in ``tests/linalg/test_kernels.py``; the report records
their fingerprints.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BenchReport, result_fingerprint
from repro.linalg import kernels
from repro.storage.buffer import BufferPool
from repro.storage.metrics import CostCounters
from repro.storage.mmap_store import MmapPageStore
from repro.storage.pager import PageStore

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Query-path-shaped problem: a few hundred queries against a few
#: thousand reduced vectors at the dimensionalities the indexes use.
N_POINTS = 20_000
N_QUERIES = 256
DIM = 16
REPEATS = 5


def _best_of(fn, *args):
    """Min-of-N wall seconds (and the last result, for verification)."""
    best, result = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def _scan_seconds(store_factory, n_pages=2000, blob_bytes=3500):
    """Cold sequential read of every page via a too-small buffer pool."""
    counters = CostCounters()
    store = store_factory(counters)
    payload = np.arange(blob_bytes // 8, dtype=np.float64)
    pids = [store.allocate(payload, blob_bytes) for _ in range(n_pages)]
    pool = BufferPool(store, 32, counters)
    try:
        best = float("inf")
        for _ in range(REPEATS):
            pool.clear()
            start = time.perf_counter()
            for pid in pids:
                pool.read(pid)
            best = min(best, time.perf_counter() - start)
        assert counters.physical_reads == REPEATS * n_pages
        return best
    finally:
        close = getattr(store, "close", None)
        if close is not None:
            close()


@pytest.mark.kernel_smoke
def test_kernel_microbench_and_report():
    rng = np.random.default_rng(42)
    points = rng.standard_normal((N_POINTS, DIM))
    queries = rng.standard_normal((N_QUERIES, DIM))
    positions = rng.integers(0, N_POINTS, size=8 * N_POINTS)
    query_of_entry = np.sort(
        rng.integers(0, N_QUERIES, size=positions.size)
    )

    advisory = {}

    advisory["batch_l2_rows_s"], batch = _best_of(
        kernels.batch_l2_rows, points, queries
    )
    # flat_l2 scores column-major blocks: one row per dimension.
    advisory["flat_l2_s"], flat = _best_of(
        kernels.flat_l2,
        np.ascontiguousarray(points.T),
        positions,
        np.ascontiguousarray(queries.T),
        query_of_entry,
    )

    n_clusters = 8
    centroids = rng.standard_normal((n_clusters, DIM))
    chol_invs = np.empty((n_clusters, DIM, DIM))
    for c in range(n_clusters):
        a = rng.standard_normal((DIM, DIM))
        chol_invs[c] = np.linalg.inv(
            np.linalg.cholesky(a @ a.T + DIM * np.eye(DIM))
        )
    penalties = rng.uniform(0.5, 1.5, size=n_clusters)
    advisory["batch_mahalanobis_s"], _ = _best_of(
        kernels.batch_mahalanobis_rows,
        points, centroids, chol_invs, penalties,
    )

    seq = rng.integers(0, 512, size=200_000)
    advisory["cold_lru_s"], lru = _best_of(
        kernels.cold_lru_physical_reads, seq, 64
    )

    t_memory = _scan_seconds(PageStore)
    t_mmap = _scan_seconds(MmapPageStore)
    advisory["cold_scan_memory_s"] = t_memory
    advisory["cold_scan_mmap_s"] = t_mmap
    advisory["cold_scan_mmap_over_memory"] = t_mmap / t_memory

    row_ids = np.tile(np.arange(N_POINTS), (N_QUERIES, 1))
    flat_ids = np.arange(positions.size)
    report = BenchReport(
        name="kernels",
        spec={
            "n_points": N_POINTS,
            "n_queries": N_QUERIES,
            "dimensionality": DIM,
            "repeats": REPEATS,
        },
        counters={
            "flat_entries": int(positions.size),
            "lru_sequence": int(seq.size),
            "lru_physical_reads": int(lru),
        },
        advisory={key: float(value) for key, value in advisory.items()},
        fingerprints={
            "batch_l2": result_fingerprint(row_ids, batch),
            "flat_l2": result_fingerprint(flat_ids, flat),
        },
    )
    report.write(OUT_DIR / "BENCH_kernels.report.json")
    view = {k: float(v) for k, v in advisory.items()}
    out = OUT_DIR / "BENCH_kernels.json"
    out.write_text(json.dumps(view, indent=2, sort_keys=True) + "\n")
    print(
        "\nkernels: "
        + ", ".join(f"{key}={advisory[key]:.4f}" for key in sorted(advisory))
    )
