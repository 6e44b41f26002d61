"""Query throughput: sequential loop vs batched engine vs parallel workers.

Emits a versioned :class:`repro.bench.BenchReport` (written to
``benchmarks/out/BENCH_throughput.report.json``) whose advisory section
holds the wall-clock rates; the long-standing flat ``BENCH_throughput.json``
at the repo root is kept as the ``"throughput"``
:func:`repro.bench.flat_view` of that report

    {"qps_sequential", "qps_batch", "qps_parallel", "speedup_batch"}

on the 64-d synthetic workload (10k points, 4 correlated clusters, 200
in-distribution queries, 10-NN), and asserts the batched engine clears a
3x speedup over the per-query loop.  The ``perf_smoke`` subset is the CI
guard: a small workload where ``knn_batch`` must agree with ``knn``
bit-for-bit — a disagreement there means the fast path broke, whatever
the timing says.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BenchReport, flat_view, result_fingerprint
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.data.workload import sample_queries
from repro.eval.harness import measure_throughput, run_workload
from repro.index.idistance import ExtendedIDistance
from repro.reduction import MMDRReducer

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = REPO_ROOT / "benchmarks" / "out"


def build_index(n_points, dimensionality, n_clusters, retained, n_queries,
                k=10):
    spec = SyntheticSpec(
        n_points=n_points,
        dimensionality=dimensionality,
        n_clusters=n_clusters,
        retained_dims=retained,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    data = generate_correlated_clusters(spec, np.random.default_rng(42))
    reduced = MMDRReducer().reduce(data.points, np.random.default_rng(0))
    workload = sample_queries(
        data.points, n_queries, np.random.default_rng(1), k=k,
        method="perturbed",
    )
    return ExtendedIDistance(reduced), workload


@pytest.mark.perf_smoke
def test_batch_agrees_with_sequential_smoke():
    """CI guard: the batched engine must return exactly the sequential
    answers (ids AND distances) on a small in-distribution workload."""
    index, workload = build_index(
        n_points=2000, dimensionality=16, n_clusters=2, retained=4,
        n_queries=30,
    )
    seq_ids, seq_dists = [], []
    for query in workload.queries:
        index.reset_cache()
        res = index.knn(query, workload.k)
        seq_ids.append(res.ids)
        seq_dists.append(res.distances)
    batch = index.knn_batch(workload.queries, workload.k)
    assert np.array_equal(np.vstack(seq_ids), batch.ids), (
        "knn_batch ids disagree with knn"
    )
    assert np.array_equal(np.vstack(seq_dists), batch.distances), (
        "knn_batch distances disagree with knn"
    )
    # Same check, fingerprint form: this is the digest the regression
    # gate commits, so it must collapse identical answers to one value.
    assert result_fingerprint(
        np.vstack(seq_ids), np.vstack(seq_dists)
    ) == result_fingerprint(batch.ids, batch.distances)


def test_throughput_speedup_and_report():
    """The acceptance benchmark: >= 3x batched-vs-sequential QPS on the
    64-d workload, reported through repro.bench."""
    workload_params = dict(
        n_points=10_000, dimensionality=64, n_clusters=4, retained=4,
        n_queries=200,
    )
    index, workload = build_index(**workload_params)

    # Answers + logical counters once (the fingerprint/counter reference),
    # then the timing comparison (which re-runs and re-verifies agreement).
    ids, dists, stats = run_workload(index, workload, use_batch=False)
    timing = measure_throughput(index, workload, workers=4, repeats=5)

    report = BenchReport(
        name="throughput_64d",
        spec=dict(workload_params, k=workload.k, scheme="iMMDR",
                  data_seed=42, reduce_seed=0, query_seed=1),
        counters={
            "page_reads_cold": int(sum(s.page_reads for s in stats)),
            "distance_computations": int(
                sum(s.distance_computations for s in stats)
            ),
            "cpu_work": int(sum(s.cpu_work for s in stats)),
            "index_pages": int(index.size_pages),
        },
        advisory={key: float(value) for key, value in timing.items()},
        fingerprints={"sequential": result_fingerprint(ids, dists)},
    )
    report.write(OUT_DIR / "BENCH_throughput.report.json")
    view = flat_view("throughput", report)
    out = REPO_ROOT / "BENCH_throughput.json"
    out.write_text(json.dumps(view, indent=2, sort_keys=True) + "\n")
    print(
        "\nthroughput: "
        + ", ".join(f"{k}={v:.1f}" for k, v in sorted(view.items()))
    )
    assert view["speedup_batch"] >= 3.0, (
        f"batched engine only {view['speedup_batch']:.2f}x over sequential"
    )
