"""Sharded serving: merged-answer identity gate + open-loop load numbers.

Emits a versioned :class:`repro.bench.BenchReport` (written to
``benchmarks/out/BENCH_serve.report.json``); the flat
``benchmarks/out/BENCH_serve.json`` beside it is the ``"serve"``
:func:`repro.bench.flat_view` of that report

    {"n_shards", "n_requests", "arrival_rate_hz", "n_partial", "respawns",
     "retries", "qps", "p50_ms", "p99_ms"}

The load is open loop: ``n_requests`` requests fire on a fixed, seeded
schedule of exponential inter-arrivals at ``arrival_rate_hz``, whatever
the cluster's speed.  ``qps`` is therefore completions per wall second
under that schedule: it tracks the arrival rate and drops below it only
when the cluster falls behind, so it is not a capacity figure.  The
latency/QPS numbers are **advisory** (a shared-CPU runner proves nothing
about wall clock); the *gate* is answer identity: on every non-degraded
request the scatter-gathered global top-K must fingerprint identically
to the single-node index, for all three schemes — including after a
seeded SIGKILL of one worker mid-bench and its snapshot+WAL recovery.
"""

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BenchReport, flat_view, result_fingerprint
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.data.workload import sample_queries
from repro.index import INDEX_SCHEMES
from repro.reduction import MMDRReducer
from repro.serve import (
    Router,
    RouterConfig,
    ShardPlanner,
    Supervisor,
    WorkerFaultSpec,
)
from repro.serve.planner import mode_for_scheme
from repro.serve.router import canonicalize_rows

import multiprocessing

OUT_DIR = Path(__file__).resolve().parent / "out"

N_SHARDS = 3
N_REQUESTS = 40
ARRIVAL_RATE_HZ = 60.0
K = 5

pytestmark = [
    pytest.mark.serve_smoke,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="shard workers require the fork start method",
    ),
]


@pytest.fixture(scope="module")
def dataset():
    spec = SyntheticSpec(
        n_points=2_000,
        dimensionality=16,
        n_clusters=3,
        retained_dims=4,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    points = generate_correlated_clusters(
        spec, np.random.default_rng(42)
    ).points
    reduced = MMDRReducer().reduce(points, np.random.default_rng(0))
    queries = sample_queries(
        points, 8, np.random.default_rng(5), k=K, method="perturbed"
    ).queries
    return reduced, queries


def single_node_rows(scheme, reduced, queries):
    res = INDEX_SCHEMES[scheme](reduced).knn_batch(queries, K)
    return canonicalize_rows(res.ids, res.distances)


def make_cluster(reduced, scheme, root, fault_specs=None, config=None):
    plan = ShardPlanner(N_SHARDS, mode_for_scheme(scheme)).plan(reduced)
    supervisor = Supervisor(plan, scheme, root)
    for shard_id, spec in (fault_specs or {}).items():
        supervisor.set_fault_spec(shard_id, spec)
    router = Router(
        supervisor,
        config if config is not None else RouterConfig(deadline_s=30.0),
    )
    supervisor.start()
    return router


def test_merged_fingerprint_matches_single_node_all_schemes(
    dataset, tmp_path
):
    reduced, queries = dataset
    for scheme in INDEX_SCHEMES:
        ids, dists = single_node_rows(scheme, reduced, queries)
        baseline = result_fingerprint(ids, dists)
        router = make_cluster(reduced, scheme, tmp_path / scheme)
        try:
            result = router.knn(queries, K)
        finally:
            router.close()
        assert not result.partial
        merged = result_fingerprint(
            *canonicalize_rows(result.ids, result.distances)
        )
        assert merged == baseline, (
            f"{scheme}: merged shard answers diverge from single-node"
        )


def test_sustained_load_with_midrun_crash_and_report(dataset, tmp_path):
    reduced, queries = dataset
    scheme = "SeqScan"
    base_ids, base_dists = single_node_rows(scheme, reduced, queries)
    baseline = result_fingerprint(base_ids, base_dists)

    # Shard 1's worker is SIGKILLed on its 10th request — mid-bench.  The
    # router must respawn it (snapshot + WAL recovery) and every request
    # must still come back exact, or be explicitly flagged partial.
    router = make_cluster(
        reduced,
        scheme,
        tmp_path / "load",
        fault_specs={1: WorkerFaultSpec(kill_on_request=10)},
        config=RouterConfig(deadline_s=30.0, max_inflight=64),
    )
    offsets = np.cumsum(
        np.random.default_rng(11).exponential(
            1.0 / ARRIVAL_RATE_HZ, N_REQUESTS
        )
    )
    lock = threading.Lock()
    latencies, partials, mismatches = [], [], []

    def fire(offset, t0):
        delay = t0 + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        start = time.perf_counter()
        result = router.knn(queries, K)
        wall = time.perf_counter() - start
        if result.partial:
            with lock:
                partials.append(result.missing_shards)
                latencies.append(wall)
            return
        ids, dists = canonicalize_rows(result.ids, result.distances)
        ok = np.array_equal(ids, base_ids) and np.array_equal(
            dists, base_dists
        )
        with lock:
            latencies.append(wall)
            if not ok:
                mismatches.append(offset)

    try:
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=fire, args=(off, t0)) for off in offsets
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_total = time.perf_counter() - t0

        # Post-recovery batch: the respawned shard answers from its
        # recovered state, and the merged result must be exact again.
        final = router.knn(queries, K)
        assert not final.partial
        final_fp = result_fingerprint(
            *canonicalize_rows(final.ids, final.distances)
        )
        counters = {
            name: c.value for name, c in router.metrics.counters.items()
        }
    finally:
        router.close()

    assert not mismatches, (
        "non-partial requests returned rows diverging from single-node"
    )
    assert final_fp == baseline, (
        "post-recovery merged answers diverge from single-node"
    )
    assert counters.get("serve.respawns", 0) >= 1, (
        "the seeded SIGKILL never triggered a respawn"
    )
    assert len(latencies) == N_REQUESTS

    lat_ms = np.asarray(latencies) * 1e3
    report = BenchReport(
        name="serve_2k",
        spec={
            "n_points": reduced.n_points,
            "dimensionality": 16,
            "scheme": scheme,
            "n_shards": N_SHARDS,
            "n_requests": N_REQUESTS,
            "arrival_rate_hz": ARRIVAL_RATE_HZ,
            "k": K,
            "kill_shard": 1,
            "kill_on_request": 10,
            "data_seed": 42,
            "reduce_seed": 0,
            "query_seed": 5,
            "arrival_seed": 11,
        },
        counters={
            "n_shards": N_SHARDS,
            "n_requests": N_REQUESTS,
            "arrival_rate_hz": ARRIVAL_RATE_HZ,
            "n_partial": len(partials),
            "respawns": int(counters.get("serve.respawns", 0)),
            "retries": int(counters.get("serve.retries", 0)),
        },
        advisory={
            "qps": round(N_REQUESTS / wall_total, 1),
            "p50_ms": round(float(np.percentile(lat_ms, 50)), 2),
            "p99_ms": round(float(np.percentile(lat_ms, 99)), 2),
            "wall_s": round(wall_total, 3),
        },
        fingerprints={
            "single_node": baseline,
            "merged_post_recovery": final_fp,
        },
    )
    report.write(OUT_DIR / "BENCH_serve.report.json")
    view = flat_view("serve", report)
    out = OUT_DIR / "BENCH_serve.json"
    out.write_text(json.dumps(view, indent=2, sort_keys=True) + "\n")
    print(
        "\nserve: " + ", ".join(f"{k}={v}" for k, v in sorted(view.items()))
    )
