#!/usr/bin/env python
"""Sharded-serving demo: 4 workers, one seeded crash, full recovery.

Run:
    python examples/serve_demo.py [--points 3000] [--dims 16] \
                                  [--out serve_trace.jsonl]

The script reduces a synthetic dataset, splits it across 4 forked shard
workers (each booting through checkpoint+WAL recovery), and streams KNN
batches through the scatter-gather router.  Shard 2's worker is seeded
to SIGKILL itself mid-stream; the router detects the lost connection,
respawns the worker from its snapshot+WAL, retries, and keeps returning
answers bit-identical to the single-node index throughout.  It then
prints the per-shard health/breaker report and the stitched cross-worker
trace report.  Inspect the trace later with:

    python -m repro.obs.report serve_trace.jsonl
"""

import argparse

import numpy as np

from repro.data import SyntheticSpec, generate_correlated_clusters
from repro.data.workload import sample_queries
from repro.index import INDEX_SCHEMES
from repro.obs.export import read_jsonl
from repro.obs.report import render_report
from repro.obs.tracer import Tracer
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=3000)
    parser.add_argument("--dims", type=int, default=16)
    parser.add_argument("--scheme", default="iMMDR",
                        choices=sorted(INDEX_SCHEMES))
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--batches", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--root", default="serve_demo_cluster")
    parser.add_argument("--out", default="serve_trace.jsonl")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = SyntheticSpec(
        n_points=args.points,
        dimensionality=args.dims,
        n_clusters=3,
        retained_dims=4,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    dataset = generate_correlated_clusters(spec, rng)
    reduced = MMDRReducer().reduce(dataset.points, rng)
    workload = sample_queries(dataset.points, 10, rng, k=8)
    print(
        f"dataset: {dataset.n_points} x {dataset.dimensionality}, "
        f"scheme {args.scheme}, {args.shards} shards"
    )

    # Single-node ground truth the merged answers must match exactly.
    single = INDEX_SCHEMES[args.scheme](reduced).knn_batch(
        workload.queries, workload.k
    )
    truth = canonicalize_rows(single.ids, single.distances)

    mode = mode_for_scheme(args.scheme)
    plan = ShardPlanner(args.shards, mode).plan(reduced)
    print(plan.describe())

    supervisor = Supervisor(plan, args.scheme, args.root)
    # Shard 2's worker SIGKILLs itself on its 3rd request — mid-stream.
    supervisor.set_fault_spec(2, WorkerFaultSpec(kill_on_request=3))
    router = Router(supervisor, RouterConfig(deadline_s=15.0))
    supervisor.start()
    tracer = Tracer()
    try:
        for batch in range(args.batches):
            result = router.knn(workload.queries, workload.k, tracer=tracer)
            merged = canonicalize_rows(result.ids, result.distances)
            exact = np.array_equal(merged[0], truth[0]) and np.array_equal(
                merged[1], truth[1]
            )
            print(
                f"batch {batch}: shards={result.shards_answered} "
                f"partial={result.partial} "
                f"exact_vs_single_node={exact} "
                f"wall={result.wall_seconds * 1e3:.1f}ms"
            )

        print("\nper-shard health / breaker report:")
        for sid, info in sorted(router.check_health().items()):
            print(
                f"  shard {sid}: alive={info['alive']} "
                f"responsive={info['responsive']} "
                f"breaker={info['breaker']} spawns={info['spawns']} "
                f"live_count={info['live_count']}"
            )

        counters = router.metrics.counters
        ladder = {
            name: c.value
            for name, c in sorted(counters.items())
            if name.startswith("serve.") and c.value
        }
        print("\nladder counters:", ladder)
    finally:
        router.close()

    n_records = tracer.export_jsonl(args.out)
    print(f"\nwrote {n_records} stitched trace records to {args.out}\n")
    print(render_report(read_jsonl(args.out)))


if __name__ == "__main__":
    main()
