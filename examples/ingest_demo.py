#!/usr/bin/env python
"""Continuous-ingestion demo: drift trigger, reorg, mid-swap crash drill.

Run:
    python examples/ingest_demo.py [--points 500] [--dims 8] \
                                   [--scheme iMMDR] [--root DIR]

``--root`` must name a directory that holds no earlier run; by default
the demo works in a fresh temporary directory and removes it at exit.

The script bulk-builds generation 1 of an ingestion pipeline from a
synthetic clustered dataset, then streams mutation batches whose inserts
sit *off* the fitted subspaces — the live mean projection error climbs
away from the bulk-build baseline until the drift trigger fires and the
pipeline re-clusters the live set into generation 2, swapping it in with
one atomic ``CURRENT`` pointer replace (queries never block).

It then runs a crash drill: a forked child repeats the workload and is
SIGKILLed in the middle of the swap sequence (an armed
:class:`~repro.storage.CrashPoint` marks the spot); the parent
reopens the store and prints the recovery report, showing a landing on
exactly one generation — old or new, never a hybrid.  Without ``fork``
the drill degrades to an in-process simulated crash.
"""

import argparse
import os
import signal
import tempfile

import numpy as np

from repro.data import SyntheticSpec, generate_correlated_clusters
from repro.data.workload import sample_queries
from repro.index import INDEX_SCHEMES
from repro.ingest import IngestPipeline, batch_fingerprint
from repro.reduction import MMDRReducer
from repro.storage import CrashError, CrashPoint


def drift_stream(points, reduce_fn, n_inserts, rng):
    """Inserts at cluster members pushed off their fitted subspace —
    in-plane keys stay valid while the projection residual grows."""
    subspaces = reduce_fn(points).subspaces
    n = points.shape[0]
    ops = []
    for i in range(n_inserts):
        sub = subspaces[i % len(subspaces)]
        member = points[int(sub.member_ids[i % sub.member_ids.size])]
        jitter = rng.normal(0.0, 1.0, points.shape[1])
        jitter -= sub.basis @ (sub.basis.T @ jitter)
        jitter *= 0.15 / np.linalg.norm(jitter)
        ops.append(("insert", member + jitter, n + i, 5.0))
    ops += [("delete", rid) for rid in range(max(2, n // 50))]
    return ops


def run_stream(root, points, ops, reduce_fn, scheme, queries, k):
    """The live leg: batched mutations, auto reorg on drift."""
    pipe, boot = IngestPipeline.create(
        root, points, reduce_fn, scheme, auto_reorg=True
    )
    print(
        f"generation {boot.generation} online: "
        f"{pipe.n_live} live vectors, committed_seq={boot.committed_seq}"
    )
    try:
        batch = max(1, len(ops) // 4)
        for start in range(0, len(ops), batch):
            chunk = ops[start:start + batch]
            trigger = pipe.apply_batch(chunk, label="demo_stream")
            worst = max(trigger.scores.values(), default=0.0)
            print(
                f"batch of {len(chunk)}: generation={pipe.generation} "
                f"drift_max={worst:.3f} fired={trigger.fired}"
            )
        for report in pipe.reorg_reports:
            print(
                f"reorg: gen {report.old_generation} -> "
                f"{report.new_generation} over {report.n_points} points, "
                f"{report.swap_writes} guarded writes, drift "
                f"{report.drift_before:.3f} -> {report.drift_after:.3f} "
                f"({report.wall_seconds * 1e3:.0f}ms)"
            )
            for reason in report.reasons:
                print(f"  trigger: {reason}")
        result = pipe.knn_batch(queries, k)
        return batch_fingerprint(result.ids, result.distances)
    finally:
        pipe.close()


def _build_and_crash(root, points, ops, reduce_fn, scheme, at_write):
    """Child body: repeat the workload, die mid-swap."""
    pipe, _ = IngestPipeline.create(
        root, points, reduce_fn, scheme, auto_reorg=False
    )
    for op in ops:
        pipe.apply(op)
    pipe.store.clock.arm(CrashPoint(at_write, "after"))
    try:
        pipe.reorg()
    except CrashError:
        # A real crash, not an exception unwind: no flush, no atexit.
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(2)  # crashpoint never fired


def crash_drill(root, points, ops, reduce_fn, scheme, queries, k,
                at_write=6):
    print(f"\ncrash drill: SIGKILL at guarded write +{at_write} of the swap")
    if hasattr(os, "fork"):
        pid = os.fork()
        if pid == 0:
            _build_and_crash(root, points, ops, reduce_fn, scheme, at_write)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status), "child exited instead of crashing"
        print(f"child killed by signal {os.WTERMSIG(status)} mid-swap")
    else:  # pragma: no cover - non-fork platforms
        try:
            _build_and_crash(root, points, ops, reduce_fn, scheme, at_write)
        except SystemExit:
            pass
        print("(no fork: simulated the crash in-process)")

    recovered, report = IngestPipeline.open(
        root, reduce_fn=reduce_fn, scheme=scheme, auto_reorg=False
    )
    try:
        result = recovered.knn_batch(queries, k)
        fp = batch_fingerprint(result.ids, result.distances)
    finally:
        recovered.close()
    print(
        f"recovered to generation {report.generation}: "
        f"committed_seq={report.committed_seq} "
        f"ops_replayed={report.ops_replayed} "
        f"oplog_dropped={report.oplog_dropped} "
        f"garbage_collected={list(report.generations_collected)}"
    )
    return report.generation, fp


def run_demo(args, root) -> None:
    """Drift stream and crash drill, both under ``root``."""
    spec = SyntheticSpec(
        n_points=args.points,
        dimensionality=args.dims,
        n_clusters=2,
        retained_dims=2,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    points = generate_correlated_clusters(
        spec, np.random.default_rng(args.seed)
    ).points

    def reduce_fn(p):
        return MMDRReducer().reduce(p, np.random.default_rng(0))

    workload = sample_queries(
        points, 6, np.random.default_rng(5), k=5, method="perturbed"
    )
    ops = drift_stream(
        points, reduce_fn, args.inserts, np.random.default_rng(1234)
    )
    print(
        f"dataset: {args.points} x {args.dims}, scheme {args.scheme}, "
        f"{len(ops)} streamed mutations"
    )

    live_fp = run_stream(
        os.path.join(root, "live"), points, ops, reduce_fn,
        args.scheme, workload.queries, workload.k,
    )
    print(f"post-reorg answer fingerprint: {live_fp}")

    generation, fp = crash_drill(
        os.path.join(root, "crashed"), points, ops, reduce_fn,
        args.scheme, workload.queries, workload.k,
    )
    print(
        f"crash drill landed on generation {generation} with "
        f"fingerprint {fp} — exactly one generation, no hybrid"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=500)
    parser.add_argument("--dims", type=int, default=8)
    parser.add_argument("--inserts", type=int, default=60)
    parser.add_argument("--scheme", default="iMMDR",
                        choices=sorted(INDEX_SCHEMES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--root", default=None)
    args = parser.parse_args()
    if args.root is None:
        with tempfile.TemporaryDirectory(prefix="ingest_demo_") as root:
            run_demo(args, root)
    else:
        run_demo(args, args.root)


if __name__ == "__main__":
    main()
