"""Execute a benchmark workload through every execution mode and report.

One :func:`run_bench` call proves two things about a
:class:`~repro.bench.spec.WorkloadSpec` and records the evidence:

1. **Answer stability.**  The same seeded workload is answered four ways —
   the sequential per-query loop, the batched engine, the sequential loop
   under a transient-read fault plan, and (after an online update stream)
   both the live mutated index and its crash-recovered twin rebuilt from
   checkpoint + WAL.  Every mode's result fingerprint must agree with its
   reference, or :class:`FingerprintMismatch` is raised — a wrong answer
   is a hard failure, not a metric.
2. **Logical cost.**  Machine-independent counters are collected from the
   cold-cache sequential leg (the paper's per-query measurement protocol)
   plus the fault and recovery machinery, and wall-clock observations are
   kept strictly advisory.

The produced :class:`~repro.bench.report.BenchReport` is what the
regression gate compares against committed baselines.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Optional, Union

from ..eval.harness import run_workload
from ..obs.health import HealthSampler
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, ensure_tracer
from ..recovery import WAL_NAME, checkpoint, recover
from ..recovery.harness import apply_op
from ..storage.wal import WriteAheadLog
from .fingerprint import result_fingerprint
from .report import BenchReport
from .spec import WorkloadSpec

__all__ = ["FingerprintMismatch", "run_bench"]


class FingerprintMismatch(AssertionError):
    """Two execution modes of the same workload returned different answers.

    This is the benchmark's correctness gate firing: sequential, batched,
    fault-injected and crash-recovered execution are bit-identical by
    contract, so a mismatch means a fast path, the fault retry path, or
    recovery broke — whatever the cost counters say.
    """


def _require_match(name: str, got: str, want: str, context: str) -> None:
    if got != want:
        raise FingerprintMismatch(
            f"{context}: {name} fingerprint {got} != reference {want}"
        )


def run_bench(
    spec: WorkloadSpec,
    tracer: Optional[Tracer] = None,
    workdir: Optional[Union[str, Path]] = None,
) -> BenchReport:
    """Run ``spec`` through every execution mode and build its report.

    ``workdir`` hosts the WAL + checkpoint files of the recovery leg; a
    temporary directory is used (and removed) when omitted.  Pass a real
    ``tracer`` to get one span per execution leg, with cost deltas.
    """
    tracer = ensure_tracer(tracer)
    points = spec.build_points()
    with tracer.span("bench.build", spec=spec.name, scheme=spec.scheme):
        reduced = spec.build_reduced(points)
        index = spec.build_index(reduced)
    workload = spec.build_workload(points)

    counters: dict = {}
    advisory: dict = {}
    fingerprints: dict = {}
    sampler = HealthSampler()
    sampler.sample(index, label="build")
    # One registry reused across instrumented legs, reset between modes so
    # one leg's fault counters cannot leak into another's.
    leg_metrics = MetricsRegistry()

    # Leg 1 — sequential cold-cache loop: the counter reference.
    with tracer.span(
        "bench.sequential", counters=index.counters, spec=spec.name
    ):
        start = time.perf_counter()
        seq_ids, seq_dists, stats = run_workload(
            index, workload, use_batch=False
        )
        wall_sequential = time.perf_counter() - start
    fingerprints["sequential"] = result_fingerprint(seq_ids, seq_dists)
    counters.update(
        page_reads_cold=int(sum(s.page_reads for s in stats)),
        distance_computations=int(
            sum(s.distance_computations for s in stats)
        ),
        distance_flops=int(sum(s.distance_flops for s in stats)),
        key_comparisons=int(sum(s.key_comparisons for s in stats)),
        cpu_work=int(sum(s.cpu_work for s in stats)),
        index_pages=int(index.size_pages),
        n_queries=int(workload.n_queries),
        k=int(workload.k),
    )

    # Leg 2 — batched engine: must reproduce the sequential answers.
    with tracer.span(
        "bench.batch", counters=index.counters, spec=spec.name
    ):
        start = time.perf_counter()
        batch = index.knn_batch(workload.queries, workload.k)
        wall_batch = time.perf_counter() - start
    fingerprints["batch"] = result_fingerprint(batch.ids, batch.distances)
    _require_match(
        "batch", fingerprints["batch"], fingerprints["sequential"], spec.name
    )

    # Warm pass — buffer hit rate over the whole workload on one shared
    # cache (deterministic: fixed access order against an LRU pool).
    with tracer.span(
        "bench.warm", counters=index.counters, spec=spec.name
    ):
        index.reset_cache()
        hits0 = index.pool.hits
        misses0 = index.pool.misses
        for query in workload.queries:
            index.knn(query, workload.k)
        warm_hits = index.pool.hits - hits0
        warm_misses = index.pool.misses - misses0
    warm_total = warm_hits + warm_misses
    counters["buffer_hit_rate_warm"] = (
        round(warm_hits / warm_total, 6) if warm_total else 0.0
    )

    # Leg 3 — transient read faults: same answers, observable retries.
    plan = spec.build_fault_plan()
    leg_metrics.reset()
    faulty = index.enable_faults(plan, metrics=leg_metrics)
    try:
        with tracer.span(
            "bench.faulted", counters=index.counters, spec=spec.name
        ):
            fault_ids, fault_dists, _ = run_workload(
                index, workload, use_batch=False
            )
    finally:
        index.disable_faults()
    fingerprints["faulted"] = result_fingerprint(fault_ids, fault_dists)
    _require_match(
        "faulted",
        fingerprints["faulted"],
        fingerprints["sequential"],
        spec.name,
    )
    fault_counters = faulty.fault_metrics.counters
    counters["faults_injected"] = int(
        fault_counters["faults.injected"].value
        if "faults.injected" in fault_counters
        else 0
    )
    counters["faults_retried"] = int(
        fault_counters["faults.retried"].value
        if "faults.retried" in fault_counters
        else 0
    )
    sampler.sample(index, label="queries")

    advisory.update(
        wall_seconds_sequential=wall_sequential,
        wall_seconds_batch=wall_batch,
        qps_sequential=workload.n_queries / wall_sequential,
        qps_batch=workload.n_queries / wall_batch,
        speedup_batch=wall_sequential / wall_batch,
    )

    # Leg 4 — online updates under WAL, then crash recovery: the live
    # mutated index and its recovered twin must answer identically.
    if spec.has_updates:
        ops = spec.build_ops(points, reduced.n_points)
        owns_workdir = workdir is None
        workdir = (
            Path(tempfile.mkdtemp(prefix="repro_bench_"))
            if owns_workdir
            else Path(workdir)
        )
        workdir.mkdir(parents=True, exist_ok=True)
        wal_path = workdir / WAL_NAME
        wal = WriteAheadLog(wal_path)
        try:
            index.enable_wal(wal)
            checkpoint(index, workdir / "ckpt0")
            with tracer.span(
                "bench.updates", counters=index.counters, spec=spec.name
            ):
                start = time.perf_counter()
                for op in ops:
                    apply_op(index, op)
                update_s = time.perf_counter() - start
            wal.flush()
            upd_ids, upd_dists, _ = run_workload(
                index, workload, use_batch=False
            )
            fingerprints["updated"] = result_fingerprint(upd_ids, upd_dists)

            with tracer.span("bench.recover", spec=spec.name):
                start = time.perf_counter()
                recovered, rec_report = recover(wal_path)
                recover_s = time.perf_counter() - start
            rec_ids, rec_dists, _ = run_workload(
                recovered, workload, use_batch=False
            )
            fingerprints["recovered"] = result_fingerprint(
                rec_ids, rec_dists
            )
            _require_match(
                "recovered",
                fingerprints["recovered"],
                fingerprints["updated"],
                spec.name,
            )

            # A fresh checkpoint must drop replay work to (near) zero.
            checkpoint(index, workdir / "ckpt1")
            _, rec_after = recover(wal_path)
            counters.update(
                n_update_ops=len(ops),
                wal_records_replayed=int(rec_report.records_scanned),
                wal_txns_committed=int(rec_report.committed_txns),
                wal_metas_applied=int(rec_report.metas_applied),
                wal_pages_redone=int(rec_report.pages_redone),
                wal_records_after_checkpoint=int(
                    rec_after.records_scanned
                ),
                live_count_after_updates=int(index.live_count),
            )
            advisory.update(
                update_seconds=update_s,
                update_ops_per_s=(
                    len(ops) / update_s if update_s > 0 else 0.0
                ),
                recover_seconds=recover_s,
            )
            # Sampled while the WAL is still attached, so the health
            # section carries the wal_* gauges of the mutated index.
            sampler.sample(index, label="updates")
        finally:
            wal.close()
            index.disable_wal()
            if owns_workdir:
                shutil.rmtree(workdir, ignore_errors=True)

    return BenchReport(
        name=spec.name,
        spec=spec.to_dict(),
        counters=counters,
        advisory=advisory,
        fingerprints=fingerprints,
        health=sampler.report().as_dict(),
    )
