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

``mode="approx"`` specs add a fifth way: the PQ-encoded scan-then-rerank
path, whose answers are gated on a measured ``recall_at_k`` band against
the exact fingerprinted reference instead of fingerprint identity
(approximate ADC floats need not round bit-identically across BLAS
builds and platforms), with a per-depth ``recall_curve`` kept advisory.

The produced :class:`~repro.bench.report.BenchReport` is what the
regression gate compares against committed baselines.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from ..data.workload import QueryWorkload
from ..index.base import QueryStats, VectorIndex
from ..obs.health import HealthSampler
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, ensure_tracer
from ..recovery import checkpoint, recover
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


def _run_sequential(
    index: VectorIndex,
    workload: QueryWorkload,
    mode: str = "exact",
    rerank_depth: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
    """The reference execution: cold-cache per-query loop."""
    knn_kwargs = (
        {}
        if mode == "exact"
        else {"mode": mode, "rerank_depth": rerank_depth}
    )
    id_rows: List[np.ndarray] = []
    dist_rows: List[np.ndarray] = []
    stats: List[QueryStats] = []
    for query in workload.queries:
        index.reset_cache()
        res = index.knn(query, workload.k, **knn_kwargs)
        id_rows.append(res.ids)
        dist_rows.append(res.distances)
        stats.append(res.stats)
    return np.vstack(id_rows), np.vstack(dist_rows), stats


def _require_match(name: str, got: str, want: str, context: str) -> None:
    if got != want:
        raise FingerprintMismatch(
            f"{context}: {name} fingerprint {got} != reference {want}"
        )


def _recall_at_k(reference_ids: np.ndarray, got_ids: np.ndarray) -> float:
    """Mean per-query recall of ``got_ids`` against the exact answers.

    Computed over id *sets* (order- and distance-free): ties at the k
    boundary may legally reorder without a recall penalty.  Rounded like
    the other float counters so the emitted value is byte-stable.
    """
    total = 0.0
    n_rows = reference_ids.shape[0]
    for ref_row, got_row in zip(reference_ids, got_ids):
        reference = ref_row[ref_row >= 0]
        if reference.size == 0:
            total += 1.0
            continue
        total += (
            np.intersect1d(reference, got_row).size / reference.size
        )
    return round(total / max(1, n_rows), 6)


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
        seq_ids, seq_dists, stats = _run_sequential(index, workload)
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

    # Approx leg — attach the PQ encoder, then measure recall@k of the
    # scan-then-rerank path against the exact fingerprinted answers.
    # Approximate results may legally differ across BLAS builds and
    # platforms (ADC floats need not round bit-identically), so no approx
    # fingerprint is emitted: the gate is the banded recall_at_k counter,
    # and the approx-batch agreement below is asserted at runtime only.
    recall_curve: dict = {}
    if spec.mode == "approx":
        with tracer.span(
            "bench.encode", counters=index.counters, spec=spec.name
        ):
            index.attach_encoder(
                spec.build_encoder_config(),
                seed=spec.encode_seed,
                tracer=tracer,
            )
        with tracer.span(
            "bench.approx", counters=index.counters, spec=spec.name
        ):
            start = time.perf_counter()
            apx_ids, apx_dists, apx_stats = _run_sequential(
                index, workload, mode="approx"
            )
            wall_approx = time.perf_counter() - start
        apx_batch = index.knn_batch(
            workload.queries, workload.k, mode="approx"
        )
        _require_match(
            "approx_batch",
            result_fingerprint(apx_batch.ids, apx_batch.distances),
            result_fingerprint(apx_ids, apx_dists),
            spec.name,
        )
        counters.update(
            recall_at_k=_recall_at_k(seq_ids, apx_ids),
            approx_page_reads_cold=int(
                sum(s.page_reads for s in apx_stats)
            ),
            approx_distance_computations=int(
                sum(s.distance_computations for s in apx_stats)
            ),
            approx_cpu_work=int(sum(s.cpu_work for s in apx_stats)),
            encode_code_pages=int(index.encoder.total_code_pages),
        )
        advisory.update(
            wall_seconds_approx=wall_approx,
            qps_approx=workload.n_queries / wall_approx,
            speedup_approx=wall_sequential / wall_approx,
        )
        for depth in sorted({1, 2, spec.rerank_depth}):
            depth_ids, _, _ = _run_sequential(
                index, workload, mode="approx", rerank_depth=depth
            )
            recall_curve[str(depth)] = _recall_at_k(seq_ids, depth_ids)

    # Leg 3 — transient read faults: same answers, observable retries.
    plan = spec.build_fault_plan()
    leg_metrics.reset()
    faulty = index.enable_faults(plan, metrics=leg_metrics)
    try:
        with tracer.span(
            "bench.faulted", counters=index.counters, spec=spec.name
        ):
            fault_ids, fault_dists, _ = _run_sequential(index, workload)
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
        wal_path = workdir / "wal.log"
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
            upd_ids, upd_dists, _ = _run_sequential(index, workload)
            fingerprints["updated"] = result_fingerprint(upd_ids, upd_dists)

            with tracer.span("bench.recover", spec=spec.name):
                start = time.perf_counter()
                recovered, rec_report = recover(wal_path)
                recover_s = time.perf_counter() - start
            rec_ids, rec_dists, _ = _run_sequential(recovered, workload)
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
        recall_curve=recall_curve,
    )
