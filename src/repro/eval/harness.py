"""Experiment runner: build indexes, run query batches, aggregate costs.

One :func:`run_query_batch` call realizes one (index scheme, dataset,
dimensionality) point of Figures 9/10: it answers every workload query on a
cold cache and averages page reads, CPU seconds and the deterministic CPU
work proxy.  :func:`compare_index_schemes` assembles the full panel the
paper plots (iMMDR, iLDR, gLDR, sequential scan).

Both cold-cache routes of :func:`run_workload` are bit-identical in results
and per-query cost accounting:

* sequential — the cold per-query loop,
  :meth:`~repro.index.base.VectorIndex.knn_loop`;
* batched — :meth:`~repro.index.base.VectorIndex.knn_batch`, sharing
  vectorized work across the workload inside one process.

Multi-process execution lives in the serve layer (:mod:`repro.serve`),
whose router stitches every shard's spans into one trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..data.workload import QueryWorkload
from ..index.base import (
    BatchKNNResult,
    QueryStats,
    VectorIndex,
    stack_answers,
)
from ..obs.tracer import Tracer, ensure_tracer
from ..index.global_ldr import GlobalLDRIndex
from ..index.idistance import ExtendedIDistance
from ..index.seqscan import SequentialScan
from ..reduction.base import ReducedDataset

__all__ = [
    "BatchCost",
    "run_query_batch",
    "run_workload",
    "measure_throughput",
    "compare_index_schemes",
]


@dataclass(frozen=True)
class BatchCost:
    """Per-query averages over the answered queries of one workload on
    one index."""

    scheme: str
    mean_page_reads: float
    mean_cpu_seconds: float
    median_cpu_seconds: float
    mean_cpu_work: float
    mean_distance_computations: float
    #: Queries answered: the averages' denominator.
    n_queries: int
    index_pages: int
    #: Workload rows admission skipped (NaN/Inf components; zero vectors
    #: under the cosine metric), left out of the averages.
    invalid_queries: int = 0


def _cost_from_result(
    index: VectorIndex, result: BatchKNNResult
) -> BatchCost:
    skipped = set(result.invalid_queries)
    stats = [s for row, s in enumerate(result.stats) if row not in skipped]

    def summarize(reduce: Callable, field: str) -> float:
        values = [getattr(s, field) for s in stats]
        return float(reduce(values)) if values else float("nan")

    return BatchCost(
        scheme=index.name,
        mean_page_reads=summarize(np.mean, "page_reads"),
        mean_cpu_seconds=summarize(np.mean, "cpu_seconds"),
        median_cpu_seconds=summarize(np.median, "cpu_seconds"),
        mean_cpu_work=summarize(np.mean, "cpu_work"),
        mean_distance_computations=summarize(
            np.mean, "distance_computations"
        ),
        n_queries=len(stats),
        index_pages=index.size_pages,
        invalid_queries=len(skipped),
    )


def _warm_loop(
    index: VectorIndex, workload: QueryWorkload, tracer: Tracer
) -> BatchKNNResult:
    """:meth:`~repro.index.base.VectorIndex.knn_loop` without its cache
    resets: the same admission and skip-and-report, each row answered on
    the buffer pool the rows before it left warm."""

    def answer_rows(queries, k, tracer):
        return stack_answers(
            [index._answer(query, k, tracer) for query in queries]
        )

    admitted, valid = index._admit(workload.queries, workload.k)
    return index._answer_block(
        answer_rows, admitted, valid, workload.k, tracer
    )


def run_query_batch(
    index: VectorIndex,
    workload: QueryWorkload,
    cold_cache: bool = True,
    collect_ids: Optional[List[np.ndarray]] = None,
    tracer: Optional[Tracer] = None,
) -> BatchCost:
    """Answer every query; return per-query cost averages.

    ``cold_cache=True`` clears the buffer pool before each query, making
    page counts per-query comparable (the paper reports per-query page
    accesses); it runs :func:`run_workload`'s per-query loop
    (:meth:`~repro.index.base.VectorIndex.knn_loop`).  Both settings
    admit the workload alike: a row admission skips is left out of the
    averages and counted in :attr:`BatchCost.invalid_queries`.
    Pass a list as ``collect_ids`` to also receive each row's answer ids
    (``-1`` for a skipped row), for precision checks on the same run.
    Pass a :class:`~repro.obs.Tracer` to record per-query ``knn.query``
    spans (with nested per-phase spans, for indexes that emit them)
    across the whole batch; results are bit-identical with or without
    one.
    """
    tracer = ensure_tracer(tracer)
    if cold_cache:
        result = index.knn_loop(workload.queries, workload.k, tracer=tracer)
    else:
        result = _warm_loop(index, workload, tracer)
    if collect_ids is not None:
        collect_ids.extend(result.ids)
    return _cost_from_result(index, result)


def run_workload(
    index: VectorIndex,
    workload: QueryWorkload,
    use_batch: bool = True,
    tracer: Optional[Tracer] = None,
) -> Tuple[np.ndarray, np.ndarray, List[QueryStats]]:
    """Answer every query on a cold cache: the ``(Q, k)`` ids/distances
    matrices plus per-query stats.

    ``use_batch=True`` runs :meth:`VectorIndex.knn_batch`;
    ``use_batch=False`` runs :meth:`VectorIndex.knn_loop`, the per-query
    loop clearing the buffer pool before each query.  Both admit the
    block alike (an invalid row comes back as ``-1`` ids, NaN distances
    and zero stats) and return the same answers and per-query
    page/distance accounting, bit for bit.  :func:`measure_throughput`
    times its two routes; :func:`run_query_batch` averages the
    ``use_batch=False`` route's stats over the rows it answered.
    """
    answer = index.knn_batch if use_batch else index.knn_loop
    result = answer(workload.queries, workload.k, tracer=tracer)
    return result.ids, result.distances, list(result.stats)


def measure_throughput(
    index: VectorIndex,
    workload: QueryWorkload,
    repeats: int = 1,
    tracer: Optional[Tracer] = None,
) -> Dict[str, float]:
    """Time the per-query loop against the batched fast path on one
    workload and verify they agree.

    Runs both :func:`run_workload` routes ``repeats`` times each (best-of
    timing, which filters scheduler noise), asserts the batch returns
    exactly the sequential ids and distances, and returns queries/second
    for each plus the batch speedup — the schema ``BENCH_throughput.json``
    records.  A real ``tracer`` also gets the ``knn.batch_speedup`` gauge.
    """
    tracer = ensure_tracer(tracer)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = {False: (np.inf, None), True: (np.inf, None)}
    # Interleave the routes round by round (rather than timing each in its
    # own phase) so transient machine load hits both alike; best-of then
    # filters the noisy rounds symmetrically.
    for _ in range(repeats):
        for use_batch in (False, True):
            start = time.perf_counter()
            ids, distances, _ = run_workload(index, workload, use_batch)
            elapsed = time.perf_counter() - start
            if elapsed < best[use_batch][0]:
                best[use_batch] = (elapsed, (ids, distances))
    t_seq, (seq_ids, seq_dists) = best[False]
    t_batch, (batch_ids, batch_dists) = best[True]
    if not np.array_equal(seq_ids, batch_ids):
        raise AssertionError("knn_batch ids diverge from sequential knn")
    if not np.array_equal(seq_dists, batch_dists):
        raise AssertionError(
            "knn_batch distances diverge from sequential knn"
        )
    qps_sequential = workload.n_queries / t_seq
    qps_batch = workload.n_queries / t_batch
    speedup = qps_batch / qps_sequential
    if tracer.enabled:
        tracer.gauge("knn.batch_speedup").set(speedup)
    return {
        "qps_sequential": qps_sequential,
        "qps_batch": qps_batch,
        "speedup_batch": speedup,
    }


def compare_index_schemes(
    reduced_mmdr: ReducedDataset,
    reduced_ldr: ReducedDataset,
    workload: QueryWorkload,
    include_seqscan: bool = True,
) -> Dict[str, BatchCost]:
    """The full Figure 9/10 panel at one dimensionality.

    * ``iMMDR`` — extended iDistance over the MMDR reduction,
    * ``iLDR`` — extended iDistance over the LDR reduction,
    * ``gLDR`` — one Hybrid tree per LDR cluster,
    * ``SeqScan`` — sequential scan of the LDR reduction.
    """
    builders: Dict[str, Callable[[], VectorIndex]] = {
        "iMMDR": lambda: ExtendedIDistance(reduced_mmdr),
        "iLDR": lambda: ExtendedIDistance(reduced_ldr),
        "gLDR": lambda: GlobalLDRIndex(reduced_ldr),
    }
    if include_seqscan:
        builders["SeqScan"] = lambda: SequentialScan(reduced_ldr)
    return {
        label: replace(
            run_query_batch(build(), workload), scheme=label
        )
        for label, build in builders.items()
    }
