"""Metric tables and how each value is derived.

``END_TO_END`` is printed by every untraced run, ``PER_LAYER`` by every
traced run, on every workload.  A layer a workload does not exercise
reports 0 there.  The names, units and directions here are the ones
``BENCHMARK.json`` declares (the benchmark's own tests hold the two in
step).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from workloads import Measurement, tail

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer"]

#: ``(name, unit, better)``.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("knn_p50_ms", "ms", "lower"),
    ("knn_tail_ms", "ms", "lower"),
    ("knn_qps", "1/s", "higher"),
    ("batch_rows_per_s", "1/s", "higher"),
    ("pages_per_query", "pages", "lower"),
    ("dist_evals_per_query", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_SHARE_LAYERS = ("index", "btree", "storage", "linalg", "bench")

PER_LAYER: List[Tuple[str, str, str]] = [
    # set-up: reduction, clustering, index build
    ("reduction.reduce_s", "s", "lower"),
    ("cluster.ekmeans_fit_s", "s", "lower"),
    ("cluster.kmeans_fit_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("btree.bulk_load_s", "s", "lower"),
    # single-query path, per query
    ("knn.base_us", "us", "lower"),
    *[(f"knn.share.{layer}", "fraction", "lower")
      for layer in _SHARE_LAYERS],
    ("index.knn_self_us", "us", "lower"),
    ("index.hybrid_expand_calls_per_query", "count", "lower"),
    ("index.hybrid_expand_us_per_query", "us", "lower"),
    ("btree.descend_calls_per_query", "count", "lower"),
    ("btree.descend_us_per_query", "us", "lower"),
    ("btree.key_cmp_per_query", "count", "lower"),
    ("storage.pool_reads_per_query", "count", "lower"),
    ("storage.pool_hit_rate", "fraction", "higher"),
    ("storage.pool_us_per_query", "us", "lower"),
    ("storage.fetch_us_per_query", "us", "lower"),
    ("storage.warm_pages_per_query", "pages", "lower"),
    ("linalg.kernel_us_per_query", "us", "lower"),
    # batch path, per row
    ("batch.base_us_per_row", "us", "lower"),
    *[(f"batch.share.{layer}", "fraction", "lower")
      for layer in _SHARE_LAYERS],
    ("index.batch_self_us_per_row", "us", "lower"),
    ("linalg.kernel_us_per_row", "us", "lower"),
    ("linalg.kernel_share", "fraction", "lower"),
    ("linalg.cold_lru_us_per_row", "us", "lower"),
    # writes (gcd-ingest)
    ("write_p50_ms", "ms", "lower"),
    ("write_p99_ms", "ms", "lower"),
    ("write_ops_per_s", "1/s", "higher"),
    ("wal_bytes_per_write", "B", "lower"),
    ("btree.insert_us", "us", "lower"),
    ("btree.delete_us", "us", "lower"),
    ("index.delta_fraction", "fraction", "lower"),
    ("wal.appends_per_write", "count", "lower"),
    ("wal.flush_us_per_write", "us", "lower"),
    ("wal.commit_us", "us", "lower"),
    ("recovery.checkpoint_count", "count", "lower"),
    ("recovery.checkpoint_ms", "ms", "lower"),
    ("ingest.oplog_append_us", "us", "lower"),
    ("ingest.drift_check_ms", "ms", "lower"),
    ("ingest.reorg_count", "count", "lower"),
    ("ingest.reorg_s", "s", "lower"),
    # serving (the gcd-served leg of gcd-immdr's traced run), per
    # single-row request or per shard call
    ("serve.base_us", "us", "lower"),
    ("serve.router_self_us", "us", "lower"),
    ("serve.encode_us", "us", "lower"),
    ("serve.send_us", "us", "lower"),
    ("serve.wait_us", "us", "lower"),
    ("serve.worker_us", "us", "lower"),
    ("serve.merge_us", "us", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.hedges_wasted", "count", "lower"),
    ("serve.partial_replies", "count", "lower"),
    # the run itself
    ("trace.overhead_pct", "%", "lower"),
    ("error_rate", "fraction", "lower"),
]


#: Host-probe time the timings are scaled to (see :func:`normalized`).
REF_PROBE_S = 1e-3


def normalized(samples: List[float], probes: List[float]) -> List[float]:
    """Each sample scaled to a host on which :func:`workloads.host_probe_s`
    takes :data:`REF_PROBE_S`, using the probe run just before the
    sample's round.

    The host is shared: the same work ran ~1.9x slower for 30 s and more
    at a time while CPU time equalled wall time, which moved a run's raw
    median by 20-30% between runs.  The probe slows with it, so the ratio
    stays put; the raw figures are kept in the advisory line.
    """
    return [s * REF_PROBE_S / h for s, h in zip(samples, probes)]


def per_query_medians(samples: List[float], queries: List[int]) -> List[float]:
    """Each query's median sample (every query is sent many times)."""
    by_query: Dict[int, List[float]] = {}
    for sample, query in zip(samples, queries):
        by_query.setdefault(query, []).append(sample)
    return [statistics.median(v) for v in by_query.values()]


def end_to_end(m: Measurement) -> Dict[str, float]:
    """End-to-end values of one untraced pass."""
    knn = normalized(m.knn_s, m.knn_h)
    blocks = normalized(m.batch_s, m.batch_h)
    return {
        "setup_s": statistics.median(m.setup_s),
        "knn_p50_ms": statistics.median(knn) * 1e3,
        # Across queries, not samples: the sample tail of a 10 s run is
        # set by a handful of host stalls the round's probe did not see,
        # and moved by 0.32 (IQR / median) between seeds.
        "knn_tail_ms": tail(per_query_medians(knn, m.knn_q))[0] * 1e3,
        "knn_qps": len(knn) / sum(knn),
        "batch_rows_per_s": m.batch_rows / sum(blocks),
        "pages_per_query": m.exact["pages_per_query"],
        "dist_evals_per_query": m.exact["dist_evals_per_query"],
        "peak_rss_mb": m.peak_rss_mb,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    plain: Measurement,
    traced: Measurement,
    rec,
    served: Optional[Measurement] = None,
) -> Dict[str, float]:
    """Per-layer values from the traced pass (and, for the write path and
    the overhead, the untraced pass it is compared with).  ``served`` is
    the traced pass of a ``gcd-served`` leg recorded by the same ``rec``
    under the ``serve_knn`` / ``serve_batch`` kinds."""
    n_knn = rec.requests.get("knn", [0, 0, 0])[0]
    rows = rec.requests.get("batch", [0, 0, 0])[1]
    knn_us = rec.requests.get("knn", [0, 0, 0])[2] / 1e3
    batch_us = rec.requests.get("batch", [0, 0, 0])[2] / 1e3
    n_ops = len(traced.write_s)

    def per_knn(*spans: str, how: str = "self") -> float:
        get = rec.self_us if how == "self" else rec.total_us
        return _ratio(sum(get("knn", s) for s in spans), n_knn)

    n_serve, _, serve_ns = rec.requests.get("serve_knn", [0, 0, 0])

    def per_serve(span: str, how: str = "self") -> float:
        get = rec.self_us if how == "self" else rec.total_us
        return _ratio(get("serve_knn", span), n_serve)

    counters = served.serve_counters if served is not None else {}

    def calls(kind: str, *spans: str) -> int:
        return sum(rec.calls(kind, s) for s in spans)

    def mean_us(kind: str, span: str) -> float:
        return _ratio(rec.total_us(kind, span), rec.calls(kind, span))

    kernels = [s for (k, s) in rec.stats if s.startswith("linalg.")]
    kernels = sorted(set(kernels))
    knn_layers = rec.layer_self_us("knn")
    batch_layers = rec.layer_self_us("batch")
    out = {
        "reduction.reduce_s": rec.total_us("setup", "reduction.reduce") / 1e6,
        "cluster.ekmeans_fit_s":
            rec.total_us("setup", "cluster.ekmeans_fit") / 1e6,
        "cluster.kmeans_fit_s":
            rec.total_us("setup", "cluster.kmeans_fit") / 1e6,
        "index.build_s": rec.self_us("setup", "index.build") / 1e6,
        "btree.bulk_load_s": rec.total_us("setup", "btree.bulk_load") / 1e6,
        "knn.base_us": _ratio(knn_us, n_knn),
        "index.knn_self_us": per_knn("index.knn"),
        "index.hybrid_expand_calls_per_query":
            _ratio(calls("knn", "index.hybrid_expand"), n_knn),
        "index.hybrid_expand_us_per_query": per_knn("index.hybrid_expand"),
        "btree.descend_calls_per_query": _ratio(
            calls("knn", "btree.descend", "btree.descend_path",
                  "btree.cursor"),
            n_knn,
        ),
        "btree.descend_us_per_query": per_knn(
            "btree.descend", "btree.descend_path", "btree.cursor"
        ),
        "btree.key_cmp_per_query": _ratio(
            rec.extra("knn", "btree.descend")
            + rec.extra("knn", "btree.descend_path"),
            n_knn,
        ),
        "storage.pool_reads_per_query":
            _ratio(calls("knn", "storage.pool_read"), n_knn),
        "storage.pool_hit_rate": _ratio(
            traced.pool_hits, traced.pool_hits + traced.pool_misses
        ),
        "storage.pool_us_per_query": per_knn("storage.pool_read"),
        "storage.fetch_us_per_query":
            per_knn("storage.fetch", "storage.verify"),
        "storage.warm_pages_per_query": plain.exact["warm_pages_per_query"],
        "linalg.kernel_us_per_query": per_knn(*kernels),
        "batch.base_us_per_row": _ratio(batch_us, rows),
        "index.batch_self_us_per_row":
            _ratio(rec.self_us("batch", "index.knn_batch"), rows),
        "linalg.kernel_us_per_row": _ratio(
            sum(rec.self_us("batch", s) for s in kernels), rows
        ),
        "linalg.kernel_share": _ratio(
            sum(rec.self_us("batch", s) for s in kernels), batch_us
        ),
        "linalg.cold_lru_us_per_row":
            _ratio(rec.self_us("batch", "linalg.cold_lru"), rows),
        "btree.insert_us": mean_us("write", "btree.insert"),
        "btree.delete_us": mean_us("write", "btree.delete"),
        "index.delta_fraction": (
            statistics.fmean(traced.delta_fractions)
            if traced.delta_fractions else 0.0
        ),
        "wal.appends_per_write":
            _ratio(rec.calls("write", "wal.append"), n_ops),
        "wal.flush_us_per_write":
            _ratio(rec.total_us("write", "wal.flush"), n_ops),
        "wal.commit_us": mean_us("write", "wal.commit"),
        "recovery.checkpoint_count": plain.exact.get("checkpoint_count", 0),
        "recovery.checkpoint_ms":
            mean_us("write", "recovery.checkpoint") / 1e3,
        "ingest.oplog_append_us": mean_us("write", "ingest.oplog_append"),
        "ingest.drift_check_ms":
            mean_us("write", "ingest.drift_check") / 1e3,
        "ingest.reorg_count": plain.exact.get("reorg_count", 0),
        "ingest.reorg_s": mean_us("write", "ingest.reorg") / 1e6,
        "serve.base_us": _ratio(serve_ns / 1e3, n_serve),
        "serve.router_self_us": per_serve("serve.router_knn"),
        "serve.encode_us": per_serve("serve.encode"),
        "serve.send_us": per_serve("serve.send"),
        "serve.wait_us": mean_us("serve_knn", "serve.wait"),
        "serve.worker_us": _ratio(
            rec.extra("serve_knn", "serve.wait") * 1e6,
            rec.calls("serve_knn", "serve.wait"),
        ),
        "serve.merge_us": per_serve("serve.merge", how="total"),
        "serve.retries": counters.get("serve.retries", 0),
        "serve.hedges_wasted": counters.get("serve.hedges_wasted", 0),
        "serve.partial_replies": counters.get("serve.partial_results", 0),
        "trace.overhead_pct": 100.0 * (
            _ratio(
                statistics.median(normalized(traced.knn_s, traced.knn_h)),
                statistics.median(normalized(plain.knn_s, plain.knn_h)),
            ) - 1.0
        ),
        "error_rate": _ratio(
            plain.failed + traced.failed,
            plain.attempted + traced.attempted,
        ),
    }
    for layer in _SHARE_LAYERS:
        out[f"knn.share.{layer}"] = _ratio(knn_layers.get(layer, 0.0), knn_us)
        out[f"batch.share.{layer}"] = _ratio(
            batch_layers.get(layer, 0.0), batch_us
        )
    if plain.write_s:
        out["write_p50_ms"] = statistics.median(plain.write_s) * 1e3
        out["write_p99_ms"] = tail(plain.write_s)[0] * 1e3
        out["write_ops_per_s"] = len(plain.write_s) / sum(plain.write_s)
        out["wal_bytes_per_write"] = plain.exact["wal_bytes_per_write"]
    else:
        for name in ("write_p50_ms", "write_p99_ms", "write_ops_per_s",
                     "wal_bytes_per_write"):
            out[name] = 0.0
    return out
