"""The distance kernels: one implementation of each, shared by the query
engines and elliptical k-means.

The batch KNN paths (:meth:`repro.index.base.VectorIndex.knn_batch`) promise
*bit-identical* results to the per-query search.  That rules out the usual
``cdist`` expansion ``sqrt(x·x - 2x·q + q·q)``, whose re-association changes
the last ulp, and also rules out replacing the per-query ``(d,) @ (d, d_r)``
projection with one ``(Q, d) @ (d, d_r)`` matmul (BLAS picks different
kernels for gemv vs gemm, and their row results differ bit-wise — measured,
not hypothetical).  What *is* safe is broadcasting the subtraction and
reducing the contiguous last axis: numpy's pairwise summation tree depends
only on the length and layout of the reduced axis, so

    np.linalg.norm(P[None, :, :] - Q[:, None, :], axis=2)[i]
        == np.linalg.norm(P - Q[i], axis=1)          # bit-for-bit

holds for C-contiguous inputs.  The helpers here package that identity (plus
the flat gather variant the iDistance scan uses) with query-chunking so the
broadcast buffer stays bounded.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

__all__ = [
    "multi_arange",
    "batch_l2_rows",
    "flat_l2",
    "batch_mahalanobis_rows",
    "normalize_rows",
    "cold_lru_physical_reads",
    "require_kernel_matrix",
]

#: Cap on the number of float64 elements a broadcast diff buffer may hold
#: (~64 MiB).  Chunking slices the *query* axis only, so each output row is
#: still produced by one contiguous last-axis reduction — bit-identity holds.
_MAX_BUFFER_ELEMS = 1 << 23


def require_kernel_matrix(name: str, arr: np.ndarray) -> np.ndarray:
    """Reject inputs the hot kernels would otherwise silently copy.

    The query-path kernels used to ``ascontiguousarray`` their operands on
    every call, which hid a per-query allocate+copy whenever a caller handed
    over float32 or F-ordered data.  All build paths now produce C-contiguous
    float64 once, at construction, so a non-conforming input here is a caller
    bug — raise early (``TypeError`` for dtype, ``ValueError`` for layout)
    instead of quietly re-paying the copy on the hot path.
    """
    arr = np.asarray(arr)
    if arr.dtype != np.float64:
        raise TypeError(
            f"{name} must be float64, got {arr.dtype} (convert once at "
            "construction; kernels no longer copy per call)"
        )
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if not arr.flags.c_contiguous:
        raise ValueError(
            f"{name} must be C-contiguous (F-ordered or strided views "
            "would force a silent per-call copy; make the copy once at "
            "construction instead)"
        )
    return arr


def multi_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], stops[i])`` for every segment.

    Segments may be empty (``stops[i] == starts[i]``); ``stops`` must be
    >= ``starts`` elementwise.  Output order is segment order, ascending
    within each segment — exactly the order a per-segment Python loop of
    ``np.arange`` calls would produce, without the per-segment overhead.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lengths = stops - starts
    if np.any(lengths < 0):
        raise ValueError("multi_arange requires stops >= starts")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    seg_starts = ends - lengths  # first output index of each segment
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, lengths)
    return np.repeat(starts, lengths) + within


def batch_l2_rows(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``(Q, n)`` matrix whose row ``i`` is bit-identical to
    ``np.linalg.norm(points - queries[i], axis=1)``.

    ``points`` is ``(n, d)``, ``queries`` is ``(Q, d)``.  Queries are
    processed in chunks so the ``(q, n, d)`` diff buffer stays under
    ~64 MiB; chunk boundaries cannot affect bit-identity because each
    output row's reduction runs over its own contiguous length-``d`` run.

    Both operands must already be C-contiguous float64 (see
    :func:`require_kernel_matrix`).
    """
    points = require_kernel_matrix("points", points)
    queries = require_kernel_matrix("queries", queries)
    n, d = points.shape
    n_queries = queries.shape[0]
    out = np.empty((n_queries, n), dtype=np.float64)
    if n == 0 or n_queries == 0:
        return out
    chunk = max(1, _MAX_BUFFER_ELEMS // max(1, n * d))
    for lo in range(0, n_queries, chunk):
        hi = min(lo + chunk, n_queries)
        diff = points[None, :, :] - queries[lo:hi, None, :]
        out[lo:hi] = np.linalg.norm(diff, axis=2)
    return out


def flat_l2(
    points: np.ndarray, positions: np.ndarray, queries: np.ndarray,
    query_of_entry: np.ndarray,
) -> np.ndarray:
    """Per-entry distances ``||points[positions[e]] - queries[query_of_entry[e]]||``.

    This is the shared-scan kernel: every (query, candidate) pair the batch
    scan needs is one row of a single ``(N, d)`` elementwise subtraction, so
    no distances are computed for pairs no query asked for, and each entry is
    bit-identical to the sequential per-block
    ``np.linalg.norm(block - q_proj, axis=1)``.

    Large gathers are chunked along the entry axis so the two gathered
    ``(N, d)`` temporaries stay cache-friendly instead of forcing fresh
    multi-hundred-MB allocations; rows are independent, so chunk boundaries
    cannot affect bit-identity.

    ``points`` and ``queries`` must already be C-contiguous float64 (see
    :func:`require_kernel_matrix`).
    """
    points = require_kernel_matrix("points", points)
    queries = require_kernel_matrix("queries", queries)
    n = positions.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    d = points.shape[1]
    out = np.empty(n, dtype=np.float64)
    chunk = max(1, _MAX_BUFFER_ELEMS // (4 * max(1, d)))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = points[positions[lo:hi]] - queries[query_of_entry[lo:hi]]
        out[lo:hi] = np.linalg.norm(diff, axis=1)
    return out


def batch_mahalanobis_rows(
    points: np.ndarray,
    centroids: np.ndarray,
    chol_invs: np.ndarray,
    penalties: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(n, k)`` matrix of (normalized) Mahalanobis distances.

    Column ``j`` is bit-identical to
    ``ClusterShape.normalized_distance(points)`` for the shape whose
    centroid is ``centroids[j]`` and whose inverse Cholesky factor is
    ``chol_invs[j]``: the whitening ``(points - c) @ L_inv.T`` runs as the
    same gemm, the squared norm as the same einsum, and the volume penalty
    as the same scalar ``0.5 * (penalty + msq)``.  ``penalties`` is the
    per-cluster precomputed ``d ln 2π + ln|C|`` term (``None`` means the
    raw quadratic form, i.e. ``normalization="none"``).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    k = centroids.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    for j in range(k):
        diff = points - centroids[j]
        z = diff @ chol_invs[j].T
        msq = np.einsum("ij,ij->i", z, z)
        if penalties is None:
            out[:, j] = msq
        else:
            out[:, j] = 0.5 * (penalties[j] + msq)
    return out


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Row-normalize ``(n, d)`` data to unit L2 norm; zero rows unchanged.

    The cosine metric reduces to L2 on unit vectors, so the *same*
    normalization must be applied to build data, online inserts, and
    queries.  The per-row norm is a contiguous last-axis reduction, so
    ``normalize_rows(Q)[i]`` is bit-identical to
    ``normalize_rows(Q[i][None, :])[0]`` — which keeps the batched and
    per-query paths bit-identical under cosine exactly as under L2.
    """
    rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    out = rows.copy()
    nonzero = norms > 0.0
    if np.any(nonzero):
        out[nonzero] = rows[nonzero] / norms[nonzero, None]
    return out


def cold_lru_physical_reads(page_sequence: np.ndarray, capacity: int) -> int:
    """Physical reads a cold LRU buffer pool of ``capacity`` pages performs
    for ``page_sequence`` (in order), mirroring
    :class:`repro.storage.buffer.BufferPool` exactly.

    Fast path: while the pool never fills, every first touch misses and
    every revisit hits, so physical reads = distinct pages.  Only when the
    working set exceeds the capacity does eviction order matter, and then
    the sequence is replayed through an exact LRU model (hit moves to MRU,
    overflow evicts LRU) — the same policy ``BufferPool.read``/``_admit``
    implement.
    """
    if page_sequence.size == 0:
        return 0
    distinct = int(np.unique(page_sequence).size)
    if distinct <= capacity:
        return distinct
    resident: OrderedDict[int, bool] = OrderedDict()
    physical = 0
    for page in page_sequence.tolist():
        if page in resident:
            resident.move_to_end(page)
            continue
        physical += 1
        resident[page] = True
        if len(resident) > capacity:
            resident.popitem(last=False)
    return physical
