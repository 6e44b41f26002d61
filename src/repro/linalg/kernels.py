"""The distance kernels: one implementation of each, shared by the query
engines and elliptical k-means.

The batch KNN paths (:meth:`repro.index.base.VectorIndex.knn_batch`) promise
*bit-identical* results to the per-query search.  That rules out the usual
``cdist`` expansion ``sqrt(x·x - 2x·q + q·q)``, whose re-association changes
the last ulp, and also rules out replacing the per-query ``(d,) @ (d, d_r)``
projection with one 2-d ``(Q, d) @ (d, d_r)`` matmul: that runs BLAS gemm,
whose row results differ bit-wise from the per-row gemv (measured, not
hypothetical).  A *stacked* ``(..., 1, d) @ (..., d, d_r)`` matmul is
safe: numpy runs one gemv per stack item, so :func:`row_gemv` and
:func:`row_dots` (the stacked ``(1, w) @ (w, 1)`` product, one dot per
item) batch the projection and its norm — over queries and over
same-width subspaces at once — with the per-row bits.  Also safe is
broadcasting the subtraction and reducing the contiguous last axis:
numpy's pairwise summation tree depends only on the length and layout of
the reduced axis, so

    np.linalg.norm(P[None, :, :] - Q[:, None, :], axis=2)[i]
        == np.linalg.norm(P - Q[i], axis=1)          # bit-for-bit

holds for C-contiguous inputs.  The helpers here package that identity (plus
the flat gather variant the iDistance scan uses) with query-chunking so the
broadcast buffer stays bounded.

The same tree can be replayed across *columns*.  For a contiguous float64
row of length ``d``, ``np.add.reduce`` adds ``pairwise(row)`` to its zero
identity, where ``pairwise`` is

* ``d < 8``: sequential adds;
* ``d <= 128``: eight strided accumulators ``r[j] = row[j] + row[j+8] +
  ...`` folded as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the
  ``d mod 8`` tail added sequentially;
* ``d > 128``: the two halves, split at a multiple of 8, summed
  recursively and added.

Running each of those adds as one whole-column vector add over a
``(d, n)`` block gives every column the bits its row reduce would — and it
is several times faster than reducing ``n`` short rows one by one, which is
why :func:`flat_l2` takes column-major ``(d, m)`` blocks.  A large
contiguous run is streamed: its squared differences are formed a few
coordinate rows at a time and added into eight accumulator rows in that
same order, so no ``(d, m)`` temporary is made (gLDR's 64-d outlier scan
scores over 10k entries per query this way).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Union

import numpy as np

__all__ = [
    "row_gemv",
    "row_dots",
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

#: Size (in elements) from which a contiguous column run is streamed
#: (:func:`_streamed_square_sums`) instead of differenced whole: below it
#: the ``(d, n)`` difference and its input stay in cache and the
#: whole-block pass makes fewer calls.  Measured on runs of widths
#: 13-200 and 1k-12k entries (2-core Xeon, 2 MB L2 per core): from 192k
#: elements (1.5 MiB) up, streaming took 0.63-0.94 of the whole-block
#: time; at 128k and below, 0.96-1.37.  Runs no taller than the
#: streaming buffers' 12 rows are never streamed: it would save no
#: memory, and their tail rows cost extra calls.  Both paths give the
#: same bits.
_STREAM_MIN_ELEMS = 3 << 16

#: Entry count below which :func:`flat_l2` scores rows instead of columns:
#: under it a column pass's fixed per-call cost (a dozen whole-column ops)
#: outweighs the row reduce's per-row cost (break-even measured near 256
#: entries of 8-d rows).  Both paths give the same bits, so this is a
#: speed choice only.  ``ExtendedIDistance``'s batch scan pools segments
#: shorter than this across queries into one call.
_BATCH_SEG_VIEW_MIN = 256


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


def row_gemv(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Stacked products of ``(..., 1, d)`` rows with ``(..., d, w)``
    matrices (broadcast over the leading axes), each row bit-identical to
    ``row @ matrix``: numpy runs a stacked matmul as one BLAS gemv per
    stack item, where a 2-d ``(Q, d) @ (d, w)`` would run gemm, whose
    bits differ."""
    return np.matmul(rows, matrix)


def row_dots(rows: np.ndarray) -> np.ndarray:
    """Squared norms ``(..., 1, 1)`` of ``(..., 1, w)`` rows, each
    bit-identical to ``np.dot(row, row)``: the stacked ``(1, w) @ (w, 1)``
    matmul runs one dot per stack item."""
    return np.matmul(rows, rows.swapaxes(-1, -2))


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


def _pairwise_rows(sq: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Column sums of ``sq[lo:hi]`` in numpy's pairwise order (module
    docstring): column ``e`` is bit-identical to ``np.add.reduce`` of the
    contiguous row ``sq[lo:hi, e]``.

    Works in place: the sums land in row ``sq[lo]``, which is returned,
    and rows ``lo..hi-1`` are overwritten on the way, so no temporary
    the size of ``sq`` is allocated."""
    n = hi - lo
    res = sq[lo]
    if n < 8:
        for i in range(lo + 1, hi):
            res += sq[i]
        return res
    if n <= 128:
        acc = sq[lo : lo + 8]
        body = lo + n - n % 8
        for i in range(lo + 8, body, 8):
            acc += sq[i : i + 8]
        # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), folded into r0 one
        # contiguous row at a time.
        for step in (1, 2, 4):
            for j in range(0, 8, 2 * step):
                row = acc[j]
                row += acc[j + step]
        for i in range(body, hi):
            res += sq[i]
        return res
    half = n // 2
    half -= half % 8
    _pairwise_rows(sq, lo, lo + half)
    res += _pairwise_rows(sq, lo + half, hi)
    return res


def _streamed_square_sums(
    cols: np.ndarray,
    q: np.ndarray,
    lo: int,
    hi: int,
    acc: np.ndarray,
    tmp: np.ndarray,
    out: np.ndarray,
) -> None:
    """:func:`_pairwise_rows` of ``(cols[lo:hi] - q[lo:hi]) ** 2`` into
    ``out`` (``hi - lo >= 8``), without forming the squared block: each
    group of eight coordinate rows is squared into ``tmp`` (``(4, n)``,
    four rows at a time) and added into the accumulator ``acc``
    (``(8, n)``) in the same order, so every column keeps its bits."""
    n = hi - lo
    if n > 128:
        half = n // 2
        half -= half % 8
        _streamed_square_sums(cols, q, lo, lo + half, acc, tmp, out)
        rest = np.empty_like(out)
        _streamed_square_sums(cols, q, lo + half, hi, acc, tmp, rest)
        out += rest
        return
    np.subtract(cols[lo : lo + 8], q[lo : lo + 8], out=acc)
    acc *= acc
    body = lo + n - n % 8
    for i in range(lo + 8, body, 4):
        np.subtract(cols[i : i + 4], q[i : i + 4], out=tmp)
        tmp *= tmp
        j = (i - lo) % 8
        rows = acc[j : j + 4]
        rows += tmp
    for step in (1, 2):
        for j in range(0, 8, 2 * step):
            row = acc[j]
            row += acc[j + step]
    np.add(acc[0], acc[4], out=out)
    row = tmp[0]
    for i in range(body, hi):
        np.subtract(cols[i], q[i], out=row)
        row *= row
        out += row


def _l2_columns(
    cols: np.ndarray, q: np.ndarray, scratch: bool
) -> np.ndarray:
    """``||cols[:, e] - q[:, e]||`` per column (``q`` may broadcast), each
    bit-identical to ``np.linalg.norm`` of the two rows' difference.
    ``scratch`` says ``cols`` is a fresh array this call may overwrite;
    otherwise a large block is streamed (see :data:`_STREAM_MIN_ELEMS`),
    so no temporary the size of ``cols`` is made."""
    width, n = cols.shape
    if n < _BATCH_SEG_VIEW_MIN or width == 0:
        # Few entries: the row reduce, on C-ordered rows (the reduce's
        # summation order depends on the row layout).
        rows = np.subtract(cols.T, q.T, order="C")
        rows *= rows
        out = np.add.reduce(rows, axis=1)
    elif scratch or width <= 12 or width * n < _STREAM_MIN_ELEMS:
        diff = np.subtract(cols, q, out=cols if scratch else None)
        diff *= diff
        out = _pairwise_rows(diff, 0, width)
    else:
        out = np.empty(n, dtype=np.float64)
        _streamed_square_sums(
            cols, q, 0, width, np.empty((8, n)), np.empty((4, n)), out
        )
    np.sqrt(out, out=out)
    return out


def flat_l2(
    points: np.ndarray,
    positions: Union[np.ndarray, slice],
    queries: np.ndarray,
    query_of_entry: Union[np.ndarray, int],
) -> np.ndarray:
    """Per-entry distances ``||points[:, p[e]] - queries[:, o[e]]||`` for
    ``p = positions`` and ``o = query_of_entry``.

    The one scorer of the iDistance scan.  Both operands are column-major
    blocks: ``points`` is ``(d, m)`` (a partition's vectors, one row per
    dimension) and ``queries`` is ``(d, Q)``.  ``positions`` is either an
    int array — a gather, e.g. many queries' short segments pooled into one
    call, with ``query_of_entry`` naming each entry's query — or a
    ``slice`` selecting one contiguous run of columns, scored on a view
    with no gather copy; ``query_of_entry`` may then be one int for every
    entry.  Each entry is bit-identical to the per-block
    ``np.linalg.norm(rows - q, axis=1)`` over the same row vectors.

    Large inputs are chunked along the entry axis so the temporaries stay
    bounded; entries are independent, so chunk boundaries cannot affect
    bit-identity.

    ``points`` and ``queries`` must already be C-contiguous float64 (see
    :func:`require_kernel_matrix`).
    """
    points = require_kernel_matrix("points", points)
    queries = require_kernel_matrix("queries", queries)
    one_query = isinstance(query_of_entry, (int, np.integer))
    contiguous = isinstance(positions, slice)
    if contiguous:
        cols = points[:, positions]
        n = cols.shape[1]
    else:
        n = positions.size
    chunk = max(1, _MAX_BUFFER_ELEMS // (4 * max(1, points.shape[0])))
    if n > chunk:
        # Entries are independent: score bounded chunks and concatenate.
        first = positions.indices(points.shape[1])[0] if contiguous else 0
        return np.concatenate([
            flat_l2(
                points,
                slice(first + lo, first + min(lo + chunk, n))
                if contiguous else positions[lo : lo + chunk],
                queries,
                query_of_entry if one_query
                else query_of_entry[lo : lo + chunk],
            )
            for lo in range(0, n, chunk)
        ])
    if not contiguous:  # take() gathers straight into a C-ordered block
        cols = np.take(points, positions, axis=1)
    if one_query:
        q = queries[:, query_of_entry, None]
    else:
        q = np.take(queries, query_of_entry, axis=1)
    return _l2_columns(cols, q, not contiguous)


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
