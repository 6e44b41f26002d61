"""Stable fingerprints over KNN answer sets.

A fingerprint condenses a whole workload's answers — the ``(Q, k)`` id and
distance matrices — into one hash that can be committed in a baseline and
compared across execution modes.  Two requirements shape it:

* **Order sensitivity.**  Neighbor order *is* the answer (nearest first),
  and workload order is part of the protocol, so the hash covers the
  matrices in row-major order, shapes included.
* **Quantized distances.**  The execution modes we compare (sequential,
  batched, fault-injected, crash-recovered) are bit-identical by contract,
  but a committed baseline must also survive innocuous float formatting.
  Distances are therefore snapped to a fixed absolute quantum (default
  ``1e-9`` — far below any inter-point spacing the workloads produce, far
  above 1-ulp noise) before hashing; ids are hashed exactly.

NaN distances (the invalid-query sentinel rows of
:class:`~repro.index.base.BatchKNNResult`) are mapped to a fixed sentinel
bucket so they fingerprint deterministically too.

Where two legal answers may order distance ties differently (a
scatter-gather merge against one node, a rebuilt generation against a
fresh build), :func:`batch_fingerprint` hashes the rows in the canonical
``(distance, id)`` order of :func:`canonicalize_rows` instead.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

__all__ = ["batch_fingerprint", "canonicalize_rows", "result_fingerprint"]

#: Default distance quantum: answers equal up to 1e-9 hash identically.
DEFAULT_QUANTUM = 1e-9

#: Quantized stand-in for NaN distances (invalid-query rows).
_NAN_SENTINEL = np.int64(-(2**62))


def result_fingerprint(
    ids: np.ndarray,
    distances: np.ndarray,
    quantum: float = DEFAULT_QUANTUM,
) -> str:
    """Hash a workload's KNN answers into a stable hex digest.

    ``ids`` and ``distances`` must have identical shapes (``(Q, k)`` or
    ``(k,)``).  Returns ``"sha256:<hex>"``.  Distances are divided by
    ``quantum`` and rounded to the nearest integer, so any two answer sets
    within ``quantum/2`` of each other per entry fingerprint identically;
    ids are covered exactly, shape and order included.
    """
    ids = np.asarray(ids)
    distances = np.asarray(distances, dtype=np.float64)
    if ids.shape != distances.shape:
        raise ValueError(
            f"ids shape {ids.shape} != distances shape {distances.shape}"
        )
    if quantum <= 0:
        raise ValueError(f"quantum must be > 0, got {quantum}")
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    with np.errstate(invalid="ignore", over="raise"):
        scaled = np.round(distances / quantum)
    finite = np.isfinite(scaled)
    if not finite.all() and np.isinf(scaled).any():
        raise ValueError(
            "distances overflow the fingerprint quantum; pass a larger "
            f"quantum than {quantum}"
        )
    quantized = np.where(finite, scaled, 0.0).astype(np.int64)
    quantized[~finite] = _NAN_SENTINEL
    digest = hashlib.sha256()
    digest.update(repr(ids.shape).encode("ascii"))
    digest.update(ids.tobytes())
    digest.update(np.ascontiguousarray(quantized).tobytes())
    return "sha256:" + digest.hexdigest()


def canonicalize_rows(
    ids: np.ndarray, distances: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-order each row of a ``(Q, k)`` answer by ``(distance, id)``.

    The serve router merges shard answers in this order, and every
    order-insensitive comparison fingerprints under it, so distance ties
    cannot produce spurious mismatches.  NaN distances (invalid rows)
    sort last, and their ids are all ``-1``, so invalid rows stay fixed
    points.
    """
    order = np.lexsort((ids, distances), axis=-1)
    return (
        np.take_along_axis(ids, order, axis=1),
        np.take_along_axis(distances, order, axis=1),
    )


def batch_fingerprint(ids: np.ndarray, distances: np.ndarray) -> str:
    """Order-insensitive fingerprint of a batch-KNN answer: each row is
    put in :func:`canonicalize_rows` order before hashing, so legal tie
    reorderings collapse to one digest.  A single ``(k,)`` row is treated
    as a one-query batch."""
    return result_fingerprint(
        *canonicalize_rows(
            np.atleast_2d(np.asarray(ids)),
            np.atleast_2d(np.asarray(distances)),
        )
    )
