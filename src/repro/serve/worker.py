"""Shard worker process: serve KNN over one shard's index.

A worker is forked by the :class:`~repro.serve.supervisor.Supervisor` with
one end of a socketpair and a shard directory on disk.  Startup *is* the
recovery path: the worker reopens the shard's index directory via
:func:`repro.recovery.recover_index_dir` (checkpoint snapshot +
write-ahead log) — the same code a post-crash respawn runs, so every spawn
exercises real recovery rather than a happy-path loader.  The shard's
rid map translates shard-local rids back to global rids on the way out
(:func:`repro.ingest.translate_ids`); the router only ever sees global
ids.

The loop is single-threaded and synchronous: read one framed request,
answer it, repeat.  Robustness against a *misbehaving router* is the
frame CRC; robustness against a *misbehaving worker* is the router's
ladder, driven deterministically by the optional
:class:`~repro.serve.faults.WorkerFaultSpec` (kill / hang / garble / drop
on the N-th request this process received — retries count, which is what
makes "the retry succeeds" reproducible).

Per-request exceptions become typed error replies, never a dead worker:
an :class:`~repro.index.base.InvalidQueryError` must not look like a
crashed shard to the breaker.
"""

from __future__ import annotations

import os
import signal
import socket
import time
from typing import Optional

import numpy as np

from ..index.base import InvalidQueryError
from ..ingest.pipeline import translate_ids
from ..obs.tracer import Tracer
from ..recovery import recover_index_dir
from .faults import WorkerFaultSpec
from .protocol import (
    ConnectionLostError,
    FrameReader,
    encode_frame,
    garble_frame,
    send_message,
)

__all__ = ["worker_main"]


def _handle_knn(index, rid_map, request: dict, shard_id: int) -> dict:
    queries = request["queries"]
    k = int(request["k"])
    # A shard may hold fewer than k points; it then contributes its whole
    # holding and the router's merge pads from the other shards.
    k_eff = max(1, min(k, index.live_count))
    trace_id = request.get("trace_id")
    tracer: Optional[Tracer] = (
        Tracer(counters=index.counters, trace_id=trace_id)
        if trace_id is not None
        else None
    )
    result = index.knn_batch(queries, k_eff, tracer=tracer)
    reply = {
        "op": "knn_result",
        "req_id": request["req_id"],
        "shard": shard_id,
        "ids": translate_ids(result.ids, rid_map),
        "distances": result.distances,
        "stats": result.stats,
        "invalid": result.invalid_queries,
        "wall_seconds": result.wall_seconds,
    }
    if tracer is not None:
        reply["spans"] = tracer.spans
        reply["metrics"] = tracer.metrics.as_records()
    return reply


def serve_loop(
    sock: socket.socket,
    shard_id: int,
    index,
    rid_map: np.ndarray,
    fault_spec: Optional[WorkerFaultSpec] = None,
) -> None:
    """Answer framed requests until shutdown or router disconnect."""
    reader = FrameReader(sock)
    knn_ordinal = 0
    while True:
        try:
            request = reader.read_message(timeout=None)
        except ConnectionLostError:
            return  # router went away; nothing to serve
        op = request.get("op")
        if op == "shutdown":
            send_message(sock, {"op": "bye", "shard": shard_id})
            return
        if op == "ping":
            send_message(
                sock,
                {
                    "op": "pong",
                    "req_id": request.get("req_id"),
                    "shard": shard_id,
                    "pid": os.getpid(),
                    "live_count": index.live_count,
                },
            )
            continue
        if op != "knn":
            send_message(
                sock,
                {
                    "op": "error",
                    "req_id": request.get("req_id"),
                    "shard": shard_id,
                    "error_type": "ProtocolError",
                    "message": f"unknown op {op!r}",
                },
            )
            continue

        knn_ordinal += 1
        if fault_spec is not None:
            if fault_spec.should_kill(knn_ordinal):
                # SIGKILL leaves no chance for cleanup — the router sees a
                # hard EOF, exactly like an OOM kill or a segfault.
                os.kill(os.getpid(), signal.SIGKILL)
            if fault_spec.should_hang(knn_ordinal):
                time.sleep(fault_spec.hang_s)
            if fault_spec.should_drop(knn_ordinal):
                continue  # swallow the reply; the router's deadline fires

        try:
            reply = _handle_knn(index, rid_map, request, shard_id)
        except InvalidQueryError as exc:
            reply = {
                "op": "error",
                "req_id": request.get("req_id"),
                "shard": shard_id,
                "error_type": "InvalidQueryError",
                "message": str(exc),
            }
        except Exception as exc:  # typed reply, never a dead worker
            reply = {
                "op": "error",
                "req_id": request.get("req_id"),
                "shard": shard_id,
                "error_type": type(exc).__name__,
                "message": str(exc),
            }

        frame = encode_frame(reply)
        if fault_spec is not None and fault_spec.should_garble(knn_ordinal):
            frame = garble_frame(frame)
        try:
            sock.sendall(frame)
        except (BrokenPipeError, ConnectionResetError, OSError):
            return


def worker_main(
    sock: socket.socket,
    shard_id: int,
    shard_dir: str,
    fault_spec: Optional[WorkerFaultSpec] = None,
) -> None:
    """Child-process entry point (runs in the forked worker).

    Exits via ``os._exit`` so the forked copy of the parent's runtime
    (atexit hooks, multiprocessing bookkeeping) never runs in the child;
    the index's store is closed first, which removes an mmap store's
    temporary heap file.
    """
    index = None
    status = 0
    try:
        index, rid_map, _report = recover_index_dir(shard_dir)
        if fault_spec is not None and fault_spec.storage_plan is not None:
            index.enable_faults(fault_spec.storage_plan)
        serve_loop(sock, shard_id, index, rid_map, fault_spec)
    except BaseException:
        status = 1
    finally:
        try:
            if index is not None:
                index.store.close()
        finally:
            os._exit(status)
