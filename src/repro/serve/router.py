"""Scatter-gather KNN router with a per-shard robustness ladder.

One :meth:`Router.knn` call scatters the (pre-validated) query batch to
every shard in its own thread, gathers per-shard top-K, and merges into
the exact global top-K by a deterministic ``(distance, rid)`` sort — the
same canonical order the benchmark fingerprints both sides with, so a
non-degraded scatter-gather answer hashes identically to the single-node
index.

Each shard request climbs a ladder, cheapest rung first:

1. **deadline** — every attempt has ``deadline_s`` to produce a reply;
2. **retry with backoff** — up to ``max_attempts`` fresh attempts, each
   with a new request id, backing off exponentially.  A reply to an
   abandoned attempt is drained as a stale response by its request id.
   Garbled frames are retried on the same (still-aligned) connection;
3. **respawn** — an EOF means the worker died: the supervisor forks a
   fresh one from checkpoint + WAL before the next attempt.  A second
   consecutive timeout means the worker is hung, and is respawned too;
4. **route around** — a shard that exhausts its attempts (or whose
   circuit breaker is open) is excluded from the merge; the result says
   so (``partial=True`` + ``missing_shards``) rather than blocking or
   silently shrinking the answer.

A per-shard :class:`~repro.serve.breaker.CircuitBreaker` is fed by both
request failures and :meth:`check_health` pings (each ping waits
:data:`HEALTH_TIMEOUT_S` for its reply); while OPEN, the shard is skipped
instantly instead of costing every request a deadline.
Admission control bounds concurrent :meth:`knn` calls — beyond
``max_inflight`` the call is shed with a typed :class:`OverloadError`
(load must fail fast at the door, not queue without bound).

Invalid queries never leave the router: rows with NaN/Inf (or zero-norm
under cosine) are masked out before the scatter, reported once in
:attr:`RouterResult.invalid_queries`, and re-expanded as ``-1``/NaN rows —
identical semantics to single-node ``knn_batch``, and no way for a bad
query to crash a shard or trip its breaker.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bench.fingerprint import canonicalize_rows
from ..index.base import (
    InvalidQueryError,
    QueryStats,
    check_query_block,
    expand_valid_rows,
)
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, ensure_tracer
from .breaker import BreakerState, CircuitBreaker
from .protocol import (
    ConnectionLostError,
    GarbledFrameError,
    ServeError,
)
from .protocol import send_message
from .supervisor import Supervisor

__all__ = [
    "OverloadError",
    "ShardUnavailableError",
    "NoShardsAvailableError",
    "RollingSwapReport",
    "RouterConfig",
    "RouterResult",
    "Router",
    "merge_topk",
]

#: Reply deadline for heartbeat pings (seconds).
HEALTH_TIMEOUT_S = 1.0


class OverloadError(ServeError):
    """Admission control shed this request: ``max_inflight`` concurrent
    requests are already running.  Back off and retry later."""


class ShardUnavailableError(ServeError):
    """One shard exhausted its ladder (or its breaker is open).  Internal
    to the scatter — the router routes around it and reports a partial
    result instead of surfacing this."""


class NoShardsAvailableError(ServeError):
    """Every shard is unavailable; there is no answer to return."""


class _WorkerError(ServeError):
    """A worker replied with a typed non-query error."""


@dataclass(frozen=True)
class RouterConfig:
    """Tunables for the ladder; defaults suit tests and local benches."""

    #: Per-attempt reply deadline (seconds).
    deadline_s: float = 5.0
    #: Total attempts per shard per request (1 = no retry rung).
    max_attempts: int = 3
    #: Backoff before the 2nd attempt; doubles each further attempt.
    backoff_s: float = 0.02
    #: Consecutive failures that trip a shard's breaker OPEN.
    breaker_failure_threshold: int = 3
    #: Seconds an OPEN breaker waits before admitting a half-open probe.
    breaker_cooldown_s: float = 5.0
    #: Concurrent ``knn`` calls admitted; further calls shed.
    max_inflight: int = 32

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


@dataclass(frozen=True)
class RouterResult:
    """The merged answer of one scattered batch.

    Mirrors :class:`~repro.index.base.BatchKNNResult` semantics — same
    invalid-row conventions, per-query stats summed across the shards
    that answered — plus the degrade contract: ``partial`` is True iff
    some shard could not answer, and ``missing_shards`` names them.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: Tuple[QueryStats, ...]
    invalid_queries: Tuple[int, ...]
    partial: bool
    missing_shards: Tuple[int, ...]
    shards_answered: int
    wall_seconds: float

    @property
    def n_queries(self) -> int:
        return int(self.ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.ids.shape[1])


@dataclass(frozen=True)
class RollingSwapReport:
    """What one :meth:`Router.rolling_swap` did."""

    shards_swapped: Tuple[int, ...]
    wall_seconds: float


def merge_topk(
    shard_ids: Sequence[np.ndarray],
    shard_distances: Sequence[np.ndarray],
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact global top-K from per-shard exact top-K.

    Shards hold disjoint rid sets, so the concatenated candidate pool
    contains the global top-K whenever every shard contributed
    ``min(k, shard_size)`` rows; the ``(distance, rid)`` sort then yields
    a deterministic global order regardless of shard count or arrival
    order.
    """
    all_ids = np.concatenate(list(shard_ids), axis=1)
    all_distances = np.concatenate(list(shard_distances), axis=1)
    ids, distances = canonicalize_rows(all_ids, all_distances)
    k_out = min(k, ids.shape[1])
    return (
        np.ascontiguousarray(ids[:, :k_out]),
        np.ascontiguousarray(distances[:, :k_out]),
    )


def _sum_stats(
    per_shard: Sequence[Tuple[QueryStats, ...]], n_queries: int
) -> Tuple[QueryStats, ...]:
    merged: List[QueryStats] = []
    for q in range(n_queries):
        reads = comps = flops = keys = 0
        cpu = 0.0
        for stats in per_shard:
            s = stats[q]
            reads += s.page_reads
            comps += s.distance_computations
            flops += s.distance_flops
            keys += s.key_comparisons
            cpu += s.cpu_seconds
        merged.append(QueryStats(reads, comps, flops, keys, cpu))
    return tuple(merged)


class _ShardChannel:
    """Router-side per-shard state: lock, breaker, generation."""

    def __init__(self, shard_id: int, router: "Router") -> None:
        self.shard_id = shard_id
        self.lock = threading.Lock()
        #: The rolling swap that built this shard's worker (0: none yet).
        #: Set only while :meth:`Router.rolling_swap` holds ``lock``.
        self.generation = 0

        def on_transition(old: BreakerState, new: BreakerState) -> None:
            router.metrics.counter(f"serve.breaker.{new.value}").inc()

        config = router.config
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failure_threshold,
            cooldown_s=config.breaker_cooldown_s,
            clock=router._clock,
            on_transition=on_transition,
        )


class Router:
    """Scatter-gather front end over a :class:`Supervisor`'s workers."""

    def __init__(
        self,
        supervisor: Supervisor,
        config: Optional[RouterConfig] = None,
        clock=time.monotonic,
    ) -> None:
        self.supervisor = supervisor
        self.config = config if config is not None else RouterConfig()
        self.metrics = MetricsRegistry()
        self._clock = clock
        self._channels: Dict[int, _ShardChannel] = {
            sid: _ShardChannel(sid, self) for sid in supervisor.shard_ids
        }
        self._req_seq = itertools.count(1)
        self._inflight = threading.Semaphore(self.config.max_inflight)
        #: Shards mid-swap: excluded from the scatter (reported missing /
        #: partial via the normal degrade contract) instead of queueing
        #: requests behind the respawn.  Mutated only by rolling_swap.
        self._draining: set = set()
        #: Rolling swaps started so far; a swapped shard's channel
        #: ``generation`` takes this number.
        self._swaps = 0

    # -- shard-level request ladder -------------------------------------

    def _read_reply(
        self, channel: _ShardChannel, handle, request: dict
    ) -> dict:
        """Send one request and read its matching reply within the
        deadline.  Raises ``socket.timeout`` / ``GarbledFrameError`` /
        ``ConnectionLostError``."""
        deadline_s = self.config.deadline_s
        send_message(handle.sock, request)
        hard_deadline = self._clock() + deadline_s
        while True:
            wait = hard_deadline - self._clock()
            if wait <= 0:
                raise socket.timeout(
                    f"shard {channel.shard_id} missed its "
                    f"{deadline_s:.3f}s deadline"
                )
            reply = handle.reader.read_message(timeout=wait)
            if reply.get("req_id") == request["req_id"]:
                return reply
            # The late reply to an abandoned attempt.
            self.metrics.counter("serve.stale_responses").inc()

    def _respawn(self, shard_id: int) -> None:
        self.metrics.counter("serve.respawns").inc()
        self.supervisor.respawn(shard_id)

    def _shard_call(
        self, shard_id: int, request_base: dict, generation: int
    ) -> dict:
        """Run the full ladder for one shard; returns the worker's reply
        or raises :class:`ShardUnavailableError` (route-around) /
        :class:`InvalidQueryError` (caller bug, shard healthy).

        ``generation`` is the shard generation the request was planned
        on.  A rolling swap changes it only while holding the channel
        lock, so checking it once the lock is ours pins the answer to
        that generation."""
        channel = self._channels[shard_id]
        config = self.config
        with channel.lock:
            if channel.generation != generation:
                self.metrics.counter("serve.generation_moved").inc()
                raise ShardUnavailableError(
                    f"shard {shard_id} moved to generation "
                    f"{channel.generation} after the request was planned "
                    f"on {generation}"
                )
            if not channel.breaker.allow_request():
                self.metrics.counter("serve.breaker_rejected").inc()
                raise ShardUnavailableError(
                    f"shard {shard_id} breaker is "
                    f"{channel.breaker.state.value}"
                )
            backoff = config.backoff_s
            consecutive_timeouts = 0
            last_error: Optional[BaseException] = None
            for attempt in range(1, config.max_attempts + 1):
                if attempt > 1:
                    self.metrics.counter("serve.retries").inc()
                    if backoff > 0:
                        time.sleep(backoff)
                    backoff *= 2
                request = dict(request_base)
                request["req_id"] = next(self._req_seq)
                handle = self.supervisor.handle(shard_id)
                try:
                    reply = self._read_reply(channel, handle, request)
                    if reply.get("op") == "error":
                        if reply.get("error_type") == "InvalidQueryError":
                            # The shard is healthy; the request was bad.
                            channel.breaker.record_success()
                            raise InvalidQueryError(
                                reply.get("message", "invalid query")
                            )
                        raise _WorkerError(
                            f"shard {shard_id} error "
                            f"[{reply.get('error_type')}]: "
                            f"{reply.get('message')}"
                        )
                    channel.breaker.record_success()
                    return reply
                except InvalidQueryError:
                    raise
                except ConnectionLostError as exc:
                    last_error = exc
                    consecutive_timeouts = 0
                    self.metrics.counter("serve.connection_lost").inc()
                    channel.breaker.record_failure()
                    # The worker is gone; only a fresh process can answer.
                    self._respawn(shard_id)
                except socket.timeout as exc:
                    last_error = exc
                    consecutive_timeouts += 1
                    self.metrics.counter("serve.timeouts").inc()
                    channel.breaker.record_failure()
                    if not self.supervisor.alive(shard_id):
                        self._respawn(shard_id)
                        consecutive_timeouts = 0
                    elif consecutive_timeouts >= 2:
                        # Alive but unresponsive twice: treat as hung.
                        self._respawn(shard_id)
                        consecutive_timeouts = 0
                except GarbledFrameError as exc:
                    last_error = exc
                    consecutive_timeouts = 0
                    self.metrics.counter("serve.garbled_frames").inc()
                    channel.breaker.record_failure()
                    # Stream is still aligned; a plain retry suffices.
                except _WorkerError as exc:
                    last_error = exc
                    consecutive_timeouts = 0
                    self.metrics.counter("serve.worker_errors").inc()
                    channel.breaker.record_failure()
            raise ShardUnavailableError(
                f"shard {shard_id} exhausted {config.max_attempts} "
                f"attempts: {last_error}"
            )

    # -- batch entry point ----------------------------------------------

    def knn(
        self,
        queries: np.ndarray,
        k: int,
        tracer: Optional[Tracer] = None,
    ) -> RouterResult:
        """Scatter a query batch to every shard and merge exactly.

        Raises :class:`OverloadError` when shed by admission control and
        :class:`NoShardsAvailableError` when no shard at all answered;
        lesser degradation comes back as ``partial=True``.
        """
        if not self._inflight.acquire(blocking=False):
            self.metrics.counter("serve.shed").inc()
            raise OverloadError(
                f"router at max_inflight={self.config.max_inflight}; "
                "request shed"
            )
        try:
            return self._knn_admitted(queries, k, ensure_tracer(tracer))
        finally:
            self._inflight.release()

    def _knn_admitted(
        self, queries: np.ndarray, k: int, tracer: Tracer
    ) -> RouterResult:
        start = time.perf_counter()
        self.metrics.counter("serve.requests").inc()
        plan = self.supervisor.plan
        queries, valid = check_query_block(
            queries, k, plan.dimensionality, plan.metric
        )
        invalid_rows = tuple(np.flatnonzero(~valid).tolist())
        if invalid_rows:
            self.metrics.counter("serve.invalid_queries").inc(
                len(invalid_rows)
            )
        valid_queries = queries if not invalid_rows else queries[valid]
        shard_ids = self.supervisor.shard_ids
        # Snapshot the draining set once per request: shards mid-swap are
        # routed around (missing/partial), exactly like a tripped breaker.
        draining = tuple(
            sid for sid in shard_ids if sid in self._draining
        )
        if draining:
            self.metrics.counter("serve.draining_skipped").inc(
                len(draining)
            )
        # One answer, one generation: plan on the generation most shards
        # are on (the newer one on a tie) and route around the rest, as
        # for a draining shard.  _shard_call re-checks under the channel
        # lock, so a shard swapped after this point drops out too.
        generations = {
            sid: self._channels[sid].generation
            for sid in shard_ids
            if sid not in draining
        }
        counts = Counter(generations.values())
        planned = max(counts, key=lambda gen: (counts[gen], gen), default=0)
        active_ids = [
            sid for sid, gen in generations.items() if gen == planned
        ]
        if len(active_ids) < len(generations):
            self.metrics.counter("serve.generation_skipped").inc(
                len(generations) - len(active_ids)
            )
        request_base = {
            "op": "knn",
            "queries": valid_queries,
            "k": k,
            "trace_id": tracer.trace_id if tracer.enabled else None,
        }

        replies: Dict[int, dict] = {}
        failures: Dict[int, BaseException] = {}

        def scatter_one(sid: int) -> None:
            try:
                replies[sid] = self._shard_call(
                    sid, request_base, generations[sid]
                )
            except BaseException as exc:  # collected, raised on main thread
                failures[sid] = exc

        with tracer.span(
            "serve.scatter",
            n_shards=len(active_ids),
            n_queries=int(queries.shape[0]),
            k=k,
        ) as scatter_span:
            if valid_queries.shape[0] == 0 or not active_ids:
                replies.clear()
            elif len(active_ids) == 1:
                scatter_one(active_ids[0])
            else:
                threads = [
                    threading.Thread(
                        target=scatter_one, args=(sid,), daemon=True
                    )
                    for sid in active_ids
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

            for sid, exc in failures.items():
                if isinstance(exc, InvalidQueryError):
                    raise exc
                if not isinstance(exc, ShardUnavailableError):
                    raise exc

            if tracer.enabled:
                for sid, reply in sorted(replies.items()):
                    tracer.adopt_spans(
                        reply.get("spans", ()),
                        parent=scatter_span,
                        worker=sid,
                    )
                    tracer.metrics.merge_records(
                        list(reply.get("metrics", ()))
                    )

        missing = tuple(
            sid
            for sid in shard_ids
            if sid not in active_ids
            or (
                sid in failures
                and isinstance(failures[sid], ShardUnavailableError)
            )
        )
        if valid_queries.shape[0] and not replies:
            self.metrics.counter("serve.partial_results").inc()
            raise NoShardsAvailableError(
                f"no shard answered (missing: {list(missing)})"
            )
        partial = bool(missing)
        if partial:
            self.metrics.counter("serve.partial_results").inc()

        if valid_queries.shape[0] == 0:
            width = min(k, plan.n_points)
            merged_ids = np.empty((0, width), dtype=np.int64)
            merged_distances = np.empty((0, width), dtype=np.float64)
            merged_stats: Tuple[QueryStats, ...] = ()
        else:
            ordered = [replies[sid] for sid in sorted(replies)]
            merged_ids, merged_distances = merge_topk(
                [r["ids"] for r in ordered],
                [r["distances"] for r in ordered],
                k,
            )
            merged_stats = _sum_stats(
                [r["stats"] for r in ordered], valid_queries.shape[0]
            )

        if invalid_rows:
            merged_ids, merged_distances, merged_stats = expand_valid_rows(
                merged_ids, merged_distances, merged_stats, valid
            )

        return RouterResult(
            ids=merged_ids,
            distances=merged_distances,
            stats=merged_stats,
            invalid_queries=invalid_rows,
            partial=partial,
            missing_shards=missing,
            shards_answered=len(replies),
            wall_seconds=time.perf_counter() - start,
        )

    # -- generational swap ------------------------------------------------

    def rolling_swap(
        self, new_plan, new_root
    ) -> "RollingSwapReport":
        """Swap the cluster to a new index generation one shard at a time,
        without ever refusing a request outright.

        Protocol per shard: mark it *draining* (new scatters route around
        it and report ``partial``), acquire its channel lock — every shard
        request holds that lock for its full ladder, so acquiring it IS
        the drain barrier — then point the supervisor at the new
        generation's directory, respawn the worker from the new snapshot +
        WAL, and stamp the channel with this swap's generation number
        while the lock is still held.  Undrain, move on.  At most one
        shard is ever down, which is exactly the degrade the ladder
        already absorbs.

        A mid-roll answer never mixes generations (DESIGN.md §15): each
        request is planned on one generation, and any shard that is on
        another one — or moves to another one before its turn on the
        channel — is listed in ``missing_shards`` with ``partial=True``.

        The new generation's state is fully built (``prepare_generation``)
        before the first worker dies, so a failure while building leaves
        the cluster untouched.
        """
        start = time.perf_counter()
        prepared = self.supervisor.prepare_generation(new_plan, new_root)
        self._swaps += 1
        swapped: List[int] = []
        try:
            for sid in self.supervisor.shard_ids:
                channel = self._channels[sid]
                self._draining.add(sid)
                try:
                    with channel.lock:  # drained: no request in flight
                        self.supervisor.swap_shard(sid, prepared[sid])
                        channel.generation = self._swaps
                finally:
                    self._draining.discard(sid)
                channel.breaker.record_success()
                self.metrics.counter("serve.generation_swaps").inc()
                swapped.append(sid)
        finally:
            self._draining.clear()
        self.supervisor.adopt_plan(new_plan)
        return RollingSwapReport(
            shards_swapped=tuple(swapped),
            wall_seconds=time.perf_counter() - start,
        )

    # -- health ----------------------------------------------------------

    def check_health(self) -> Dict[int, dict]:
        """Ping every shard once, feeding each breaker; returns a
        per-shard health report (also the demo's status view)."""
        report: Dict[int, dict] = {}
        for sid in self.supervisor.shard_ids:
            channel = self._channels[sid]
            entry = {
                "shard": sid,
                "breaker": channel.breaker.state.value,
                "consecutive_failures": (
                    channel.breaker.consecutive_failures
                ),
                "spawns": self.supervisor.spawn_counts.get(sid, 0),
                "alive": self.supervisor.alive(sid),
                "responsive": False,
            }
            with channel.lock:
                if not channel.breaker.allow_request():
                    report[sid] = entry
                    continue
                try:
                    handle = self.supervisor.handle(sid)
                    request = {
                        "op": "ping",
                        "req_id": next(self._req_seq),
                    }
                    send_message(handle.sock, request)
                    while True:
                        reply = handle.reader.read_message(
                            timeout=HEALTH_TIMEOUT_S
                        )
                        if reply.get("req_id") == request["req_id"]:
                            break
                        self.metrics.counter(
                            "serve.stale_responses"
                        ).inc()
                    channel.breaker.record_success()
                    entry.update(
                        responsive=True,
                        pid=reply.get("pid"),
                        live_count=reply.get("live_count"),
                        breaker=channel.breaker.state.value,
                    )
                except (
                    socket.timeout,
                    GarbledFrameError,
                    ConnectionLostError,
                    RuntimeError,
                ):
                    self.metrics.counter("serve.heartbeat_failures").inc()
                    channel.breaker.record_failure()
                    entry["breaker"] = channel.breaker.state.value
                    if not self.supervisor.alive(sid):
                        self._respawn(sid)
            report[sid] = entry
        return report

    def close(self) -> None:
        """Shut down every worker."""
        self.supervisor.stop()

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
