"""The four benchmark workloads and the closed loop that measures them.

Each workload builds its fixed dataset and draws its queries (and, for
ingest, its mutation stream) from the seed, sets the system up several
times (``setup_s`` is the median), counts the exact logical costs in a
deterministic untimed pass that also warms the system, then runs one
closed-loop client for the requested time.  Every answer is checked
against :class:`oracle.Oracle` outside the timed regions.  See
``README.md`` for what each workload loads and bypasses.
"""

from __future__ import annotations

import gc
import heapq
import os
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from oracle import Oracle, frames_of_reduced

__all__ = [
    "K",
    "Measurement",
    "WORKLOADS",
    "host_probe_s",
    "make_workload",
    "tail",
]

#: Neighbours per query, every workload.
K = 10

# Independent random streams derived from the one ``--seed``.
_DATA, _REDUCE, _QUERIES, _OPS = range(4)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, level)``: the highest percentile, at most p99, that has
    at least ten samples beyond it."""
    n = len(samples)
    level = min(99.0, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 50.0
    return float(np.percentile(samples, level)), level


_PROBE_RNG = np.random.default_rng(0)
_PROBE_ROWS = _PROBE_RNG.normal(size=(200, 8))
_PROBE_BLOCK = _PROBE_RNG.normal(size=(2000, 64))
_PROBE_Q8 = _PROBE_RNG.normal(size=8)
_PROBE_Q64 = _PROBE_RNG.normal(size=64)


def host_probe_s(reps: int = 3) -> float:
    """Fastest of ``reps`` runs of a fixed ~1 ms mix shaped like a query:
    small numpy calls feeding a Python heap, plus one pass over a 1 MB
    block."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        heap: List[Tuple[float, int]] = []
        for i in range(200):
            dist = float(np.linalg.norm(_PROBE_ROWS[i] - _PROBE_Q8))
            if len(heap) < 10:
                heapq.heappush(heap, (-dist, i))
            elif dist < -heap[0][0]:
                heapq.heapreplace(heap, (-dist, i))
        np.linalg.norm(_PROBE_BLOCK - _PROBE_Q64, axis=1)
        best = min(best, time.perf_counter() - start)
    return best


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Measurement:
    """What one measured pass of a workload produced."""

    setup_s: List[float] = field(default_factory=list)
    knn_s: List[float] = field(default_factory=list)
    #: Query-set index each single-query sample answered.
    knn_q: List[int] = field(default_factory=list)
    batch_s: List[float] = field(default_factory=list)
    #: Host probe (:func:`host_probe_s`) run just before each sample's
    #: round, parallel to ``knn_s`` / ``batch_s``.
    knn_h: List[float] = field(default_factory=list)
    batch_h: List[float] = field(default_factory=list)
    batch_rows: int = 0
    write_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    #: Deterministic counts; must repeat exactly for a seed.
    exact: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    pool_hits: int = 0
    pool_misses: int = 0
    delta_fractions: List[float] = field(default_factory=list)
    serve_counters: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class _Untraced:
    """Stand-in for the span recorder when tracing is off."""

    def request(self, kind: str, rows: int = 1):
        return nullcontext()

    def suspended(self):
        return nullcontext()


NULL = _Untraced()


#: Seed of every dataset and of its reduction.  Each workload's data is one
#: fixed collection, as the paper's Corel set is; ``--seed`` draws the
#: queries, the batch blocks and the mutation stream.  Drawing the data
#: from ``--seed`` as well moved page and distance counts by 10-15%
#: between seeds (LDR's outlier set alone ranged 9.4k-11.7k points).
DATA_SEED = 20030305


def _gcd_points(n_points: int) -> np.ndarray:
    """Appendix-A correlated clusters: 5 ellipsoids of 8 retained
    dimensions in 64-d, 1% uniform noise."""
    from repro.data.synthetic import (
        SyntheticSpec,
        generate_correlated_clusters,
    )

    spec = SyntheticSpec(
        n_points=n_points,
        dimensionality=64,
        n_clusters=5,
        retained_dims=8,
        noise_fraction=0.01,
    )
    return generate_correlated_clusters(
        spec, rng_for(DATA_SEED, _DATA)
    ).points


def _corel_points(n_points: int) -> np.ndarray:
    from repro.data.colorhist import (
        ColorHistogramSpec,
        generate_color_histograms,
    )

    spec = ColorHistogramSpec(n_images=n_points)
    return generate_color_histograms(spec, rng_for(DATA_SEED, _DATA))


def _queries(points: np.ndarray, n: int, seed: int) -> np.ndarray:
    from repro.data.workload import sample_queries

    return sample_queries(
        points, n, rng_for(seed, _QUERIES), k=K, method="perturbed"
    ).queries


# ---------------------------------------------------------------------------
# read-mostly workloads: gcd-immdr, corel-gldr, gcd-served
# ---------------------------------------------------------------------------


class _Workload:
    """Sizes are class attributes; tests override them by keyword."""

    name = ""
    #: Workload whose traced pass rides along this one's traced run.
    traced_companion: Optional[str] = None

    def __init__(self, root: Path, **sizes) -> None:
        self.root = root
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise TypeError(f"unknown size {key!r}")
            setattr(self, key, value)


class _ReadWorkload(_Workload):
    """Closed loop of single-query ``knn`` rounds and one fixed-size
    batch block per round, over a read-only index."""

    n_points = 30_000
    n_queries = 256
    #: Queries in the deterministic counting pass.
    n_count = 128
    singles_per_round = 16
    block_rows = 32
    #: Span-recorder request kinds of single and batch requests.
    kinds = ("knn", "batch")

    # -- per-workload hooks ---------------------------------------------------

    def points(self) -> np.ndarray:
        raise NotImplementedError

    def setup(self, points, recorder):
        """Build the system; returns an object with ``knn``, ``batch``,
        ``reduced`` and ``close``."""
        raise NotImplementedError

    def cold_counts(self, system, queries) -> Dict[str, float]:
        return _local_cold_counts(system, queries)

    # -- the measured pass ----------------------------------------------------

    def measure(
        self, seed: int, seconds: float, setups: int, recorder=NULL
    ) -> Measurement:
        m = Measurement()
        points = self.points()
        queries = _queries(points, self.n_queries, seed)
        blocks = queries.reshape(-1, self.block_rows, queries.shape[1])
        system = None
        for attempt in range(setups):
            if system is not None:
                system.close()
                system = None
            gc.collect()
            with recorder.request("setup"):
                start = time.perf_counter()
                system = self.setup(points, recorder)
                m.setup_s.append(time.perf_counter() - start)
        try:
            oracle = Oracle(frames_of_reduced(system.reduced))
            expected = oracle.topk_distances(queries, K)
            with recorder.request("count"):
                m.exact.update(self.cold_counts(system, queries[: self.n_count]))
                m.exact.update(self.warm_counts(system, queries[: self.n_count]))
            system.batch(blocks[0])  # untimed warm-up of the batch path
            gc.collect()
            answers = self.loop(system, queries, blocks, seconds, m, recorder)
            m.peak_rss_mb = system.peak_rss_mb()
            m.serve_counters = system.serve_counters()
        finally:
            system.close()
        for qi, ids, dists in answers:
            m.attempted += 1
            reason = oracle.check(queries[qi], K, ids, dists, expected[qi])
            if reason is not None:
                m.fail(f"query {qi}: {reason}")
        return m

    def warm_counts(self, system, queries) -> Dict[str, float]:
        """Untimed warm-up pass, then one counted warm pass in fixed
        order: physical page reads per query with a warm pool."""
        index = system.index
        if index is None:
            return {"warm_pages_per_query": 0.0}
        index.reset_cache()
        for q in queries:
            system.knn(q)
        before = index.counters.snapshot()
        for q in queries:
            system.knn(q)
        diff = index.counters.snapshot() - before
        return {"warm_pages_per_query": diff.total_page_reads / len(queries)}

    def loop(self, system, queries, blocks, seconds, m, recorder):
        """The closed loop: one client, next request after the last reply."""
        answers: List[Tuple[int, np.ndarray, np.ndarray]] = []
        pool = system.index.pool if system.index is not None else None
        n_q, n_b = len(queries), len(blocks)
        qi = bi = 0
        clock = time.perf_counter
        deadline = clock() + seconds
        begin = clock()
        while clock() < deadline:
            probe = host_probe_s()
            for _ in range(self.singles_per_round):
                q = qi % n_q
                hits = (pool.hits, pool.misses) if pool is not None else None
                try:
                    with recorder.request(self.kinds[0]):
                        start = clock()
                        ids, dists = system.knn(queries[q])
                        m.knn_s.append(clock() - start)
                    m.knn_q.append(q)
                    m.knn_h.append(probe)
                except Exception as exc:  # counted, never fatal
                    m.attempted += 1
                    m.fail(f"knn raised {type(exc).__name__}: {exc}")
                else:
                    answers.append((q, ids, dists))
                if hits is not None:
                    m.pool_hits += pool.hits - hits[0]
                    m.pool_misses += pool.misses - hits[1]
                qi += 1
            b = bi % n_b
            block = blocks[b]
            try:
                with recorder.request(self.kinds[1], rows=len(block)):
                    start = clock()
                    ids, dists = system.batch(block)
                    m.batch_s.append(clock() - start)
                m.batch_h.append(probe)
                m.batch_rows += len(block)
            except Exception as exc:
                m.attempted += len(block)
                m.fail(f"batch raised {type(exc).__name__}: {exc}")
            else:
                base = b * self.block_rows
                for row in range(len(block)):
                    answers.append((base + row, ids[row], dists[row]))
            bi += 1
        m.seconds = clock() - begin
        return answers


class _LocalSystem:
    """An in-process index (the process that owns it is this one)."""

    def __init__(self, reduced, index) -> None:
        self.reduced = reduced
        self.index = index

    def knn(self, q):
        result = self.index.knn(q, K)
        return result.ids, result.distances

    def batch(self, block):
        result = self.index.knn_batch(block, K)
        return result.ids, result.distances

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def serve_counters(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        self.index.store.close()


def _mean_costs(stats) -> Dict[str, float]:
    """Per-query means of a sequence of :class:`QueryStats`."""
    stats = list(stats)
    n = len(stats)
    return {
        "pages_per_query": sum(s.page_reads for s in stats) / n,
        "dist_evals_per_query":
            sum(s.distance_computations for s in stats) / n,
        "key_cmp_per_query": sum(s.key_comparisons for s in stats) / n,
    }


def _local_cold_counts(system, queries) -> Dict[str, float]:
    """The paper's protocol: empty pool before each query."""

    def cold(q):
        system.index.reset_cache()
        return system.index.knn(q, K).stats

    return _mean_costs(cold(q) for q in queries)


class GcdImmdr(_ReadWorkload):
    """MMDR + extended iDistance on correlated clusters (cache-resident)."""

    name = "gcd-immdr"
    traced_companion = "gcd-served"

    def points(self):
        return _gcd_points(self.n_points)

    def setup(self, points, recorder):
        from repro.index.idistance import ExtendedIDistance
        from repro.reduction import MMDRReducer

        reduced = MMDRReducer().reduce(points, rng_for(DATA_SEED, _REDUCE))
        return _LocalSystem(reduced, ExtendedIDistance(reduced))


class CorelGldr(_ReadWorkload):
    """LDR + gLDR (Hybrid trees) on Corel-like histograms (spills the
    buffer pool)."""

    name = "corel-gldr"
    n_queries = 64
    n_count = 64
    singles_per_round = 24
    block_rows = 8

    def points(self):
        return _corel_points(self.n_points)

    def setup(self, points, recorder):
        from repro.index.global_ldr import GlobalLDRIndex
        from repro.reduction import LDRReducer

        reduced = LDRReducer().reduce(points, rng_for(DATA_SEED, _REDUCE))
        return _LocalSystem(reduced, GlobalLDRIndex(reduced))


class _ServedSystem:
    """Two forked shard workers behind one router."""

    def __init__(self, reduced, router, supervisor, root: Path) -> None:
        self.reduced = reduced
        self.index = None
        self.router = router
        self.supervisor = supervisor
        self.root = root

    def _call(self, block):
        result = self.router.knn(block, K)
        if result.partial:
            raise RuntimeError(
                f"partial reply, missing shards {result.missing_shards}"
            )
        return result

    def knn(self, q):
        result = self._call(q[None, :])
        return result.ids[0], result.distances[0]

    def batch(self, block):
        result = self._call(block)
        return result.ids, result.distances

    def peak_rss_mb(self) -> float:
        return max(
            proc_peak_rss_mb(handle.process.pid)
            for handle in self.supervisor.workers.values()
        )

    def serve_counters(self) -> Dict[str, int]:
        counters = self.router.metrics.counters
        return {
            name: int(counters[name].value) if name in counters else 0
            for name in (
                "serve.retries",
                "serve.hedges_wasted",
                "serve.partial_results",
            )
        }

    def close(self) -> None:
        try:
            self.router.close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


class GcdServed(_ReadWorkload):
    """The gcd-immdr dataset over two partition-mode shard workers."""

    name = "gcd-served"
    n_queries = 128
    kinds = ("serve_knn", "serve_batch")
    n_shards = 2

    def points(self):
        return _gcd_points(self.n_points)

    def setup(self, points, recorder):
        from repro.reduction import MMDRReducer
        from repro.serve import Router, RouterConfig, ShardPlanner, Supervisor

        reduced = MMDRReducer().reduce(points, rng_for(DATA_SEED, _REDUCE))
        plan = ShardPlanner(self.n_shards, "partition").plan(reduced)
        root = self.root / f"served-{os.getpid()}-{time.monotonic_ns()}"
        supervisor = Supervisor(plan, "iMMDR", root)
        supervisor.prepare()
        router = Router(supervisor, RouterConfig(deadline_s=30.0))
        # Workers are forked: start them with the layer wrappers removed
        # so the shard processes run the program untouched.
        with recorder.suspended():
            supervisor.start()
        system = _ServedSystem(reduced, router, supervisor, root)
        system.knn(points[0])  # the first answerable query
        return system

    def cold_counts(self, system, queries):
        # Shards answer through the batch engine, whose per-row accounting
        # is the paper's cold-pool protocol by construction.
        return _mean_costs(system._call(q[None, :]).stats[0] for q in queries)


# ---------------------------------------------------------------------------
# gcd-ingest: reads beside a deterministic mutation stream
# ---------------------------------------------------------------------------


class GcdIngest(_Workload):
    """iMMDR under :class:`repro.ingest.IngestPipeline`: single-query
    ``knn`` rounds alternate with mutation requests, a batch block every
    few rounds, a checkpoint every few requests, and two drift phases that
    each push one partition's live MPE past the trigger so the pipeline
    reorganizes exactly twice.

    The script is a fixed op sequence whose length scales with the run
    time, so every count it produces repeats exactly for a seed.
    """

    name = "gcd-ingest"
    n_points = 10_000
    n_queries = 128
    n_count = 128
    #: Script rounds per requested second (calibrated on a 2-core host).
    rounds_per_second = 16
    singles_per_round = 8
    ops_per_request = 4
    batch_every = 4
    block_rows = 16
    checkpoint_every = 16
    #: Orthogonal jitter of a drift insert, in units of the partition MPE.
    drift_scale = 20.0
    max_drift_requests = 64

    def _create(self, points, where: Path):
        from repro.ingest import IngestPipeline
        from repro.reduction import MMDRReducer

        def reduce_fn(p):
            return MMDRReducer().reduce(p, rng_for(DATA_SEED, _REDUCE))

        pipeline, _ = IngestPipeline.create(
            where, points, reduce_fn, "iMMDR", page_store="memory"
        )
        return pipeline

    def measure(
        self, seed: int, seconds: float, setups: int, recorder=NULL
    ) -> Measurement:
        m = Measurement()
        points = _gcd_points(self.n_points)
        queries = _queries(points, self.n_queries, seed)
        base = self.root / f"ingest-{os.getpid()}-{time.monotonic_ns()}"
        pipeline = None
        try:
            for attempt in range(setups):
                if pipeline is not None:
                    pipeline.close()
                    pipeline = None
                gc.collect()
                with recorder.request("setup"):
                    start = time.perf_counter()
                    pipeline = self._create(
                        points, base / f"setup-{attempt}"
                    )
                    m.setup_s.append(time.perf_counter() - start)
            # Cold counts on the bulk-built state and on the state the
            # script leaves, averaged: the first is the same for every
            # seed, the second depends on the seed's mutation stream.
            with recorder.request("count"):
                before = self._cold_counts(pipeline, queries)
            gc.collect()
            rounds = max(6, int(round(seconds * self.rounds_per_second)))
            self._script(pipeline, points, queries, rounds, seed, m, recorder)
            with recorder.request("count"):
                after = self._cold_counts(pipeline, queries)
            m.exact.update(
                {name: (before[name] + after[name]) / 2 for name in before}
            )
            m.peak_rss_mb = self_peak_rss_mb()
        finally:
            if pipeline is not None:
                pipeline.close()
            shutil.rmtree(base, ignore_errors=True)
        return m

    # -- the script -----------------------------------------------------------

    def _script(self, pipeline, points, queries, rounds, seed, m, recorder):
        rng = rng_for(seed, _OPS)
        live: Dict[int, np.ndarray] = {
            i: points[i] for i in range(points.shape[0])
        }
        deletable = list(range(points.shape[0]))
        next_rid = points.shape[0]
        # Every round sends one request of ops_per_request ops, so no
        # global rid reaches past this bound.
        alive = np.zeros(
            next_rid + rounds * self.ops_per_request, dtype=bool
        )
        alive[:next_rid] = True
        drift_at = {rounds // 3, (2 * rounds) // 3}
        drifting = False
        drift_requests = 0
        requests = n_ops = reorgs = checkpoints = 0
        wal_bytes = oplog_bytes = 0
        warm_pages = warm_queries = 0
        oracle: Optional[Oracle] = None
        clock = time.perf_counter
        begin = clock()

        def live_member(sub) -> np.ndarray:
            """A random live member of a current partition, in original
            space."""
            rid_map = pipeline.rid_map
            while True:
                local = int(sub.member_ids[rng.integers(sub.member_ids.size)])
                vector = live.get(int(rid_map[local]))
                if vector is not None:
                    return vector

        def drift_insert(rid):
            sub = pipeline.index.reduced.subspaces[0]
            vector = live_member(sub)
            jitter = rng.normal(size=vector.shape[0])
            jitter -= sub.basis @ (sub.basis.T @ jitter)
            jitter *= self.drift_scale * max(sub.mpe, 1e-6) / np.linalg.norm(
                jitter
            )
            return ("insert", vector + jitter, rid, 1e9)

        def normal_insert(rid):
            subspaces = pipeline.index.reduced.subspaces
            sub = subspaces[int(rng.integers(len(subspaces)))]
            scaled = live_member(sub) * (1.0 + rng.uniform(1e-6, 1e-5))
            return ("insert", scaled, rid, 4.0 * max(sub.mpe, 1e-6))

        def current_oracle() -> Optional[Oracle]:
            """Oracle over the index's held live set; a held set that is
            not exactly the stream's live set is one failure."""
            try:
                built = self._oracle(pipeline, alive)
            except ValueError as exc:
                m.attempted += 1
                m.fail(f"round {rnd}: {exc}")
                return None
            if built.n != len(live):
                m.attempted += 1
                m.fail(
                    f"round {rnd}: index holds {built.n} live points, "
                    f"the stream has {len(live)}"
                )
                return None
            return built

        def wal_counter() -> int:
            wal = pipeline.index.wal
            return int(wal.metrics.counter("wal.bytes_appended").value)

        for rnd in range(rounds):
            probe = host_probe_s()
            if rnd in drift_at:
                drifting = True
            # -- reads -----------------------------------------------------
            for j in range(self.singles_per_round):
                qi = (rnd * self.singles_per_round + j) % len(queries)
                index = pipeline.index
                pool = index.pool
                hits, misses = pool.hits, pool.misses
                before = index.counters.snapshot()
                try:
                    with recorder.request("knn"):
                        start = clock()
                        result = pipeline.knn(queries[qi], K)
                        m.knn_s.append(clock() - start)
                    m.knn_q.append(qi)
                    m.knn_h.append(probe)
                except Exception as exc:
                    m.attempted += 1
                    m.fail(f"knn raised {type(exc).__name__}: {exc}")
                    continue
                diff = index.counters.snapshot() - before
                warm_pages += diff.total_page_reads
                warm_queries += 1
                m.pool_hits += pool.hits - hits
                m.pool_misses += pool.misses - misses
                m.delta_fractions.append(
                    index.n_inserted / max(1, index.live_count)
                )
                oracle = oracle or current_oracle()
                if oracle is None:
                    continue
                m.attempted += 1
                reason = oracle.check(
                    queries[qi], K, result.ids, result.distances
                )
                if reason is not None:
                    m.fail(f"round {rnd} query {qi}: {reason}")
            if rnd % self.batch_every == 0:
                b = (rnd // self.batch_every) % (
                    len(queries) // self.block_rows
                )
                block = queries[b * self.block_rows:(b + 1) * self.block_rows]
                try:
                    with recorder.request("batch", rows=len(block)):
                        start = clock()
                        result = pipeline.knn_batch(block, K)
                        m.batch_s.append(clock() - start)
                    m.batch_h.append(probe)
                    m.batch_rows += len(block)
                except Exception as exc:
                    m.attempted += len(block)
                    m.fail(f"batch raised {type(exc).__name__}: {exc}")
                else:
                    oracle = oracle or current_oracle()
                    for row in range(len(block) if oracle else 0):
                        m.attempted += 1
                        reason = oracle.check(
                            block[row], K, result.ids[row],
                            result.distances[row],
                        )
                        if reason is not None:
                            m.fail(f"round {rnd} batch row {row}: {reason}")
            # -- one mutation request ----------------------------------------
            ops = []
            for j in range(self.ops_per_request):
                if drifting:
                    ops.append(drift_insert(next_rid))
                    next_rid += 1
                elif j == self.ops_per_request - 1:
                    pick = int(rng.integers(len(deletable)))
                    deletable[pick], deletable[-1] = (
                        deletable[-1], deletable[pick]
                    )
                    ops.append(("delete", deletable.pop()))
                else:
                    ops.append(normal_insert(next_rid))
                    next_rid += 1
            requests += 1
            fired = False
            with recorder.request("write", rows=len(ops)):
                for op in ops:
                    m.attempted += 1
                    try:
                        start = clock()
                        pipeline.apply(op)
                        m.write_s.append(clock() - start)
                    except Exception as exc:
                        m.fail(f"{op[0]} raised {type(exc).__name__}: {exc}")
                        continue
                    n_ops += 1
                    if op[0] == "insert":
                        live[int(op[2])] = np.asarray(op[1], dtype=np.float64)
                        alive[int(op[2])] = True
                    else:
                        live.pop(int(op[1]))
                        alive[int(op[1])] = False
                # Batch end, as IngestPipeline.apply_batch does it, plus
                # the periodic checkpoint; the stall lands on the last op.
                start = clock()
                pipeline.sampler.sample(pipeline.index, label="bench")
                trigger = pipeline.check_drift()
                if trigger.fired:
                    wal_bytes += wal_counter()
                    oplog_bytes += os.path.getsize(pipeline.oplog.path)
                    pipeline.reorg(trigger)
                    reorgs += 1
                    fired = True
                if requests % self.checkpoint_every == 0:
                    pipeline.checkpoint()
                    checkpoints += 1
                if m.write_s:
                    m.write_s[-1] += clock() - start
            oracle = None
            if drifting:
                drift_requests += 1
                if fired:
                    drifting = False
                    drift_requests = 0
                elif drift_requests >= self.max_drift_requests:
                    m.fail("drift phase did not fire a reorganization")
                    drifting = False
                    drift_requests = 0
        wal_bytes += wal_counter()
        oplog_bytes += os.path.getsize(pipeline.oplog.path)
        m.seconds = clock() - begin
        m.exact.update({
            "reorg_count": reorgs,
            "checkpoint_count": checkpoints,
            "write_ops": n_ops,
            "wal_bytes_per_write": (wal_bytes + oplog_bytes) / max(1, n_ops),
            "warm_pages_per_query": warm_pages / max(1, warm_queries),
            "live_points": len(live),
        })

    def _cold_counts(self, pipeline, queries) -> Dict[str, float]:
        return _local_cold_counts(
            _LocalSystem(None, pipeline.index), queries[: self.n_count]
        )

    @staticmethod
    def _oracle(pipeline, alive: np.ndarray) -> Oracle:
        """An oracle over every live vector the index holds, in global
        rids (a rid held twice raises ``ValueError``)."""
        rid_map = pipeline.rid_map
        frames = []
        for part in pipeline.index.partitions:
            vectors = part.vectors
            local = part.rids
            if part.delta_rids:
                vectors = np.vstack([vectors] + part.delta_vectors)
                local = np.concatenate(
                    [local, np.asarray(part.delta_rids, dtype=np.int64)]
                )
            rids = rid_map[local]
            keep = alive[rids]
            sub = part.subspace
            frames.append((
                None if sub is None else sub.mean,
                None if sub is None else sub.basis,
                vectors[keep],
                rids[keep],
            ))
        return Oracle(frames)


WORKLOADS = {
    w.name: w for w in (GcdImmdr, CorelGldr, GcdIngest, GcdServed)
}


def make_workload(name: str, root: Path, **sizes):
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return cls(root, **sizes)

