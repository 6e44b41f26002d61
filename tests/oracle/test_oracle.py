"""One differential oracle for every query path.

:class:`OracleMachine` drives one index per scheme x store x metric
through every rule below and holds each ``knn``, ``knn_batch`` and
``knn_loop`` answer to the exact scan of :class:`~.model.Model`.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import replace
import itertools
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import recovery
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index import ExtendedIDistance, VectorIndex, index_builder
from repro.index.base import InvalidQueryError, check_query_block
from repro.ingest import IngestPipeline, translate_ids
from repro.linalg.kernels import normalize_rows
from repro.persist import load_index, save_index
from repro.reduction import LDRReducer, MMDRReducer, ReducedDataset
from repro.serve import ShardPlanner, router
from repro.serve.planner import mode_for_scheme
from repro.storage.buffer import BufferPool
from repro.storage.faults import (
    PHASES, CrashError, CrashPoint, FaultPlan, RetryPolicy,
)
from repro.storage.pager import TransientPageError

from .model import Model

CONFIGS = list(itertools.product(
    ("iMMDR", "gLDR", "SeqScan"), ("memory", "mmap"), ("l2", "cosine")
))
#: Engines project and score with other kernels than the model's plain
#: ``(x - mean) @ basis`` and ``np.linalg.norm``: distances agree to this.
TOL = 1e-9
SETTINGS = settings(
    max_examples=4, stateful_step_count=10, derandomize=True,
    deadline=None, database=None, suppress_health_check=list(HealthCheck),
)


#: Each scheme's reduction, as in the paper: gLDR indexes LDR's clusters.
REDUCERS = {"iMMDR": MMDRReducer, "gLDR": LDRReducer, "SeqScan": MMDRReducer}


def _reduce(points: np.ndarray, scheme: str, metric: str) -> ReducedDataset:
    reduced = REDUCERS[scheme]().reduce(points, np.random.default_rng(1))
    reduced.metric = metric
    return reduced


@functools.lru_cache(maxsize=None)
def _bulk(scheme: str, metric: str):
    """Three 3-of-8-d ellipsoids plus 3% noise (an outlier partition),
    unit-normalized under cosine, and the scheme's reduction of them."""
    spec = SyntheticSpec(
        n_points=200, dimensionality=8, n_clusters=3, retained_dims=3,
        variance_r=0.3, variance_e=0.015, noise_fraction=0.03,
    )
    points = generate_correlated_clusters(
        spec, np.random.default_rng(7)
    ).points
    if metric == "cosine":
        points = normalize_rows(points)
    return points, _reduce(points, scheme, metric)


#: Names of every rule, registered as they are defined.
RULES = []


def counted(fn):
    """Count each firing of a rule on the machine class."""
    RULES.append(fn.__name__)

    @functools.wraps(fn)
    def wrapper(self, **kwargs):
        type(self).fired[fn.__name__] += 1
        return fn(self, **kwargs)

    return wrapper


#: A rule draws one seed and derives its point, block or ops from it.
seeds = st.integers(0, 2**32 - 1)
POINT_KINDS = ("subspace", "outlier", "far", "zero")
QUERY_KINDS = ("near", "near", "far", "nan", "zero")


class OracleMachine(RuleBasedStateMachine):
    """One index and its model; :func:`machine_for` sets the scheme,
    store and metric.  ``fired`` counts rules and notable events."""

    scheme = store = metric = None
    fired: Counter

    def __init__(self) -> None:
        super().__init__()
        self.bulk, reduced = _bulk(self.scheme, self.metric)
        self.build = index_builder(self.scheme, self.store)
        self.index = self.build(reduced)
        self.model = Model(reduced, dict(enumerate(self.bulk)))
        self.next_rid, self.next_sparse = reduced.n_points, 1_000_003
        self.tmp, self.n_dirs, self.wal_dir = None, 0, None
        self.changed = self.reorganized = False

    def teardown(self) -> None:
        if self.index.wal is not None:
            self.index.wal.close()
        self.index.store.close()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def _dir(self, label: str) -> Path:
        if self.tmp is None:
            self.tmp = Path(tempfile.mkdtemp(prefix="repro_oracle_"))
        self.n_dirs += 1
        return self.tmp / f"{label}-{self.n_dirs}"

    def _adopt(self, index: VectorIndex) -> None:
        if index.store is not self.index.store:
            self.index.store.close()
        self.index = index
        self._probe()

    def _point(self, kind: str, rng: np.random.Generator):
        """An insert point of ``kind`` and the β it goes in with."""
        anchor = self.bulk[rng.integers(len(self.bulk))]
        scale = float(self.bulk.std())
        if kind == "subspace":
            jitter = rng.normal(0, 1e-4 * scale, anchor.shape)
            return anchor * (1.0 + 1e-5) + jitter, 0.25
        if kind == "outlier":
            return anchor + rng.normal(0, scale, anchor.shape), 0.1
        if kind == "zero":
            return np.zeros_like(anchor), 0.1
        # Far along one axis of one subspace: residual ~0 there, key
        # offset past every stored one (past iMMDR's ``c``).
        subspaces = self.model.reduced.subspaces
        subspace = subspaces[rng.integers(len(subspaces))]
        axis = subspace.basis[:, rng.integers(subspace.reduced_dim)]
        reach = 4.0 * float(np.ptp(self.bulk)) * np.sqrt(self.bulk.shape[1])
        return subspace.mean + rng.choice([-reach, reach]) * axis, np.inf

    def _insert(self, rng: np.random.Generator) -> None:
        kind = POINT_KINDS[rng.integers(len(POINT_KINDS))]
        raw, beta = self._point(kind, rng)
        if rng.random() < 0.5:  # the next dense rid, or a sparse one
            rid, self.next_rid = self.next_rid, self.next_rid + 1
        else:
            rid = self.next_sparse = self.next_sparse + 7919
        if self.metric == "cosine" and kind == "zero":
            with pytest.raises(InvalidQueryError, match="zero"):
                self.index.insert(raw, rid, beta=beta)
            return
        point = self.model.admit(raw)
        frame, vector = self.model.route(point, beta)
        immdr = isinstance(self.index, ExtendedIDistance)
        if immdr and frame >= 0:
            # A key offset reaching the stretch constant ``c`` outside
            # the last partition sends the point to the outliers.
            last = len(self.index.partitions) - 1
            if np.linalg.norm(vector) >= self.index.c and frame != last:
                type(self).fired["key_overflow"] += 1
                frame, vector = -1, point
        if frame < 0:
            type(self).fired["outlier_insert"] += 1
            if immdr and not self.model.reduced.outliers.size:
                with pytest.raises(ValueError, match="outlier partition"):
                    self.index.insert(raw, rid, beta=beta)
                return
        assert self.index.insert(raw, rid, beta=beta) == frame
        self.model.add(rid, point, frame, vector)
        self.changed = True

    def _delete(self, rng: np.random.Generator) -> None:
        live = self.model.live
        rid = int(live[rng.integers(live.size)])
        self.index.delete(rid)
        self.model.remove(rid)
        self.changed = True

    def _queries(self, rng: np.random.Generator, n_rows: int) -> np.ndarray:
        """Rows near a live point (scaled: cosine ignores it), far off,
        with a NaN or Inf component, or all zero."""
        live, d = self.model.live, self.bulk.shape[1]
        block = np.zeros((n_rows, d))
        for row in block:
            kind = QUERY_KINDS[rng.integers(len(QUERY_KINDS))]
            if kind == "near":
                point = self.model.points[int(live[rng.integers(live.size)])]
                row[:] = (point + rng.normal(0, 0.02, d)) * rng.uniform(.5, 4)
            elif kind != "zero":
                row[:] = rng.normal(0, 1.0, d)
                if kind == "nan":
                    row[rng.integers(d)] = rng.choice([np.nan, np.inf])
        return block

    def _valid(self, queries: np.ndarray) -> np.ndarray:
        valid = np.isfinite(queries).all(axis=1)
        if self.metric == "cosine":
            valid &= np.abs(queries).sum(axis=1) > 0
        return valid

    def _check_answers(self, queries, valid, k, ids, dists) -> None:
        """Valid rows against the model's scan: the sorted distances, and
        every returned rid live, distinct and at its returned distance."""
        for row in np.flatnonzero(valid).tolist():
            rids, scores = self.model.scan(self.model.admit(queries[row]))
            width = min(k, rids.size)
            assert ids[row].shape == (width,)
            np.testing.assert_allclose(
                dists[row], np.sort(scores)[:width], rtol=0, atol=TOL)
            where = np.minimum(np.searchsorted(rids, ids[row]), rids.size - 1)
            assert (rids[where] == ids[row]).all()
            assert np.unique(ids[row]).size == width
            np.testing.assert_allclose(
                scores[where], dists[row], rtol=0, atol=TOL)

    def _check_block(self, queries: np.ndarray, k: int) -> None:
        """``knn_batch``, ``knn_loop`` and ``knn`` on one block: answers
        held to the scan, and the block paths equal bit for bit, costs
        and counters included."""
        assert self.index.live_count == len(self.model.frames)
        valid = self._valid(queries)
        invalid = tuple(np.flatnonzero(~valid).tolist())
        snaps = [self.index.counters.snapshot()]
        batch = self.index.knn_batch(queries, k)
        snaps.append(self.index.counters.snapshot())
        loop = self.index.knn_loop(queries, k)
        snaps.append(self.index.counters.snapshot())
        width = min(k, len(self.model.frames))
        assert batch.ids.shape == (len(queries), width)
        assert batch.invalid_queries == loop.invalid_queries == invalid
        assert np.array_equal(batch.ids, loop.ids)
        assert np.array_equal(batch.distances, loop.distances, equal_nan=True)
        # Every cost but CPU time, per query and on the index's counters.
        for a, b in zip(batch.stats, loop.stats):
            assert replace(a, cpu_seconds=0) == replace(b, cpu_seconds=0)
        spent = [replace(b - a, cpu_seconds=0)
                 for a, b in zip(snaps, snaps[1:])]
        assert spent[0] == spent[1]
        for row in invalid:
            assert (batch.ids[row] == -1).all()
            assert np.isnan(batch.distances[row]).all()
            assert batch.stats[row].page_reads == 0
        self._check_answers(queries, valid, k, batch.ids, batch.distances)
        for row, query in enumerate(queries):
            if not valid[row]:
                with pytest.raises(InvalidQueryError):
                    self.index.knn(query, k)
                continue
            one = self.index.knn(query, k)
            assert np.array_equal(one.ids, loop.ids[row])
            assert np.array_equal(one.distances, loop.distances[row])

    def _check_random_block(self, rng: np.random.Generator, extra: int = 0):
        k = int(rng.choice([1, 3, 10]))
        self._check_block(self._queries(rng, rng.integers(4) + extra), k)

    def _probe(self) -> None:
        self._check_block(self._queries(np.random.default_rng(0), 1), 5)

    @initialize(seed=seeds)
    def tour(self, seed):
        """Every rule once, in an order that meets each precondition, so
        every example reaches every path; drawn steps then interleave."""
        rng = np.random.default_rng(seed)
        for name in TOUR:
            drawn = {"seed": int(rng.integers(2**32))}
            getattr(self, name)(**({} if name in UNSEEDED else drawn))

    # -- mutations -------------------------------------------------------

    @rule(seed=seeds)
    @counted
    def insert(self, seed):
        """Subspace-routed, outlier-routed, far (past iMMDR's key range)
        or zero (a typed error under cosine) points."""
        self._insert(np.random.default_rng(seed))

    @rule(seed=seeds)
    @counted
    def delete(self, seed):
        self._delete(np.random.default_rng(seed))

    @rule(seed=seeds)
    @counted
    def reinsert(self, seed):
        """A live rid, and a rid deleted before the next rebuild, are
        refused with ``ValueError``, leaving the index as it was."""
        rng = np.random.default_rng(seed)
        if not self.model.deleted:
            self._delete(rng)
        live, deleted = self.model.live, sorted(self.model.deleted)
        for rid in (live[rng.integers(live.size)], rng.choice(deleted)):
            with pytest.raises(ValueError, match="rid"):
                self.index.insert(self.bulk[0], int(rid))
        self._probe()

    # -- queries ---------------------------------------------------------

    @rule(seed=seeds)
    @counted
    def knn(self, seed):
        self._check_random_block(np.random.default_rng(seed))

    @precondition(lambda self: self.index.wal is None)
    @rule(seed=seeds)
    @counted
    def fault_window(self, seed):
        """Transient read faults that repeat fewer times than the retry
        policy allows change neither answers nor costs.  Only without a
        WAL: the index refuses to stack the wrappers."""
        rng = np.random.default_rng(seed)
        faulty = self.index.enable_faults(FaultPlan(
            seed=seed, transient_read_prob=float(rng.choice([0.05, 0.3])),
            transient_repeat=int(rng.integers(1, RetryPolicy().max_attempts)),
        ))
        try:
            self._check_random_block(rng, extra=1)
        finally:
            self.index.disable_faults()
        retried = faulty.fault_metrics.counter("faults.retried").value
        assert retried >= faulty.faults_injected
        type(self).fired["faults_retried"] += retried

    @rule(seed=seeds)
    @counted
    def shard_split(self, seed):
        """The live set split by ``ShardPlanner``, each shard answering
        the valid rows (the router never sends the others), merged by the
        router's ``merge_topk``."""
        rng = np.random.default_rng(seed)
        k = int(rng.choice([1, 3, 10]))
        queries = self._queries(rng, rng.integers(4) + 1)
        queries[0] = self.model.points[int(self.model.live[0])]
        queries = queries[self._valid(queries)]
        reduced, live = self.model.live_reduction()
        try:
            plan = ShardPlanner(2, mode_for_scheme(self.scheme)).plan(reduced)
        except ValueError:  # too few partitions for two shards
            plan = ShardPlanner(2, "hash").plan(reduced)
        ids, dists = [], []
        for shard in plan.shards:
            index = self.build(shard.reduced)
            result = index.knn_batch(queries, min(k, index.live_count))
            index.store.close()
            ids.append(translate_ids(result.ids, live[shard.rid_map]))
            dists.append(result.distances)
        self._check_answers(queries, np.ones(len(queries), bool), k,
                            *router.merge_topk(ids, dists, k))

    # -- durability ------------------------------------------------------

    @precondition(lambda self: self.changed)
    @rule()
    @counted
    def snapshot_round_trip(self):
        """Save and load; a WAL is detached first (a log cannot ride in
        a snapshot)."""
        if self.index.wal is not None:
            self.index.disable_wal().wal.close()
        path = self._dir("snapshot")
        save_index(self.index, path)
        self._adopt(load_index(path))
        self.changed = False

    def _checkpoint(self) -> None:
        if self.index.wal is None:
            # A fresh log each time: it must number its records past the
            # LSNs the pages carry from earlier logs, or recovery skips
            # them.
            self.wal_dir = self._dir("wal")
            self.index.enable_wal(self.wal_dir / recovery.WAL_NAME)
        recovery.checkpoint(self.index, self.wal_dir / self._dir("ck").name)
        self.changed = False

    @precondition(lambda self: self.index.wal is None or self.changed)
    @rule()
    @counted
    def checkpoint(self):
        """Snapshot + truncated log, attaching a WAL when none is."""
        self._checkpoint()

    @rule(seed=seeds)
    @counted
    def crash(self, seed):
        """One to three mutations under the WAL (checkpointed first when
        none is attached) with a crash armed at a sampled log write, then
        ``recover()``: the ops before the one in flight survive and it is
        lost; without a crash the process dies after the last op."""
        rng = np.random.default_rng(seed)
        if self.index.wal is None:
            self._checkpoint()
        self.index.store.clock.arm(CrashPoint(
            at_write=int(rng.integers(1, 4)), phase=PHASES[rng.integers(2)]
        ))
        try:
            for _ in range(rng.integers(1, 4)):
                if rng.random() < 0.6:
                    self._insert(rng)
                else:
                    self._delete(rng)
        except CrashError:
            type(self).fired["crash_mid_op"] += 1
        self.index.wal.close()
        self._adopt(recovery.recover(self.wal_dir / recovery.WAL_NAME)[0])

    @precondition(lambda self: not self.reorganized)
    @rule()
    @counted
    def reorg(self):
        """Once per example: an ``IngestPipeline`` whose generation 1 is
        the live set as it stands, then ``reorg()`` re-reduces its points
        into generation 2, whose index (in its own rid space) replaces
        the machine's; the model re-keys into the new frames."""
        live = self.model.live
        points = np.stack([self.model.points[rid] for rid in live.tolist()])
        generations = iter([self.model.live_reduction()[0]])
        pipeline, _ = IngestPipeline.create(
            self._dir("ingest"), points,
            lambda rows: (next(generations, None)
                          or _reduce(rows, self.scheme, self.metric)),
            self.scheme, auto_reorg=False, page_store=self.store,
        )
        report = pipeline.reorg()
        assert report.new_generation == 2 and report.n_points == live.size
        pipeline.oplog.close()
        index, rid_map = pipeline.index, pipeline.rid_map.tolist()
        index.disable_wal().wal.close()
        self.model = Model(index.reduced, {
            local: self.model.points[int(live[g])]
            for local, g in enumerate(rid_map)
        })
        self.next_rid, self.wal_dir = live.size, None
        self.reorganized = True
        self._adopt(index)


#: The tour: mutations and queries, the fault window while no WAL is
#: attached, then the durability rules, ``reorg`` last.
TOUR = ("insert", "delete", "reinsert", "knn", "fault_window", "shard_split",
        "snapshot_round_trip", "checkpoint", "crash", "reorg")
UNSEEDED = ("snapshot_round_trip", "checkpoint", "reorg")
assert sorted(TOUR) == sorted(RULES)


def machine_for(scheme: str, store: str, metric: str):
    return type(f"Oracle_{scheme}_{store}_{metric}", (OracleMachine,), {
        "scheme": scheme, "store": store, "metric": metric,
        "fired": Counter(),
    })


@pytest.mark.perf_smoke
@pytest.mark.fault_smoke
@pytest.mark.parametrize("scheme, store, metric", CONFIGS)
def test_every_path_matches_the_exact_scan(scheme, store, metric):
    machine = machine_for(scheme, store, metric)
    run_state_machine_as_test(machine, settings=SETTINGS)
    fired = machine.fired
    assert not set(RULES) - set(fired), fired
    assert fired["outlier_insert"]
    if scheme == "iMMDR":
        assert fired["key_overflow"] and fired["crash_mid_op"]
    if scheme != "SeqScan":  # a scan reads sequentially, never retries
        assert fired["faults_retried"]


# -- planted defects the oracle must catch -------------------------------


def _swap_batch_neighbours(monkeypatch):
    engine = ExtendedIDistance._knn_batch

    def swapped(self, queries, k, tracer):
        ids, distances, stats = engine(self, queries, k, tracer)
        ids[:, :2] = ids[:, 1::-1].copy()
        return ids, distances, stats

    monkeypatch.setattr(ExtendedIDistance, "_knn_batch", swapped)


def _wrong_page_on_retry(monkeypatch):
    def fetch(self, page_id):
        try:
            return self.store.fetch(page_id)
        except TransientPageError:
            self.store.fault_metrics.counter("faults.retried").inc()
            return self.store.raw_fetch(page_id - 1 if page_id else 1)

    monkeypatch.setattr(BufferPool, "_fetch_with_retry", fetch)


def _drop_last_insert(monkeypatch):
    """Recovery forgets the last committed insert."""
    module = importlib.import_module("repro.recovery.recover")
    analyze = module._analyze

    def analyzed(records):
        ckpt, commits, discarded = analyze(records)
        inserts = [c for c in commits if c.payload.get("kind") == "insert"]
        drop = inserts[-1] if inserts else None
        return ckpt, [c for c in commits if c is not drop], discarded

    monkeypatch.setattr(module, "_analyze", analyzed)


def _merge_loses_a_best_row(monkeypatch):
    merge = router.merge_topk

    def lossy(shard_ids, shard_distances, k):
        return merge([shard_ids[0][:, 1:], *shard_ids[1:]],
                     [shard_distances[0][:, 1:], *shard_distances[1:]], k)

    monkeypatch.setattr(router, "merge_topk", lossy)


def _merge_drops_a_last_run(monkeypatch):
    """iDistance's block merge drops one query's last run in a probe."""
    module = importlib.import_module("repro.index.idistance")
    merge = module._merge_offers

    def lossy(best_d, best_r, kth, rows, parts_d, parts_r):
        if len(parts_d[0]) == 1:
            rows, parts_d, parts_r = rows[1:], parts_d[1:], parts_r[1:]
        else:
            parts_d = [parts_d[0][:-1], *parts_d[1:]]
            parts_r = [parts_r[0][:-1], *parts_r[1:]]
        if rows:
            merge(best_d, best_r, kth, rows, parts_d, parts_r)

    monkeypatch.setattr(module, "_merge_offers", lossy)


def _admit_without_normalizing(monkeypatch):
    def admit(self, queries, k):
        queries, valid = check_query_block(
            queries, k, self.query_dim, self.metric)
        return (queries if valid.all() else queries[valid]), valid

    monkeypatch.setattr(VectorIndex, "_admit", admit)


DEFECTS = {
    "swapped_batch_neighbour":
        (("iMMDR", "memory", "l2"), _swap_batch_neighbours),
    "wrong_page_on_retry":
        (("iMMDR", "mmap", "cosine"), _wrong_page_on_retry),
    "recovery_drops_last_committed_insert":
        (("SeqScan", "mmap", "l2"), _drop_last_insert),
    "merge_loses_a_shard_best_row":
        (("iMMDR", "memory", "cosine"), _merge_loses_a_best_row),
    "admit_skips_cosine_normalization":
        (("gLDR", "mmap", "cosine"), _admit_without_normalizing),
    "block_merge_drops_a_last_run":
        (("iMMDR", "memory", "l2"), _merge_drops_a_last_run),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_oracle_catches_planted_defects(defect, monkeypatch):
    config, plant = DEFECTS[defect]
    plant(monkeypatch)
    no_shrink = settings(SETTINGS, phases=[Phase.explicit, Phase.generate])
    with pytest.raises(Exception):
        run_state_machine_as_test(machine_for(*config), settings=no_shrink)
