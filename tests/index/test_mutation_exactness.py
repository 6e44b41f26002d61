"""Exactness of the extended iDistance under online inserts and deletes.

The scan filters deleted entries by position (a per-partition alive
mask) and scores the delta store from a cached column block; both are
derived from the index's mutation state.  These tests hold every answer
to an exact scan over the vectors the index holds, through randomized
mutation scripts (deletes of bulk *and* inserted entries in every
partition, outlier-routed inserts, sparse rids, snapshot round trips)
and through every entry point that changes the held set.
"""

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index.idistance import ExtendedIDistance
from repro.persist import load_index, save_index
from repro.recovery import checkpoint, recover
from repro.reduction.mmdr_adapter import model_to_reduced
from repro.storage.wal import WriteAheadLog

K = 7


@pytest.fixture(scope="module")
def data():
    """Three 4-of-16-d ellipsoids plus 2% noise: an outlier partition."""
    spec = SyntheticSpec(
        n_points=1500,
        dimensionality=16,
        n_clusters=3,
        retained_dims=4,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.02,
    )
    ds = generate_correlated_clusters(spec, np.random.default_rng(2301))
    model = MMDR().fit(ds.points, np.random.default_rng(2302))
    reduced = model_to_reduced(model)
    assert reduced.outliers.size > 0
    return ds.points, reduced


def held_scan(index, query, k):
    """Exact KNN over the live frame vectors the index holds: every
    partition's bulk and delta entries, minus the deleted rids."""
    dead = np.fromiter(index._tombstones, dtype=np.int64)
    all_ids, all_dists = [], []
    for part in index.partitions:
        rows, rids = [part.vectors], [part.rids]
        if part.delta_rids:
            rows.append(np.array(part.delta_vectors))
            rids.append(np.array(part.delta_rids, dtype=np.int64))
        rows = np.ascontiguousarray(np.vstack(rows))
        rids = np.concatenate(rids)
        keep = ~np.isin(rids, dead)
        projected = part.project_query(query)
        all_dists.append(np.linalg.norm(rows[keep] - projected, axis=1))
        all_ids.append(rids[keep])
    ids, dists = np.concatenate(all_ids), np.concatenate(all_dists)
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


def assert_exact(index, queries, k=K):
    """``knn`` (cold, one query at a time) and ``knn_batch`` agree bit for
    bit, answers and costs, and both equal the exact held scan."""
    batch = index.knn_batch(queries, k)
    for row, query in enumerate(queries):
        index.reset_cache()
        lone = index.knn(query, k)
        assert np.array_equal(lone.ids, batch.ids[row])
        assert np.array_equal(lone.distances, batch.distances[row])
        for field in (
            "page_reads", "distance_computations", "key_comparisons"
        ):
            assert getattr(lone.stats, field) == getattr(
                batch.stats[row], field
            )
        ids, dists = held_scan(index, query, k)
        assert np.array_equal(lone.ids, ids)
        assert np.allclose(lone.distances, dists, rtol=0, atol=1e-12)


class _Script:
    """A seeded mutation script over one index, tracking which live
    entries are bulk-loaded and which were inserted, per partition."""

    def __init__(self, points, reduced, seed):
        self.points = points
        self.rng = np.random.default_rng(seed)
        self.index = ExtendedIDistance(reduced)
        n_parts = len(self.index.partitions)
        self.bulk = [set(p.rids.tolist()) for p in self.index.partitions]
        self.inserted = [set() for _ in range(n_parts)]
        self.deleted_bulk = [0] * n_parts
        self.deleted_inserted = [0] * n_parts
        self.n_deletes = 0
        self.next_rid = [reduced.n_points, 1_000_001]

    def insert(self):
        rng = self.rng
        anchor = self.points[int(rng.integers(len(self.points)))]
        roll = rng.random()
        if roll < 0.2:
            # Conforms to no subspace: the outlier partition, full-d.
            point, beta = anchor + rng.normal(0.0, 0.5, anchor.shape), 0.0
        else:
            point = anchor * (1.0 + rng.uniform(1e-6, 1e-4))
            beta = 1.0
        # Dense rids right past the bulk range and sparse ones far beyond.
        which = int(rng.integers(2))
        rid = self.next_rid[which]
        self.next_rid[which] += 1 if which == 0 else 7919
        self.index.insert(point, rid, beta=beta)
        part, _ = self.index.locate(rid)
        self.inserted[part].add(rid)
        return point

    def delete(self):
        # Partitions in turn, bulk and inserted entries alternating per
        # round, so every partition sees both kinds of delete.
        n_parts = len(self.bulk)
        part = self.n_deletes % n_parts
        kind = (self.n_deletes // n_parts) % 2
        self.n_deletes += 1
        pools = [self.bulk[part], self.inserted[part]]
        if not pools[kind]:
            kind = 1 - kind
        if not pools[kind]:
            return
        rid = sorted(pools[kind])[int(self.rng.integers(len(pools[kind])))]
        self.index.delete(rid)
        pools[kind].discard(rid)
        if kind == 0:
            self.deleted_bulk[part] += 1
        else:
            self.deleted_inserted[part] += 1

    def round_trip(self, path):
        save_index(self.index, path)
        self.index = load_index(path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_mutations_match_the_held_scan(data, seed, tmp_path):
    points, reduced = data
    script = _Script(points, reduced, seed)
    rng = script.rng
    for step in range(60):
        roll = rng.random()
        recent = None
        if roll < 0.5:
            recent = script.insert()
        elif roll < 0.9:
            script.delete()
        else:
            script.round_trip(tmp_path / f"snap-{step}")
        near = points[int(rng.integers(len(points)))]
        queries = [near + rng.normal(0.0, 0.02, near.shape)]
        if recent is not None:
            queries.append(recent)
        assert_exact(script.index, np.array(queries))
    # The script reached what it claims to cover: deletes of bulk and of
    # inserted entries in every partition, the outlier partition (the
    # last) included.
    assert all(n > 0 for n in script.deleted_bulk)
    assert all(n > 0 for n in script.deleted_inserted)
    index = script.index
    assert index.live_count == reduced.n_points + index.n_inserted - len(
        index._tombstones
    )


class TestNoStaleScanState:
    """A query, one mutation entry point, a query again: the second answer
    must see the mutation (the scan's alive masks and delta blocks are
    derived state cached between queries)."""

    @staticmethod
    def _seed_mutations(index, points):
        """One delete and one insert per partition, so every partition
        carries an alive mask and a delta block before the test's own
        mutation."""
        rid = 2_000_000
        for part in index.partitions:
            index.delete(int(part.rids[part.rids.size // 2]))
            anchor = part.rids[0]
            beta = 1.0 if part.subspace is not None else 0.0
            index.insert(points[anchor] * (1.0 + 1e-5), rid, beta=beta)
            rid += 1

    @pytest.fixture
    def warm(self, data):
        points, reduced = data
        index = ExtendedIDistance(reduced)
        self._seed_mutations(index, points)
        query = points[11] + 1e-3
        assert_exact(index, query[None, :])
        return index, query

    @staticmethod
    def _mutate(index, query):
        """Delete the query's nearest bulk neighbour and insert a point at
        the query; returns both rids."""
        before = index.knn(query, K).ids
        victim = next(int(r) for r in before if r < index.reduced.n_points)
        index.delete(victim)
        index.insert(query, 3_000_003, beta=1.0)
        return victim, 3_000_003

    @staticmethod
    def _check(index, query, victim, new_rid):
        got = index.knn(query, K).ids.tolist()
        assert got[0] == new_rid
        assert victim not in got
        assert_exact(index, query[None, :])

    def test_insert_and_delete(self, warm):
        index, query = warm
        self._check(index, query, *self._mutate(index, query))

    def test_insert_alone(self, warm):
        index, query = warm
        index.insert(query, 3_000_004, beta=1.0)
        assert index.knn(query, 1).ids[0] == 3_000_004
        assert_exact(index, query[None, :])

    def test_delete_alone(self, warm):
        index, query = warm
        victim = int(index.knn(query, 1).ids[0])
        index.delete(victim)
        assert victim not in index.knn(query, K).ids.tolist()
        assert_exact(index, query[None, :])

    def test_load_index(self, warm, tmp_path):
        index, query = warm
        victim, new_rid = self._mutate(index, query)
        save_index(index, tmp_path / "snap")
        restored = load_index(tmp_path / "snap")
        self._check(restored, query, victim, new_rid)
        # The restored index keeps deriving its scan state as it mutates.
        restored.delete(new_rid)
        assert new_rid not in restored.knn(query, K).ids.tolist()
        assert_exact(restored, query[None, :])

    def test_wal_recover(self, warm, tmp_path):
        index, query = warm
        index.enable_wal(WriteAheadLog(tmp_path / "wal.log"))
        checkpoint(index, tmp_path / "ckpt")
        victim, new_rid = self._mutate(index, query)
        index.wal.close()
        recovered, report = recover(tmp_path / "wal.log")
        assert report.committed_kinds == ["delete", "insert"]
        self._check(recovered, query, victim, new_rid)
