"""Hybrid tree (the gLDR substrate)."""

import numpy as np
import pytest

from repro.index.hybrid_tree import (
    HybridTree,
    hybrid_internal_fanout,
    hybrid_leaf_capacity,
)
from repro.storage.buffer import BufferPool
from repro.storage.metrics import CostCounters
from repro.storage.pager import PageStore


def make_tree(vectors, rids=None, pool_pages=256):
    counters = CostCounters()
    store = PageStore(counters)
    pool = BufferPool(store, pool_pages, counters)
    if rids is None:
        rids = np.arange(vectors.shape[0])
    return HybridTree(store, pool, vectors, rids), counters


class TestGeometryOfFanout:
    def test_fanout_shrinks_with_dimensionality(self):
        """The structural reason gLDR loses at high dims (§6.2)."""
        assert hybrid_internal_fanout(10) > hybrid_internal_fanout(20)
        assert hybrid_internal_fanout(20) > hybrid_internal_fanout(30)

    def test_leaf_capacity_shrinks_with_dimensionality(self):
        assert hybrid_leaf_capacity(10) > hybrid_leaf_capacity(30)

    @pytest.mark.parametrize("d", [1, 10, 20, 30])
    def test_capacities_positive(self, d):
        assert hybrid_internal_fanout(d) >= 2
        assert hybrid_leaf_capacity(d) >= 1


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_tree(np.zeros((0, 4)))

    def test_rid_mismatch_rejected(self, rng):
        counters = CostCounters()
        store = PageStore(counters)
        pool = BufferPool(store, 16, counters)
        with pytest.raises(ValueError):
            HybridTree(store, pool, rng.normal(size=(5, 3)), np.arange(4))

    def test_single_point(self):
        tree, _ = make_tree(np.array([[1.0, 2.0]]), np.array([42]))
        assert tree.knn(np.array([0.0, 0.0]), 1) == [
            (pytest.approx(np.sqrt(5.0)), 42)
        ]

    def test_duplicate_points(self, rng):
        vectors = np.repeat(rng.normal(size=(3, 4)), 50, axis=0)
        tree, _ = make_tree(vectors)
        result = tree.knn(vectors[0], 10)
        assert len(result) == 10
        assert result[0][0] == pytest.approx(0.0)

        # Copies spread over several leaves, rids not in row order: each
        # leaf reaches the caller as one (dists, rids) block, and once the
        # heap is full a later leaf's ties at the bound never displace an
        # earlier one.  Ids and counts were recorded with the one-row-at-a-
        # time offer loop this block path replaced.
        vectors = np.repeat(rng.normal(size=(3, 4)), 400, axis=0)
        rids = rng.permutation(1200) + 1000
        tree, counters = make_tree(vectors, rids)
        pinned = [
            (vectors[0], 10, [1154, 1262, 1317, 1364, 1487, 1826, 1915,
                              1993, 2016, 2025], 534, 6),
            (vectors[500], 7, [1096, 1176, 1336, 1458, 1531, 1641, 1735],
             459, 5),
            (vectors[0] + 0.01, 12, [1031, 1059, 1445, 1726, 1774, 1866,
                                     1949, 1997, 2040, 2080, 2113, 2146],
             534, 6),
        ]
        for query, k, ids, dists, reads in pinned:
            counters.reset()
            assert [rid for _, rid in tree.knn(query, k)] == ids
            assert counters.distance_computations == dists
            assert counters.logical_reads == reads

        blocks, frontier = [], [tree.root_page]
        while frontier:
            tree.expand(
                frontier.pop(),
                vectors[0],
                lambda _mindist, page: frontier.append(page),
                lambda d, r: blocks.append((d, r)),
            )
        assert len(blocks) > 1
        assert all(
            d.dtype == np.float64 and r.dtype == np.int64
            and d.shape == r.shape
            for d, r in blocks
        )
        got = np.concatenate([r for _, r in blocks])
        assert sorted(got.tolist()) == sorted(rids.tolist())
        rows = np.argsort(rids)[np.searchsorted(np.sort(rids), got)]
        np.testing.assert_array_equal(
            np.concatenate([d for d, _ in blocks]),
            np.linalg.norm(vectors[rows] - vectors[0], axis=1),
        )

    def test_pages_allocated(self, rng):
        vectors = rng.normal(size=(5000, 8))
        tree, counters = make_tree(vectors)
        assert tree.store.allocated_pages > 5000 // hybrid_leaf_capacity(8)


class TestKNN:
    def test_exact_vs_brute_force(self, rng):
        vectors = rng.normal(size=(2000, 6))
        tree, _ = make_tree(vectors)
        for qi in range(10):
            query = rng.normal(size=6)
            truth = np.argsort(np.linalg.norm(vectors - query, axis=1))[:8]
            got = [rid for _, rid in tree.knn(query, 8)]
            assert set(got) == set(truth.tolist())

    def test_distances_sorted(self, rng):
        vectors = rng.normal(size=(500, 4))
        tree, _ = make_tree(vectors)
        result = tree.knn(rng.normal(size=4), 10)
        dists = [d for d, _ in result]
        assert dists == sorted(dists)

    def test_rids_passed_through(self, rng):
        vectors = rng.normal(size=(100, 3))
        rids = np.arange(1000, 1100)
        tree, _ = make_tree(vectors, rids)
        result = tree.knn(vectors[7], 1)
        assert result[0][1] == 1007

    def test_pruning_beats_full_scan(self, rng):
        """Best-first search on clustered low-dim data must not score every
        vector."""
        vectors = np.vstack(
            [
                rng.normal(0, 0.1, (1000, 4)),
                rng.normal(10, 0.1, (1000, 4)),
            ]
        )
        tree, counters = make_tree(vectors)
        counters.reset()
        tree.knn(np.zeros(4), 5)
        assert counters.distance_computations < 1200

    def test_search_charges_page_reads(self, rng):
        vectors = rng.normal(size=(3000, 8))
        tree, counters = make_tree(vectors)
        counters.reset()
        tree.knn(rng.normal(size=8), 10)
        assert counters.logical_reads > 0

    def test_node_work_is_dimension_weighted(self, rng):
        """Every MINDIST / leaf distance is a d-dimensional L-norm — the
        CPU story of Figure 10."""
        vectors = rng.normal(size=(1000, 8))
        tree, counters = make_tree(vectors)
        counters.reset()
        tree.knn(rng.normal(size=8), 5)
        assert counters.distance_flops == counters.distance_computations * 8
