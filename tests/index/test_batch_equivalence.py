"""Batch-engine invariants the differential oracle does not check.

Every query path's answers and cold-cache costs are held to one exact
scan by ``tests/oracle``.  What stays here pins something else: tracing
changes no bit and emits the batch spans, ``locate`` finds bulk and
inserted rids, and scan windows that open and close exactly on tied key
offsets (duplicates, partition rims) are closed intervals that still
answer like the per-query loop and a brute-force scan.
"""

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.workload import QueryWorkload, sample_queries
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.reduction.mmdr_adapter import model_to_reduced


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(
        two_cluster_dataset.points, np.random.default_rng(5)
    )
    return two_cluster_dataset, model_to_reduced(model)


@pytest.fixture(scope="module")
def workload(two_cluster_dataset):
    return sample_queries(
        two_cluster_dataset.points,
        20,
        np.random.default_rng(9),
        k=10,
        method="perturbed",
    )


SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]


def sequential_reference(index, workload):
    """The cold per-query loop: ids, distances and per-query stats."""
    res = index.knn_loop(workload.queries, workload.k)
    return res.ids, res.distances, list(res.stats)


def assert_equivalent(seq, batch):
    seq_ids, seq_dists, seq_stats = seq
    batch_ids, batch_dists, batch_stats = batch
    assert np.array_equal(seq_ids, batch_ids)
    assert np.array_equal(seq_dists, batch_dists)
    for a, b in zip(seq_stats, batch_stats):
        assert a.page_reads == b.page_reads
        assert a.distance_computations == b.distance_computations
        assert a.distance_flops == b.distance_flops
        assert a.key_comparisons == b.key_comparisons


class TestBatchEquivalence:
    """What the oracle's answer checks leave out: tracing must not move a
    bit, and the batch path must record its spans."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_overhead_invariant_on_batch_path(
        self, scheme, reduced, workload
    ):
        """The full zero-overhead contract through knn_batch: an active
        tracer must leave results, per-query stats AND the index's own
        counters bit-identical to the NULL_TRACER default."""
        _, red = reduced
        plain_index = scheme(red)
        plain = plain_index.knn_batch(
            workload.queries, workload.k, tracer=NULL_TRACER
        )
        traced_index = scheme(red)
        traced = traced_index.knn_batch(
            workload.queries, workload.k, tracer=Tracer()
        )
        assert_equivalent(
            (plain.ids, plain.distances, list(plain.stats)),
            (traced.ids, traced.distances, list(traced.stats)),
        )
        for f in (
            "logical_reads",
            "physical_reads",
            "sequential_reads",
            "distance_computations",
            "distance_flops",
            "key_comparisons",
        ):
            assert getattr(plain_index.counters, f) == getattr(
                traced_index.counters, f
            ), f

    def test_batch_spans_emitted(self, reduced, workload):
        _, red = reduced
        tracer = Tracer()
        ExtendedIDistance(red).knn_batch(
            workload.queries, workload.k, tracer=tracer
        )
        names = [s.name for s in tracer.spans]
        assert "knn.batch" in names
        assert "knn.batch.project_queries" in names
        assert "knn.batch.expand_radius" in names
        assert tracer.metrics.gauge("knn.batch_qps").value > 0


class TestLocate:
    def test_bulk_rids_locatable(self, reduced):
        _, red = reduced
        index = ExtendedIDistance(red)
        for partition in index.partitions:
            if partition.size == 0:
                continue
            rid = int(partition.rids[partition.size // 2])
            p, pos = index.locate(rid)
            assert p == partition.index
            assert int(partition.rids[pos]) == rid

    def test_inserted_rids_locatable(self, reduced, two_cluster_dataset):
        _, red = reduced
        index = ExtendedIDistance(red)
        base = two_cluster_dataset.points[7]
        partition = index.insert(base + 1e-5, rid=3_000_000)
        p, pos = index.locate(3_000_000)
        assert p == partition
        part = index.partitions[p]
        assert pos >= part.rids.size  # delta store positions sit past bulk
        delta_pos = pos - part.rids.size
        assert part.delta_rids[delta_pos] == 3_000_000

    def test_unknown_rid_raises(self, reduced):
        _, red = reduced
        index = ExtendedIDistance(red)
        with pytest.raises(KeyError):
            index.locate(987_654_321)
        with pytest.raises(KeyError):
            index.locate(-1)


@pytest.fixture(scope="module")
def tied(two_cluster_dataset):
    """The two-cluster points plus 130 exact duplicates (30 of them
    tripled): duplicated points share a key offset, so scan windows open
    and close on tied offsets."""
    points = two_cluster_dataset.points
    dup = np.random.default_rng(3).choice(points.shape[0], 100, replace=False)
    data = np.vstack([points, points[dup], points[dup[:30]]])
    model = MMDR().fit(data, np.random.default_rng(5))
    return data, dup, model_to_reduced(model)


def _key_offset(partition, query):
    """``d_i``: the query's key offset in ``partition``, computed as the
    engine computes it (a 1-d norm is ``sqrt(x·x)``)."""
    return float(
        np.linalg.norm(partition.project_query(query) - partition.centroid)
    )


def _boundary_steps(index, query):
    """Radius steps ``R`` that put ``d_i ± R`` exactly on a tied stored
    offset or on a partition rim, for some partition of ``index``.  Steps
    below a quarter of the default are skipped: the search would take
    hundreds of expansions."""
    least = index.radius_step / 4
    steps = []
    for partition in index.partitions:
        d = _key_offset(partition, query)
        values, counts = np.unique(partition.offsets, return_counts=True)
        tied = values[counts > 1]
        targets = [partition.min_radius, partition.max_radius]
        targets += tied[tied >= d + least][:1].tolist()
        targets += tied[tied <= d - least][-1:].tolist()
        for value in targets:
            step = abs(value - d)
            if step >= least and (
                d + step if value > d else d - step
            ) == value:
                steps.append(step)
    return steps


def _rim_points(index, data):
    """Original-space copies of every partition's innermost and outermost
    stored point."""
    rids = [
        rid
        for p in index.partitions
        for rid in (int(p.rids[0]), int(p.rids[-1]))
    ]
    return data[rids]


def assert_brute_force(index, queries, ids, dists):
    """Tie-robust agreement with a scan of every stored entry: the same
    sorted distances, and each returned id scored at its returned
    distance."""
    for qi, query in enumerate(queries):
        scores = np.concatenate([
            np.linalg.norm(
                np.ascontiguousarray(p.vectors) - p.project_query(query),
                axis=1,
            )
            for p in index.partitions
        ])
        rids = np.concatenate([p.rids for p in index.partitions])
        k = ids.shape[1]
        assert np.array_equal(dists[qi], np.sort(scores)[:k])
        score_of = dict(zip(rids.tolist(), scores.tolist()))
        assert [score_of[r] for r in ids[qi].tolist()] == dists[qi].tolist()
        assert len(set(ids[qi].tolist())) == k


class TestWindowBoundaryTies:
    """Scan windows opening and closing exactly on stored key offsets:
    duplicated points, queries on stored points and on partition rims,
    and radius steps that land ``d_i ± bound`` on a tied offset or a rim.
    """

    def test_fixture_has_tied_offsets_and_rims(self, tied):
        _, _, red = tied
        index = ExtendedIDistance(red)
        assert all(
            np.unique(p.offsets).size < p.offsets.size
            for p in index.partitions
            if p.subspace is not None
        )
        assert any(
            int((p.offsets == p.max_radius).sum()) > 1
            for p in index.partitions
        )

    def test_windows_are_closed_intervals(self, tied):
        """The first expansion scans, in every partition, exactly the
        stored offsets ``o`` with ``d_i - R <= o <= d_i + R``: both window
        ends and the first-contact gate are inclusive."""
        data, dup, red = tied
        index = ExtendedIDistance(red)
        queries = np.vstack([data[dup[:3]], _rim_points(index, data)])
        checked = 0
        for query in queries:
            for step in _boundary_steps(index, query):
                probe = ExtendedIDistance(red, radius_step=step)
                # k = every point keeps kth at infinity through the first
                # expansion, so the bound is R in every partition.
                ex = probe.explain(query, probe.live_count)
                first = next(
                    node
                    for node in ex.root.walk()
                    if node.name == "knn.expand_radius"
                )
                scanned = {
                    node.attrs["partition"]: node.cost["distance_computations"]
                    for node in first.children
                    if node.name == "knn.probe_partition"
                }
                for p in probe.partitions:
                    d = _key_offset(p, query)
                    inside = (p.offsets >= d - step) & (p.offsets <= d + step)
                    want = int(inside.sum())
                    assert scanned[p.index] == want, (p.index, step)
                checked += 1
        assert checked >= 2 * len(queries)

    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_knn_batch_and_brute_force_agree_on_ties(self, k, tied):
        data, dup, red = tied
        index = ExtendedIDistance(red)
        queries = np.vstack([
            data[dup[:4]],
            data[dup[:2]] + 1e-9,
            _rim_points(index, data),
        ])
        steps = sorted(set(_boundary_steps(index, queries[0])))
        for step in [None] + steps[:3]:
            wl = QueryWorkload(queries=queries, k=k)
            seq = sequential_reference(
                ExtendedIDistance(red, radius_step=step), wl
            )
            index = ExtendedIDistance(red, radius_step=step)
            res = index.knn_batch(queries, k)
            assert_equivalent(seq, (res.ids, res.distances, list(res.stats)))
            assert_brute_force(index, queries, res.ids, res.distances)

    def test_lone_contact_inside_a_block(self, tied):
        """A partition that only one query of a block contacts is scanned
        on column views, not through the pooled gather; the block must
        still match the per-query loop and brute force."""
        data, _, red = tied
        index = ExtendedIDistance(red)
        outliers = red.outliers.member_ids
        assert outliers.size
        members = [p.rids[p.rids.size // 2] for p in index.partitions[:2]]
        queries = data[np.array(members + [outliers[0]])]
        step = index.radius_step / 4
        lone = [
            p.index
            for p in index.partitions
            if sum(
                _key_offset(p, q) - step <= p.max_radius
                and _key_offset(p, q) + step >= p.min_radius
                for q in queries
            )
            == 1
        ]
        assert lone  # the block's first expansion has a lone contact
        wl = QueryWorkload(queries=queries, k=10)
        seq = sequential_reference(
            ExtendedIDistance(red, radius_step=step), wl
        )
        res = ExtendedIDistance(red, radius_step=step).knn_batch(queries, 10)
        assert_equivalent(seq, (res.ids, res.distances, list(res.stats)))
        assert_brute_force(index, queries, res.ids, res.distances)
