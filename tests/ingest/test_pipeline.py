"""IngestPipeline: the mutation path, drift triggers, reorg, reopen."""

import numpy as np
import pytest

from repro.ingest import (
    IngestError,
    IngestPipeline,
    IngestThresholds,
    OpLog,
    batch_fingerprint,
    build_from_vectors,
)
QUIET = IngestThresholds(
    drift_score=float("inf"),
    delta_fraction=float("inf"),
    tombstone_fraction=float("inf"),
)


@pytest.fixture
def pipeline(tmp_path, base_points, reduce_fn):
    pipe, report = IngestPipeline.create(
        tmp_path / "pipe",
        base_points,
        reduce_fn,
        "iMMDR",
        thresholds=QUIET,
        auto_reorg=False,
    )
    assert report.generation == 1
    yield pipe
    pipe.close()


class TestOpLog:
    def test_append_scan_round_trip(self, tmp_path):
        log = OpLog(tmp_path / "oplog.log")
        s1 = log.append(("delete", 3))
        s2 = log.append(("insert", [1.0], 9, 0.5))
        log.close()
        reopened = OpLog(tmp_path / "oplog.log")
        assert [s for s, _ in reopened.entries] == [s1, s2]
        assert reopened.entries[0][1] == ("delete", 3)
        assert reopened.next_seq == s2 + 1
        reopened.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "oplog.log"
        log = OpLog(path)
        log.append(("delete", 1))
        log.append(("delete", 2))
        log.close()
        path.write_bytes(path.read_bytes()[:-5])
        reopened = OpLog(path)
        assert [op for _, op in reopened.entries] == [("delete", 1)]
        reopened.close()

    def test_drop_through_rewrites_but_keeps_seqs(self, tmp_path):
        log = OpLog(tmp_path / "oplog.log")
        for rid in range(4):
            log.append(("delete", rid))
        assert log.drop_through(2) == 2
        assert [s for s, _ in log.entries] == [3, 4]
        log.ensure_next_seq(10)
        assert log.append(("delete", 9)) == 11
        log.close()


class TestMutationPath:
    def test_insert_delete_and_query_in_global_rids(
        self, pipeline, base_points, ingest_queries
    ):
        n = base_points.shape[0]
        new_point = base_points[0] + 0.01
        pipeline.apply(("insert", new_point, n, 1.0))
        pipeline.apply(("delete", 0))
        assert pipeline.n_live == n  # +1 insert, -1 delete
        result = pipeline.knn_batch(ingest_queries, 5)
        assert result.ids.shape == (ingest_queries.shape[0], 5)
        assert 0 not in set(result.ids.ravel().tolist())
        assert result.ids.max() <= n

    def test_validation_is_typed(self, pipeline, base_points):
        n = base_points.shape[0]
        with pytest.raises(IngestError, match="live"):
            pipeline.apply(("insert", base_points[0], 0, 1.0))
        with pytest.raises(IngestError, match="non-live"):
            pipeline.apply(("delete", n + 50))
        pipeline.apply(("delete", 3))
        with pytest.raises(IngestError, match="reuse"):
            pipeline.apply(("insert", base_points[3], 3, 1.0))

    def test_create_refuses_a_root_that_holds_a_pipeline(
        self, pipeline, base_points, reduce_fn
    ):
        pipeline.apply(("delete", 3))
        with pytest.raises(IngestError, match="already holds"):
            IngestPipeline.create(
                pipeline.store.root, base_points, reduce_fn, "iMMDR"
            )
        # The refused create left the live pipeline's state alone.
        assert pipeline.n_live == base_points.shape[0] - 1

    def test_reopen_replays_ops_the_index_never_committed(
        self, tmp_path, base_points, reduce_fn, ingest_queries
    ):
        pipe, _ = IngestPipeline.create(
            tmp_path / "p", base_points, reduce_fn, "iMMDR",
            thresholds=QUIET, auto_reorg=False,
        )
        n = base_points.shape[0]
        pipe.apply(("insert", base_points[3] + 0.02, n, 1.0))
        pipe.apply(("delete", 2))
        want = pipe.knn_batch(ingest_queries, 5)
        pipe.close()

        # Rewind the index WAL to just its CHECKPOINT record: simulates a
        # crash where the oplog was flushed but the index commits were
        # lost.  (The oplog-first write order makes this the only
        # possible skew between the two logs.)
        from repro.storage.wal import CHECKPOINT, WriteAheadLog, _encode

        gdir = pipe.store.gen_dir(1)
        records, _, _ = WriteAheadLog.scan(gdir / "wal.log")
        ckpt = records[0]
        assert ckpt.rtype == CHECKPOINT
        (gdir / "wal.log").write_bytes(
            _encode(ckpt.lsn, ckpt.txn_id, ckpt.rtype, ckpt.payload)
        )

        reopened, report = IngestPipeline.open(
            tmp_path / "p", reduce_fn=reduce_fn, scheme="iMMDR",
            thresholds=QUIET, auto_reorg=False,
        )
        assert report.ops_replayed == 2
        got = reopened.knn_batch(ingest_queries, 5)
        assert batch_fingerprint(got.ids, got.distances) == (
            batch_fingerprint(want.ids, want.distances)
        )
        reopened.close()


class TestDriftTrigger:
    def test_shifted_stream_fires_and_reorg_clears(
        self, tmp_path, base_points, drift_ops, reduce_fn
    ):
        pipe, _ = IngestPipeline.create(
            tmp_path / "p", base_points, reduce_fn, "iMMDR",
            auto_reorg=False,
        )
        trigger = pipe.apply_batch(drift_ops)
        assert trigger.fired
        assert trigger.partitions  # drift named the partitions
        assert any("drift" in r for r in trigger.reasons)
        report = pipe.reorg(trigger)
        assert report.new_generation == 2
        assert report.drift_after < report.drift_before
        assert not pipe.check_drift().fired
        pipe.close()

    def test_auto_reorg_swaps_mid_batch_stream(
        self, tmp_path, base_points, drift_ops, reduce_fn, ingest_queries
    ):
        pipe, _ = IngestPipeline.create(
            tmp_path / "p", base_points, reduce_fn, "iMMDR",
            auto_reorg=True,
        )
        pipe.apply_batch(drift_ops)
        assert pipe.generation == 2
        assert pipe.reorg_reports, "auto reorg must record its report"

        # Post-swap answers must match a fresh build over the same
        # committed mutation stream.
        index, _, rid_map = build_from_vectors(
            pipe.live_vectors(), reduce_fn, "iMMDR"
        )
        ref = index.knn_batch(ingest_queries, 5)
        from repro.ingest import translate_ids

        got = pipe.knn_batch(ingest_queries, 5)
        assert batch_fingerprint(got.ids, got.distances) == (
            batch_fingerprint(
                translate_ids(ref.ids, rid_map), ref.distances
            )
        )
        pipe.close()

    def test_quiet_stream_does_not_fire(
        self, tmp_path, base_points, reduce_fn, ingest_rng
    ):
        pipe, _ = IngestPipeline.create(
            tmp_path / "p", base_points, reduce_fn, "iMMDR",
            auto_reorg=True,
        )
        n = base_points.shape[0]
        ops = [
            ("insert", base_points[i] + ingest_rng.normal(0, 0.01, 6), n + j,
             5.0)
            # Low-offset members: keep the jittered keys well inside the
            # partition stretch constant.
            for j, i in enumerate((0, 3, 4))
        ]
        trigger = pipe.apply_batch(ops)
        assert not trigger.fired
        assert pipe.generation == 1
        pipe.close()


class TestCheckpointWatermark:
    def test_mid_generation_checkpoint_keeps_watermark(
        self, tmp_path, base_points, reduce_fn, ingest_queries
    ):
        pipe, _ = IngestPipeline.create(
            tmp_path / "p", base_points, reduce_fn, "SeqScan",
            thresholds=QUIET, auto_reorg=False,
        )
        n = base_points.shape[0]
        pipe.apply(("insert", base_points[4] + 0.03, n, 1.0))
        pipe.checkpoint()
        pipe.apply(("delete", 7))
        want = pipe.knn_batch(ingest_queries, 5)
        pipe.close()

        reopened, report = IngestPipeline.open(
            tmp_path / "p", reduce_fn=reduce_fn, scheme="SeqScan",
            thresholds=QUIET, auto_reorg=False,
        )
        assert report.committed_seq == 2
        assert report.ops_replayed == 0  # nothing doubly applied
        got = reopened.knn_batch(ingest_queries, 5)
        assert batch_fingerprint(got.ids, got.distances) == (
            batch_fingerprint(want.ids, want.distances)
        )
        reopened.close()


class TestRidMap:
    def test_rid_map_is_a_read_only_view_that_appends(
        self, pipeline, base_points
    ):
        n = base_points.shape[0]
        first = pipeline.rid_map
        assert first.tolist() == list(range(n))
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 99
        for j in range(40):  # past the first buffer growth
            point = base_points[j] * (1.0 + 1e-7)
            pipeline.apply(("insert", point, 5_000 + j, 1.0))
        grown = pipeline.rid_map
        assert not grown.flags.writeable
        inserted = [5_000 + j for j in range(40)]
        assert grown.tolist() == list(range(n)) + inserted
        # A view taken earlier still reads what it read before.
        assert first.tolist() == list(range(n))

    def test_answers_see_every_mutation_entry_point(
        self, tmp_path, base_points, reduce_fn
    ):
        """Query, mutate, query again across an insert, a delete, a reorg
        and a reopen: the local -> global translation must follow."""
        pipe, _ = IngestPipeline.create(
            tmp_path / "p", base_points, reduce_fn, "iMMDR",
            thresholds=QUIET, auto_reorg=False,
        )
        query = base_points[5] + 0.003
        victim = int(pipe.knn(query, 1).ids[0])
        pipe.apply(("delete", victim))
        assert victim not in pipe.knn(query, 5).ids.tolist()
        pipe.apply(("insert", query, 7_777, 1.0))
        assert pipe.knn(query, 1).ids[0] == 7_777

        pipe.reorg()
        assert pipe.generation == 2
        assert pipe.knn(query, 1).ids[0] == 7_777
        pipe.apply(("insert", query + 1e-4, 8_888, 1.0))
        got = pipe.knn(query, 5).ids.tolist()
        assert got[:2] == [7_777, 8_888] and victim not in got
        pipe.close()

        reopened, _ = IngestPipeline.open(
            tmp_path / "p", reduce_fn=reduce_fn, scheme="iMMDR",
            thresholds=QUIET, auto_reorg=False,
        )
        assert reopened.knn(query, 2).ids.tolist() == [7_777, 8_888]
        reopened.apply(("delete", 7_777))
        reopened.apply(("insert", query, 9_999, 1.0))
        got = reopened.knn_batch(query[None, :], 5).ids[0].tolist()
        assert got[:2] == [9_999, 8_888] and 7_777 not in got
        reopened.close()
