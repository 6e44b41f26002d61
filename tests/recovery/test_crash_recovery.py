"""The durability contract, proven by exhaustive crashpoint sweeps.

For every physical page write the update workload issues, crash exactly
there (before and after the WAL record hits the log), recover from
checkpoint + log, and demand (a) valid B+-tree structure and (b) KNN
answers bit-identical to a freshly built index over the committed prefix
of the workload.
"""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.persist import save_index
from repro.recovery import (
    GenerationMismatchError,
    checkpoint,
    count_update_writes,
    crash_sweep,
    make_update_workload,
    recover,
    run_crashpoint,
)
from repro.recovery.harness import apply_op
from repro.reduction.mmdr_adapter import MMDRReducer
from repro.storage.mmap_store import MmapPageStore
from repro.storage.wal import CHECKPOINT, WriteAheadLog

SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]

# The sweep must hold over both physical stores: recovery replays WAL
# records through install/overwrite/stamp_lsn, which the mmap store
# implements via its metadata table rather than in-memory Page objects.
STORE_FACTORIES = {"memory": None, "mmap": MmapPageStore}


@pytest.fixture(scope="module")
def setting():
    """Small correlated dataset + reduction, sized so a full sweep of
    every crashpoint stays fast."""
    spec = SyntheticSpec(
        n_points=600,
        dimensionality=8,
        n_clusters=2,
        retained_dims=3,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    ds = generate_correlated_clusters(spec, np.random.default_rng(7))
    reduced = MMDRReducer().reduce(ds.points, np.random.default_rng(7))
    ops = make_update_workload(
        ds.points, reduced.n_points, np.random.default_rng(11)
    )
    return ds, reduced, ops


def fail_summary(outcomes):
    bad = [o for o in outcomes if not o.ok]
    return "; ".join(
        f"{o.crashpoint.phase}@{o.crashpoint.at_write}: {o.error}"
        for o in bad
    )


@pytest.mark.crash_smoke
@pytest.mark.parametrize("store_kind", list(STORE_FACTORIES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_crashpoint_recovers_to_committed_prefix(
    scheme, store_kind, setting, tmp_path
):
    ds, reduced, ops = setting
    factory = STORE_FACTORIES[store_kind]
    outcomes = crash_sweep(
        lambda: scheme(reduced, store_factory=factory),
        ops,
        tmp_path,
        ds.points[:4],
        k=5,
    )
    assert outcomes, "workload issued no physical writes to sweep"
    assert all(o.ok for o in outcomes), fail_summary(outcomes)
    assert all(o.crashed for o in outcomes)
    # every distinct commit horizon between "nothing" and "all but the
    # last op" must appear somewhere in the sweep's outcomes
    horizons = {o.committed_ops for o in outcomes}
    assert min(horizons) < len(ops)


@pytest.mark.parametrize("store_kind", list(STORE_FACTORIES))
def test_uncrashed_control_replays_every_op(store_kind, setting, tmp_path):
    ds, reduced, ops = setting
    factory = STORE_FACTORIES[store_kind]
    outcome = run_crashpoint(
        lambda: ExtendedIDistance(reduced, store_factory=factory),
        ops,
        tmp_path,
        None,
        ds.points[:4],
        k=5,
    )
    assert outcome.ok, outcome.error
    assert not outcome.crashed
    assert outcome.committed_ops == len(ops)


def test_extended_idistance_sweep_covers_tree_and_delta_writes(
    setting, tmp_path
):
    """The tree-backed scheme must produce a multi-write sweep (tree page
    writes + delta page allocations), or the sweep proves nothing."""
    _, reduced, ops = setting
    total = count_update_writes(
        lambda: ExtendedIDistance(reduced), ops, tmp_path
    )
    assert total >= 5


def test_checkpoint_bounds_recovery_work(setting, tmp_path):
    """Ops committed before a mid-workload checkpoint are served from the
    snapshot, not replayed from the log."""
    ds, reduced, ops = setting
    index = ExtendedIDistance(reduced)
    wal = WriteAheadLog(tmp_path / "wal.log")
    index.enable_wal(wal)
    checkpoint(index, tmp_path / "ckpt0")
    half = len(ops) // 2
    for op in ops[:half]:
        apply_op(index, op)
    checkpoint(index, tmp_path / "ckpt1")
    for op in ops[half:]:
        apply_op(index, op)
    wal.close()

    recovered, report = recover(tmp_path / "wal.log")
    assert report.snapshot_path == str(tmp_path / "ckpt1")
    assert report.committed_txns == len(ops) - half
    reference = ExtendedIDistance(reduced)
    for op in ops:
        apply_op(reference, op)
    for query in ds.points[:4]:
        got, want = recovered.knn(query, 5), reference.knn(query, 5)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.distances, want.distances)


def test_torn_log_tail_drops_only_the_unfinished_commit(setting, tmp_path):
    """Tearing bytes off the log (a crash mid-append) loses at most the
    transaction whose COMMIT was in flight; everything durable replays."""
    ds, reduced, ops = setting
    index = ExtendedIDistance(reduced)
    wal = WriteAheadLog(tmp_path / "wal.log")
    index.enable_wal(wal)
    checkpoint(index, tmp_path / "ckpt")
    for op in ops:
        apply_op(index, op)
    wal.close()

    log_path = tmp_path / "wal.log"
    data = log_path.read_bytes()
    log_path.write_bytes(data[:-9])  # tear the final COMMIT record

    recovered, report = recover(log_path)
    assert report.torn_tail_bytes > 0
    assert report.metas_applied == len(ops) - 1
    assert report.discarded_txns == 1
    recovered.tree.check_invariants()
    reference = ExtendedIDistance(reduced)
    for op in ops[: report.metas_applied]:
        apply_op(reference, op)
    for query in ds.points[:4]:
        got, want = recovered.knn(query, 5), reference.knn(query, 5)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.distances, want.distances)


def test_recovered_index_resumes_logging(setting, tmp_path):
    """recover() hands back a WAL-detached index; re-enabling the log and
    mutating further must itself stay recoverable."""
    ds, reduced, ops = setting
    index = ExtendedIDistance(reduced)
    wal = WriteAheadLog(tmp_path / "wal.log")
    index.enable_wal(wal)
    checkpoint(index, tmp_path / "ckpt")
    for op in ops[:3]:
        apply_op(index, op)
    wal.close()

    recovered, _ = recover(tmp_path / "wal.log")
    wal2 = WriteAheadLog(tmp_path / "wal.log")
    recovered.enable_wal(wal2)
    checkpoint(recovered, tmp_path / "ckpt2")
    for op in ops[3:6]:
        apply_op(recovered, op)
    wal2.close()

    final, report = recover(tmp_path / "wal.log")
    assert report.snapshot_path == str(tmp_path / "ckpt2")
    reference = ExtendedIDistance(reduced)
    for op in ops[:6]:
        apply_op(reference, op)
    for query in ds.points[:4]:
        got, want = final.knn(query, 5), reference.knn(query, 5)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.distances, want.distances)


@pytest.mark.parametrize("store_kind", sorted(STORE_FACTORIES))
def test_fresh_log_on_recovered_index_keeps_committed_writes(
    store_kind, setting, tmp_path
):
    """A recovered index's pages carry the LSNs of the log they came
    from; a new log attached to it must number its records past them,
    or the next recovery skips its page writes as older than the pages
    and B+-tree keys go missing while their metadata applies."""
    ds, reduced, ops = setting
    factory = STORE_FACTORIES[store_kind]
    index = ExtendedIDistance(reduced, store_factory=factory)
    index.enable_wal(tmp_path / "one" / "wal.log")
    checkpoint(index, tmp_path / "one" / "ckpt")
    for op in ops[:3]:
        apply_op(index, op)
    index.wal.close()

    recovered, _ = recover(tmp_path / "one" / "wal.log")
    recovered.enable_wal(tmp_path / "two" / "wal.log")
    checkpoint(recovered, tmp_path / "two" / "ckpt")
    for op in ops[3:6]:
        apply_op(recovered, op)
    recovered.wal.close()

    final, _ = recover(tmp_path / "two" / "wal.log")
    reference = ExtendedIDistance(reduced)
    for op in ops[:6]:
        apply_op(reference, op)
    everything = (-np.inf, np.inf)
    assert sorted(final.tree.range(*everything)) == sorted(
        reference.tree.range(*everything)
    )
    for op in ops[3:6]:
        if op[0] == "insert":
            final.delete(op[2])


class TestCheckpointSnapshotPath:
    """A CHECKPOINT record names a snapshot under the log's directory
    relative to it, so the log's bytes do not depend on where that
    directory lies."""

    def test_wal_bytes_do_not_depend_on_the_directory(
        self, setting, tmp_path
    ):
        ds, reduced, ops = setting
        sizes = []
        for name in ("a", "a-much-longer-directory-name-for-the-same-log"):
            root = tmp_path / name
            index = ExtendedIDistance(reduced)
            wal = WriteAheadLog(root / "wal.log")
            index.enable_wal(wal)
            checkpoint(index, root / "ckpt0")
            for op in ops[:4]:
                apply_op(index, op)
            checkpoint(index, root / "ckpt1")
            for op in ops[4:8]:
                apply_op(index, op)
            wal.close()
            sizes.append((root / "wal.log").stat().st_size)
            recovered, report = recover(root / "wal.log")
            assert report.snapshot_path == str(root / "ckpt1")
            assert report.committed_txns == 4
            assert recovered.live_count == index.live_count
        assert sizes[0] == sizes[1]

    def test_log_holding_an_absolute_snapshot_path_recovers(
        self, setting, tmp_path
    ):
        """Logs written before snapshot paths were stored relative hold
        the absolute path."""
        ds, reduced, ops = setting
        index = SequentialScan(reduced)
        save_index(index, tmp_path / "ckpt")
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(CHECKPOINT, {"snapshot": str(tmp_path / "ckpt")})
        index.enable_wal(wal)
        for op in ops[:2]:
            apply_op(index, op)
        wal.close()
        recovered, report = recover(tmp_path / "wal.log")
        assert report.snapshot_path == str(tmp_path / "ckpt")
        assert report.committed_txns == 2
        assert recovered.live_count == index.live_count


class TestGenerationCrossCheck:
    """Generational swaps leave snapshots and WALs stamped with a
    generation number; recovery must refuse to marry an older generation's
    snapshot to a newer generation's log with a *typed* error instead of
    silently replaying records against the wrong base state."""

    def test_matching_generations_recover(self, setting, tmp_path):
        ds, reduced, ops = setting
        index = SequentialScan(reduced)
        wal = WriteAheadLog(tmp_path / "wal.log")
        index.enable_wal(wal)
        checkpoint(index, tmp_path / "ckpt", generation=3)
        for op in ops[:2]:
            apply_op(index, op)
        wal.close()
        recovered, report = recover(tmp_path / "wal.log")
        assert report.committed_txns == 2
        assert recovered.live_count == index.live_count

    def test_older_snapshot_newer_wal_is_typed(self, setting, tmp_path):
        ds, reduced, ops = setting
        # An old-generation snapshot sits at the path...
        save_index(SequentialScan(reduced), tmp_path / "ckpt", generation=1)
        # ...but the WAL's checkpoint record claims generation 2 (the
        # post-swap log survived; the snapshot swap write was lost).
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.checkpoint(tmp_path / "ckpt", truncate=True, generation=2)
        wal.close()
        with pytest.raises(GenerationMismatchError):
            recover(tmp_path / "wal.log")

    def test_ungenerational_snapshot_with_generational_wal_is_typed(
        self, setting, tmp_path
    ):
        ds, reduced, ops = setting
        save_index(SequentialScan(reduced), tmp_path / "ckpt")
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.checkpoint(tmp_path / "ckpt", truncate=True, generation=4)
        wal.close()
        with pytest.raises(GenerationMismatchError):
            recover(tmp_path / "wal.log")

    def test_ungenerational_wal_ignores_snapshot_stamp(
        self, setting, tmp_path
    ):
        # Pre-generational logs (or single-index deployments) must keep
        # recovering against generation-stamped snapshots.
        ds, reduced, ops = setting
        save_index(SequentialScan(reduced), tmp_path / "ckpt", generation=5)
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.checkpoint(tmp_path / "ckpt", truncate=True)
        wal.close()
        recovered, _ = recover(tmp_path / "wal.log")
        assert recovered.live_count == reduced.n_points
