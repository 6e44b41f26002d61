"""Recovery cost: how long a crash costs, and what checkpoints buy.

Emits a versioned :class:`repro.bench.BenchReport` (written to
``benchmarks/out/BENCH_recovery.report.json``); the flat
``benchmarks/out/BENCH_recovery.json`` beside it is the
``"recovery"`` :func:`repro.bench.flat_view` of that report

    {"n_points", "n_ops", "wal_bytes", "update_s", "update_ops_per_s",
     "checkpoint_s", "recover_s", "recover_after_checkpoint_s",
     "records_replayed", "records_replayed_after_checkpoint"}

on a 10k-point workload with 200 online updates: time the WAL-protected
update stream, recovery over the full log, and recovery right after a
fresh checkpoint (which must replay ~nothing).  The assertions pin the
*contract*, not the wall clock — recovery replays every committed op,
checkpointing drops replay work to zero, and the recovered index's KNN
answers fingerprint identically to the live index's.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BenchReport, flat_view, result_fingerprint
from repro.data.synthetic import SyntheticSpec, generate_correlated_clusters
from repro.data.workload import sample_queries
from repro.index.idistance import ExtendedIDistance
from repro.recovery import checkpoint, make_update_workload, recover
from repro.recovery.harness import apply_op
from repro.reduction import MMDRReducer
from repro.storage.wal import WriteAheadLog

OUT_DIR = Path(__file__).resolve().parent / "out"

# The only 10k-point checkpoint + recover() leg: gated in CI's smoke step.
pytestmark = pytest.mark.crash_smoke


def _fingerprint_knn(index, workload):
    id_rows, dist_rows = [], []
    for query in workload.queries:
        index.reset_cache()
        res = index.knn(query, workload.k)
        id_rows.append(res.ids)
        dist_rows.append(res.distances)
    return result_fingerprint(np.vstack(id_rows), np.vstack(dist_rows))


def test_recovery_time_and_report(tmp_path):
    spec = SyntheticSpec(
        n_points=10_000,
        dimensionality=32,
        n_clusters=4,
        retained_dims=6,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    data = generate_correlated_clusters(spec, np.random.default_rng(42))
    reduced = MMDRReducer().reduce(data.points, np.random.default_rng(0))
    ops = make_update_workload(
        data.points,
        reduced.n_points,
        np.random.default_rng(1),
        n_inserts=120,
        n_deletes=80,
    )
    workload = sample_queries(
        data.points, 20, np.random.default_rng(5), k=10, method="perturbed"
    )

    index = ExtendedIDistance(reduced)
    wal = WriteAheadLog(tmp_path / "wal.log")
    index.enable_wal(wal)
    checkpoint(index, tmp_path / "ckpt0")

    t0 = time.perf_counter()
    for op in ops:
        apply_op(index, op)
    update_s = time.perf_counter() - t0
    wal.flush()
    wal_bytes = (tmp_path / "wal.log").stat().st_size
    fp_updated = _fingerprint_knn(index, workload)

    t0 = time.perf_counter()
    recovered, rec_report = recover(tmp_path / "wal.log")
    recover_s = time.perf_counter() - t0
    assert rec_report.metas_applied == len(ops)
    assert recovered.live_count == index.live_count
    fp_recovered = _fingerprint_knn(recovered, workload)
    assert fp_recovered == fp_updated, (
        "recovered index answers diverge from the live index"
    )

    t0 = time.perf_counter()
    checkpoint(index, tmp_path / "ckpt1")
    checkpoint_s = time.perf_counter() - t0
    wal.close()

    t0 = time.perf_counter()
    _, report_after = recover(tmp_path / "wal.log")
    recover_after_s = time.perf_counter() - t0
    assert report_after.metas_applied == 0  # all state is in the snapshot

    report = BenchReport(
        name="recovery_10k",
        spec={
            "n_points": spec.n_points,
            "dimensionality": spec.dimensionality,
            "n_clusters": spec.n_clusters,
            "retained_dims": spec.retained_dims,
            "scheme": "iMMDR",
            "n_inserts": 120,
            "n_deletes": 80,
            "data_seed": 42,
            "reduce_seed": 0,
            "update_seed": 1,
            "query_seed": 5,
        },
        counters={
            "n_points": spec.n_points,
            "n_ops": len(ops),
            "wal_bytes": wal_bytes,
            "records_replayed": rec_report.records_scanned,
            "records_replayed_after_checkpoint": (
                report_after.records_scanned
            ),
            "metas_applied": rec_report.metas_applied,
            "live_count": int(index.live_count),
        },
        advisory={
            "update_s": round(update_s, 4),
            "update_ops_per_s": round(len(ops) / update_s, 1),
            "checkpoint_s": round(checkpoint_s, 4),
            "recover_s": round(recover_s, 4),
            "recover_after_checkpoint_s": round(recover_after_s, 4),
        },
        fingerprints={"updated": fp_updated, "recovered": fp_recovered},
    )
    report.write(OUT_DIR / "BENCH_recovery.report.json")
    view = flat_view("recovery", report)
    out = OUT_DIR / "BENCH_recovery.json"
    out.write_text(json.dumps(view, indent=2, sort_keys=True) + "\n")
    print(
        "\nrecovery: "
        + ", ".join(f"{k}={v}" for k, v in sorted(view.items()))
    )
    assert view["records_replayed_after_checkpoint"] < 5
