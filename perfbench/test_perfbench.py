"""The benchmark's own tests (not part of the program's suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from oracle import Oracle  # noqa: E402
from report import END_TO_END, PER_LAYER  # noqa: E402
from tracing import SpanRecorder, default_targets  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Small sizes so a whole workload runs in a few seconds.
TINY = {
    "gcd-immdr": dict(n_points=2000, n_queries=64, n_count=16,
                      block_rows=16, singles_per_round=8),
    "corel-gldr": dict(n_points=2000, n_queries=64, n_count=16,
                       block_rows=16, singles_per_round=8),
    "gcd-served": dict(n_points=2000, n_queries=64, n_count=16,
                       block_rows=16, singles_per_round=8),
    "gcd-ingest": dict(n_points=2000, n_queries=32, n_count=16,
                       block_rows=16, rounds_per_second=24),
}


def tiny_run(workload, seed=3, trace=False):
    return run.run(workload, seed, 1.0, trace, setups=1, **TINY[workload])


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tracing ------------------------------------------------------------------


def _bindings(targets):
    """Every (owner, attr) a target set patches, with its current value."""
    out = {}
    for target in targets:
        if isinstance(target.owner, str):
            original = getattr(sys.modules[target.owner], target.attr)
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and module is not None:
                    for attr, value in vars(module).items():
                        if value is original:
                            out[(name, attr)] = (module, value)
        else:
            out[(target.owner, target.attr)] = (
                target.owner, target.owner.__dict__[target.attr]
            )
    return out


def test_wrappers_patch_and_restore_the_originals():
    targets = default_targets()
    before = _bindings(targets)
    recorder = SpanRecorder()
    with recorder.installed(targets):
        for (owner, attr), (obj, original) in before.items():
            assert getattr(obj, attr) is not original, (owner, attr)
            assert getattr(obj, attr).__wrapped__ is original
    for (owner, attr), (obj, original) in before.items():
        assert getattr(obj, attr) is original, (owner, attr)


def test_self_time_subtracts_children():
    from tracing import Target

    recorder = SpanRecorder()

    def inner():
        return sum(range(20000))

    wrapped_inner = recorder.wrap(Target(None, "x", "index.inner"), inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = recorder.wrap(Target(None, "y", "btree.outer"), outer)
    with recorder.request("knn"):
        assert wrapped_outer() == 2 * inner()
    inner_total = recorder.total_us("knn", "index.inner")
    outer_total = recorder.total_us("knn", "btree.outer")
    outer_self = recorder.self_us("knn", "btree.outer")
    assert recorder.calls("knn", "index.inner") == 2
    assert outer_self == pytest.approx(outer_total - inner_total, abs=1.0)
    root = recorder.requests["knn"][2] / 1e3
    layers = recorder.layer_self_us("knn")
    assert sum(layers.values()) == pytest.approx(root, abs=1.0)


# -- oracle -------------------------------------------------------------------


def _frames(rng):
    basis = np.linalg.qr(rng.normal(size=(6, 6)))[0][:, :2]
    mean = rng.normal(size=6)
    members = rng.normal(size=(40, 6))
    return [
        (mean, basis, (members - mean) @ basis, np.arange(40)),
        (None, None, rng.normal(size=(10, 6)), np.arange(40, 50)),
    ]


def test_oracle_accepts_exact_and_flags_corrupted_answers():
    rng = np.random.default_rng(0)
    oracle = Oracle(_frames(rng))
    query = rng.normal(size=6)
    ids, dists = oracle.topk(query, 5)
    assert oracle.check(query, 5, ids, dists) is None
    # The same answer in another order is still exact.
    assert oracle.check(query, 5, ids[::-1], dists[::-1]) is None

    farthest = int(oracle.rids[np.argmax(oracle.distances(query))])
    wrong_id = ids.copy()
    wrong_id[-1] = farthest
    assert oracle.check(query, 5, wrong_id, dists) is not None
    wrong_id_right_dist = ids.copy()
    wrong_id_right_dist[-1] = farthest
    true = oracle.distance_of(query, wrong_id_right_dist)
    assert oracle.check(query, 5, wrong_id_right_dist, true) is not None
    nudged = dists.copy()
    nudged[2] += 1e-6
    assert oracle.check(query, 5, ids, nudged) is not None
    duplicate = ids.copy()
    duplicate[1] = duplicate[0]
    assert oracle.check(query, 5, duplicate, dists) is not None
    assert oracle.check(query, 5, ids[:4], dists[:4]) is not None
    unknown = ids.copy()
    unknown[0] = 999
    assert oracle.check(query, 5, unknown, dists) is not None


# -- metric names -------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    spec = bench_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER
    names = [m[0] for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, _ in END_TO_END + PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert {w["name"] for w in spec["workloads"]} == set(TINY) - {
        "gcd-served"
    }


@pytest.mark.parametrize("workload", sorted(TINY))
def test_printed_metrics_are_declared(workload):
    declared = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
    out = tiny_run(workload)
    result = out["result"]
    assert result["correct"], out["advisory"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == declared
    for name in ("setup_s", "knn_p50_ms", "pages_per_query"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", ["gcd-immdr", "gcd-ingest"])
def test_traced_run_prints_per_layer_metrics_and_matches_counts(workload):
    declared = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
    out = tiny_run(workload, trace=True)
    result = out["result"]
    assert result["correct"], out["advisory"]["failures"]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    shares = [metrics[f"knn.share.{layer}"]
              for layer in ("index", "btree", "storage", "linalg", "bench")]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)
    if workload == "gcd-immdr":
        # The traced run also records the served leg.
        assert metrics["serve.base_us"] > 0
        assert metrics["serve.wait_us"] > 0
        assert metrics["serve.worker_us"] > 0
    else:
        assert metrics["ingest.reorg_count"] == 2
        assert metrics["recovery.checkpoint_count"] > 0
        assert metrics["wal_bytes_per_write"] > 0
        assert metrics["wal.appends_per_write"] > 0


# -- exact counts -------------------------------------------------------------


@pytest.mark.parametrize("workload", ["gcd-immdr", "gcd-ingest"])
def test_exact_counts_repeat_for_a_seed(workload):
    first = tiny_run(workload, seed=5)["advisory"]["exact"]
    second = tiny_run(workload, seed=5)["advisory"]["exact"]
    assert first == second
    for name in ("pages_per_query", "dist_evals_per_query"):
        assert first[name] > 0
    if workload == "gcd-ingest":
        assert first["reorg_count"] == 2
        assert first["checkpoint_count"] > 0
        assert first["wal_bytes_per_write"] > 0
