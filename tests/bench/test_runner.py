"""End-to-end runner contract on a tiny workload (all three schemes)."""

import numpy as np
import pytest

from repro.bench import BenchReport, WorkloadSpec, run_bench
from repro.obs.tracer import Tracer


def tiny_spec(scheme="iMMDR", reducer="mmdr", **overrides):
    params = dict(
        name=f"tiny_{scheme}",
        scheme=scheme,
        reducer=reducer,
        n_points=600,
        dimensionality=8,
        n_clusters=2,
        retained_dims=3,
        n_queries=6,
        k=5,
        n_inserts=4,
        n_deletes=3,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


@pytest.fixture(scope="module")
def immdr_report():
    return run_bench(tiny_spec())


class TestFingerprintAgreement:
    def test_all_read_modes_agree(self, immdr_report):
        fps = immdr_report.fingerprints
        assert fps["sequential"] == fps["batch"]
        assert set(fps) == {"sequential", "batch", "updated", "recovered"}

    def test_recovered_matches_live_updated(self, immdr_report):
        fps = immdr_report.fingerprints
        assert fps["recovered"] == fps["updated"]

    @pytest.mark.parametrize(
        "scheme, reducer", [("gLDR", "ldr"), ("SeqScan", "mmdr")]
    )
    def test_other_schemes_agree_too(self, scheme, reducer, tmp_path):
        report = run_bench(
            tiny_spec(scheme=scheme, reducer=reducer), workdir=tmp_path
        )
        fps = report.fingerprints
        assert fps["sequential"] == fps["batch"]
        assert fps["recovered"] == fps["updated"]


class TestReportContents:
    def test_report_validates_under_schema(self, immdr_report):
        assert BenchReport.loads(immdr_report.dumps()) == immdr_report

    def test_logical_counters_present_and_positive(self, immdr_report):
        counters = immdr_report.counters
        for name in (
            "page_reads_cold",
            "distance_computations",
            "cpu_work",
            "index_pages",
        ):
            assert counters[name] > 0, name
        assert 0.0 <= counters["buffer_hit_rate_warm"] <= 1.0

    def test_recovery_counters_reflect_update_stream(self, immdr_report):
        counters = immdr_report.counters
        assert counters["n_update_ops"] == 7
        assert counters["wal_metas_applied"] == counters["n_update_ops"]
        assert counters["wal_txns_committed"] == counters["n_update_ops"]
        assert (
            counters["wal_records_after_checkpoint"]
            < counters["wal_records_replayed"]
        )
        assert counters["live_count_after_updates"] == 600 + 4 - 3

    def test_wall_clock_is_advisory_only(self, immdr_report):
        assert all(
            "seconds" in name or name.startswith(("qps", "speedup", "update"))
            for name in immdr_report.advisory
        )
        assert "wall_seconds_sequential" in immdr_report.advisory

    def test_spec_embedded_verbatim(self, immdr_report):
        spec = WorkloadSpec.from_dict(immdr_report.spec)
        assert spec == tiny_spec()


class TestDeterminism:
    def test_rerun_reproduces_counters_and_fingerprints(self, immdr_report):
        again = run_bench(tiny_spec())
        assert again.counters == immdr_report.counters
        assert again.fingerprints == immdr_report.fingerprints

    def test_updates_change_answers_or_not_but_deterministically(
        self, immdr_report
    ):
        # Whatever the update stream did to the answers, it did the same
        # thing twice; the pre-update fingerprint is the batch-verified one.
        assert immdr_report.fingerprints["sequential"]


class TestNoUpdateLeg:
    def test_read_only_spec_skips_recovery_counters(self):
        report = run_bench(
            tiny_spec(n_inserts=0, n_deletes=0, name="tiny_ro")
        )
        assert "updated" not in report.fingerprints
        assert "wal_records_replayed" not in report.counters
        assert "recover_seconds" not in report.advisory


class TestTracing:
    def test_legs_emit_spans(self, tmp_path):
        tracer = Tracer()
        run_bench(tiny_spec(), tracer=tracer, workdir=tmp_path)
        names = {span.name for span in tracer.spans}
        assert {
            "bench.build",
            "bench.sequential",
            "bench.batch",
            "bench.warm",
            "bench.updates",
            "bench.recover",
        } <= names


class TestWorkdir:
    def test_explicit_workdir_keeps_artifacts(self, tmp_path):
        run_bench(tiny_spec(), workdir=tmp_path / "bench")
        assert (tmp_path / "bench" / "wal.log").exists()
        assert (tmp_path / "bench" / "ckpt0").exists()
