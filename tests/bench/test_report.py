"""BenchReport schema: round-trips, version gating, and the flat views."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchReport,
    BenchReportError,
    flat_view,
    validate_view,
)
from repro.bench.report import RECOVERY_VIEW_KEYS, THROUGHPUT_VIEW_KEYS

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def report():
    return BenchReport(
        name="unit",
        spec={"scheme": "iMMDR", "n_points": 100},
        counters={"page_reads_cold": 42, "buffer_hit_rate_warm": 0.875},
        advisory={"qps_sequential": 123.4},
        fingerprints={"sequential": "sha256:00ff"},
    )


class TestRoundTrip:
    def test_dict_round_trip(self, report):
        assert BenchReport.from_dict(report.to_dict()) == report

    def test_json_round_trip(self, report):
        assert BenchReport.loads(report.dumps()) == report

    def test_file_round_trip(self, report, tmp_path):
        path = report.write(tmp_path / "nested" / "unit.json")
        assert BenchReport.load(path) == report

    def test_written_file_is_plain_sorted_json(self, report, tmp_path):
        path = report.write(tmp_path / "unit.json")
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert set(data) == {
            "schema_version", "name", "spec", "counters", "advisory",
            "fingerprints",
        }


class TestAdvisoryHealthSection:
    def test_empty_health_is_omitted_from_to_dict(self, report):
        assert "health" not in report.to_dict()

    def test_from_dict_without_health_yields_empty(self, report):
        loaded = BenchReport.from_dict(report.to_dict())
        assert loaded.health == {}

    def test_populated_health_round_trips(self, report):
        health = {
            "ok": False,
            "scheme": "iDistance",
            "n_samples": 3,
            "gauges": {"mpe_drift_max": 0.7},
            "status": {"mpe_drift_max": "warn"},
            "warnings": ["mpe_drift_max=0.7 is above 0.5"],
        }
        full = BenchReport(
            name=report.name,
            spec=report.spec,
            counters=report.counters,
            advisory=report.advisory,
            fingerprints=report.fingerprints,
            health=health,
        )
        data = full.to_dict()
        assert data["health"] == health
        assert BenchReport.from_dict(data) == full

    def test_non_object_health_rejected(self, report):
        data = report.to_dict()
        data["health"] = ["warn"]
        with pytest.raises(BenchReportError, match="health"):
            BenchReport.from_dict(data)

    def test_unknown_fields_still_rejected_alongside_health(self, report):
        data = report.to_dict()
        data["health"] = {"ok": True}
        data["wall_clock"] = 1.0
        with pytest.raises(BenchReportError, match="unknown"):
            BenchReport.from_dict(data)


class TestSchemaRejection:
    def test_version_mismatch(self, report):
        data = report.to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(BenchReportError, match="schema version"):
            BenchReport.from_dict(data)

    def test_missing_version(self, report):
        data = report.to_dict()
        del data["schema_version"]
        with pytest.raises(BenchReportError, match="schema version"):
            BenchReport.from_dict(data)

    def test_missing_section(self, report):
        data = report.to_dict()
        del data["counters"]
        with pytest.raises(BenchReportError, match="missing"):
            BenchReport.from_dict(data)

    def test_unknown_field(self, report):
        data = report.to_dict()
        data["wall_clock"] = 1.0
        with pytest.raises(BenchReportError, match="unknown"):
            BenchReport.from_dict(data)

    def test_non_numeric_counter(self, report):
        data = report.to_dict()
        data["counters"]["page_reads_cold"] = "42"
        with pytest.raises(BenchReportError, match="number"):
            BenchReport.from_dict(data)

    def test_boolean_counter_rejected(self, report):
        data = report.to_dict()
        data["counters"]["page_reads_cold"] = True
        with pytest.raises(BenchReportError, match="number"):
            BenchReport.from_dict(data)

    def test_non_string_fingerprint(self, report):
        data = report.to_dict()
        data["fingerprints"]["sequential"] = 7
        with pytest.raises(BenchReportError, match="fingerprint"):
            BenchReport.from_dict(data)

    def test_non_object(self):
        with pytest.raises(BenchReportError, match="JSON object"):
            BenchReport.from_dict([1, 2])

    def test_invalid_json_text(self):
        with pytest.raises(BenchReportError, match="not valid JSON"):
            BenchReport.loads("{nope")


class TestViews:
    def _full_report(self):
        return BenchReport(
            name="views",
            spec={},
            counters={
                "n_points": 10_000,
                "n_ops": 200,
                "wal_bytes": 123,
                "records_replayed": 600,
                "records_replayed_after_checkpoint": 1,
            },
            advisory={
                "qps_sequential": 1.0,
                "qps_batch": 3.0,
                "qps_parallel": 2.0,
                "speedup_batch": 3.0,
                "update_s": 0.1,
                "update_ops_per_s": 2000.0,
                "checkpoint_s": 0.01,
                "recover_s": 0.02,
                "recover_after_checkpoint_s": 0.001,
            },
        )

    def test_throughput_view_shape(self):
        view = flat_view("throughput", self._full_report())
        assert tuple(view) == THROUGHPUT_VIEW_KEYS
        validate_view("throughput", view)

    def test_recovery_view_shape(self):
        view = flat_view("recovery", self._full_report())
        assert tuple(view) == RECOVERY_VIEW_KEYS
        validate_view("recovery", view)

    def test_view_missing_metric(self, report):
        with pytest.raises(BenchReportError, match="lacks view metrics"):
            flat_view("throughput", report)
        with pytest.raises(BenchReportError, match="unknown view kind"):
            flat_view("nope", report)

    def test_validate_view_rejects_extra_and_missing(self):
        with pytest.raises(BenchReportError, match="key mismatch"):
            validate_view("throughput", {"qps_sequential": 1.0, "bogus": 2})
        with pytest.raises(BenchReportError, match="unknown view kind"):
            validate_view("nope", {})
        with pytest.raises(BenchReportError, match="JSON object"):
            validate_view("throughput", [1])

    @pytest.mark.parametrize(
        "filename, kind",
        [
            ("BENCH_throughput.json", "throughput"),
            ("BENCH_recovery.json", "recovery"),
            ("BENCH_serve.json", "serve"),
            ("BENCH_ingest.json", "ingest"),
            ("BENCH_encode.json", "encode"),
        ],
    )
    def test_committed_bench_outputs_parse_as_views(self, filename, kind):
        """The repo-root BENCH_*.json files (now views of BenchReports)
        must stay parseable under the view schema."""
        path = REPO_ROOT / filename
        if not path.exists():
            pytest.skip(f"{filename} not present in this checkout")
        validate_view(kind, json.loads(path.read_text()))


class TestCommittedBaselines:
    def test_committed_baselines_parse(self):
        """Every committed golden baseline must load under the current
        schema — a version bump without re-baselining fails here, not in
        CI's bench gate."""
        baseline_dir = REPO_ROOT / "benchmarks" / "baselines"
        paths = sorted(baseline_dir.glob("*.json"))
        assert paths, "no committed baselines found"
        for path in paths:
            report = BenchReport.load(path)
            assert report.name == path.stem
            assert report.fingerprints, f"{path} has no fingerprints"
            assert report.counters, f"{path} has no counters"
