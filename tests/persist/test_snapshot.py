"""Versioned snapshots: round trips, and every corruption mode is typed."""

import json

import numpy as np
import pytest

from repro.core.mmdr import MMDR
from repro.data.workload import sample_queries
from repro.index.global_ldr import GlobalLDRIndex
from repro.index.idistance import ExtendedIDistance
from repro.index.seqscan import SequentialScan
from repro.persist import (
    MANIFEST_NAME,
    SNAPSHOT_FORMAT_VERSION,
    STATE_NAME,
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotFormatError,
    load_index,
    save_index,
    snapshot_generation,
)
from repro.reduction.mmdr_adapter import model_to_reduced
from repro.storage.pager import PageCorruptionError


@pytest.fixture(scope="module")
def reduced(two_cluster_dataset):
    model = MMDR().fit(two_cluster_dataset.points, np.random.default_rng(5))
    return two_cluster_dataset, model_to_reduced(model)


@pytest.fixture(scope="module")
def workload(two_cluster_dataset):
    return sample_queries(
        two_cluster_dataset.points,
        8,
        np.random.default_rng(9),
        k=5,
        method="perturbed",
    )


SCHEMES = [ExtendedIDistance, SequentialScan, GlobalLDRIndex]


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_loaded_index_answers_identically(
        self, scheme, reduced, workload, tmp_path
    ):
        _, red = reduced
        index = scheme(red)
        manifest = save_index(index, tmp_path / "snap")
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["class"] == scheme.__name__
        restored = load_index(tmp_path / "snap")
        assert isinstance(restored, scheme)
        assert restored.size_pages == index.size_pages
        for query in workload.queries:
            index.reset_cache()
            restored.reset_cache()
            a = index.knn(query, workload.k)
            b = restored.knn(query, workload.k)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.stats.page_reads == b.stats.page_reads
            assert (
                a.stats.distance_computations
                == b.stats.distance_computations
            )

    def test_round_trip_after_dynamic_insert(
        self, reduced, workload, tmp_path
    ):
        dataset, red = reduced
        index = ExtendedIDistance(red)
        rng = np.random.default_rng(11)
        base = dataset.points[rng.integers(0, dataset.points.shape[0], 5)]
        for j, point in enumerate(base + rng.normal(0, 0.01, base.shape)):
            index.insert(point, red.n_points + j)
        save_index(index, tmp_path / "snap")
        restored = load_index(tmp_path / "snap")
        query = workload.queries[0]
        index.reset_cache()
        restored.reset_cache()
        assert np.array_equal(
            index.knn(query, 5).ids, restored.knn(query, 5).ids
        )

    def test_save_rejects_unknown_class(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            save_index(object(), tmp_path / "snap")


class TestCorruptionDetection:
    # Part of the CI fault-smoke gate: corruption must be *typed*, never
    # silently wrong data (see .github/workflows/ci.yml).
    pytestmark = pytest.mark.fault_smoke

    @pytest.fixture()
    def snapshot(self, reduced, tmp_path):
        _, red = reduced
        save_index(SequentialScan(red), tmp_path / "snap")
        return tmp_path / "snap"

    def test_flipped_payload_byte(self, snapshot):
        state = snapshot / STATE_NAME
        data = bytearray(state.read_bytes())
        data[len(data) // 2] ^= 0x01
        state.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptionError):
            load_index(snapshot)

    def test_truncated_payload(self, snapshot):
        state = snapshot / STATE_NAME
        state.write_bytes(state.read_bytes()[:-10])
        with pytest.raises(SnapshotCorruptionError):
            load_index(snapshot)

    def test_tampered_manifest_field(self, snapshot):
        manifest_path = snapshot / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["n_points"] = 10**9
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotCorruptionError):
            load_index(snapshot)

    def test_unparsable_manifest(self, snapshot):
        (snapshot / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotCorruptionError):
            load_index(snapshot)

    def test_corruption_error_is_page_corruption(self, snapshot):
        # A tampered snapshot byte and a flipped page bit are the same
        # failure: one except clause may handle both.
        state = snapshot / STATE_NAME
        data = bytearray(state.read_bytes())
        data[0] ^= 0xFF
        state.write_bytes(bytes(data))
        with pytest.raises(PageCorruptionError):
            load_index(snapshot)
        assert issubclass(SnapshotCorruptionError, SnapshotError)


class TestFormatErrors:
    @pytest.fixture()
    def snapshot(self, reduced, tmp_path):
        _, red = reduced
        save_index(SequentialScan(red), tmp_path / "snap")
        return tmp_path / "snap"

    def rewrite_manifest(self, snapshot, **overrides):
        """Tamper a field but restamp the self-checksum, isolating the
        format check under test from corruption detection."""
        from repro.persist.snapshot import (
            _canonical_manifest_bytes,
            _crc32,
        )

        manifest_path = snapshot / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest.update(overrides)
        manifest["manifest_crc32"] = _crc32(
            _canonical_manifest_bytes(manifest)
        )
        manifest_path.write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            load_index(tmp_path / "nothing-here")

    def test_missing_payload(self, snapshot):
        (snapshot / STATE_NAME).unlink()
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_unsupported_version(self, snapshot):
        # 1 is the row-major partition layout this build no longer reads.
        for version in (99, 1):
            self.rewrite_manifest(snapshot, format_version=version)
            with pytest.raises(SnapshotFormatError, match="not supported"):
                load_index(snapshot)

    def test_v2_snapshot_refused(self, snapshot):
        # 2 predates the mutation state every index carries from
        # construction: its pickles may lack it.
        self.rewrite_manifest(snapshot, format_version=2)
        with pytest.raises(SnapshotFormatError, match="not supported"):
            load_index(snapshot)

    def test_unknown_class(self, snapshot):
        self.rewrite_manifest(snapshot, **{"class": "EvilIndex"})
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_class_payload_mismatch(self, snapshot):
        # Manifest says gLDR, payload holds SeqScan: refused after load.
        self.rewrite_manifest(snapshot, **{"class": "GlobalLDRIndex"})
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)


class TestGenerationStamp:
    """The manifest's generation tag ties a snapshot to one index
    generation; recovery's cross-check against the WAL reads it via
    :func:`snapshot_generation`."""

    def test_generation_written_and_read_back(self, reduced, tmp_path):
        _, red = reduced
        save_index(SequentialScan(red), tmp_path / "snap", generation=7)
        assert snapshot_generation(tmp_path / "snap") == 7
        loaded = load_index(tmp_path / "snap")  # stamp never blocks loads
        assert loaded.live_count == red.n_points

    def test_ungenerational_snapshot_reads_none(self, reduced, tmp_path):
        _, red = reduced
        save_index(SequentialScan(red), tmp_path / "snap")
        assert snapshot_generation(tmp_path / "snap") is None

    def test_non_integer_generation_is_a_format_error(
        self, reduced, tmp_path
    ):
        _, red = reduced
        save_index(SequentialScan(red), tmp_path / "snap", generation=2)
        helper = TestFormatErrors()
        helper.rewrite_manifest(tmp_path / "snap", generation="two")
        with pytest.raises(SnapshotFormatError):
            snapshot_generation(tmp_path / "snap")
