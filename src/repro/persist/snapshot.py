"""Versioned, checksum-validated index snapshots.

A snapshot is a directory holding two files:

* ``state.pkl`` — the index object (page store, buffer pool, B+-tree /
  Hybrid trees / partitions including the dynamic-insert delta store, and
  the reduced dataset), serialized with pickle;
* ``manifest.json`` — the typed envelope: format version, index scheme and
  class, payload file name, payload byte count and CRC32, summary metadata,
  and a CRC32 over the manifest's own canonical JSON.

Loading verifies everything *before* deserializing: manifest self-checksum,
format version, a class allowlist (only the three known ``VectorIndex``
schemes are ever unpickled), and the payload checksum.  Any mismatch raises
:class:`SnapshotCorruptionError` — a subclass of
:class:`~repro.storage.pager.PageCorruptionError`, because a tampered
snapshot byte and a flipped page bit are the same failure: storage that no
longer matches its checksum.  A corrupted or truncated snapshot is therefore
*detected and reported*, never silently loaded into wrong query results.
"""

from __future__ import annotations

import json
import pickle
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

from ..index import INDEX_SCHEMES
from ..index.base import VectorIndex
from ..storage.pager import PageCorruptionError

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "MANIFEST_NAME",
    "STATE_NAME",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotCorruptionError",
    "save_index",
    "load_index",
    "snapshot_generation",
]

#: Bump when the on-disk layout changes incompatibly; loaders refuse
#: versions they do not understand instead of guessing.  Version 2: the
#: iDistance partitions pickle their bulk vectors column-major
#: (``_Partition.columns``, ``(width, m)``) instead of as ``(m, width)`` rows.
#: Version 3: every index carries its online-mutation state
#: (``n_inserted``, ``_tombstones``, ``_insert_residuals``) from
#: construction, and flat-layout delta stores keep a rid set.
SNAPSHOT_FORMAT_VERSION = 3

MANIFEST_NAME = "manifest.json"
STATE_NAME = "state.pkl"

#: The only classes a snapshot may deserialize into.  Unpickling is powerful;
#: restricting the declared class keeps a doctored manifest from steering the
#: loader somewhere surprising and gives typed errors for unknown schemes.
#: Derived from the one scheme registry, :data:`repro.index.INDEX_SCHEMES`.
_KNOWN_CLASSES: Dict[str, type] = {
    cls.__name__: cls for cls in INDEX_SCHEMES.values()
}


class SnapshotError(RuntimeError):
    """Base class for snapshot save/load failures."""


class SnapshotFormatError(SnapshotError):
    """The snapshot is structurally unusable: missing files, unparsable or
    incomplete manifest, unsupported format version, or unknown scheme."""


class SnapshotCorruptionError(SnapshotError, PageCorruptionError):
    """Snapshot bytes no longer match their recorded checksums."""


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _canonical_manifest_bytes(manifest: dict) -> bytes:
    """Deterministic serialization of the manifest minus its own checksum."""
    body = {k: v for k, v in manifest.items() if k != "manifest_crc32"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def save_index(
    index: VectorIndex,
    path: Union[str, Path],
    generation: Optional[int] = None,
) -> dict:
    """Write a snapshot of ``index`` under directory ``path``.

    The directory is created if needed; an existing snapshot there is
    replaced.  Returns the manifest dict that was written.

    ``generation`` stamps the index generation this snapshot materializes
    (generational reorganization, DESIGN.md §15).  Ungenerational callers
    omit it and the manifest stays byte-identical to the pre-generation
    format.
    """
    class_name = type(index).__name__
    if class_name not in _KNOWN_CLASSES:
        raise SnapshotFormatError(
            f"cannot snapshot {class_name}: not one of the known index "
            f"schemes {sorted(_KNOWN_CLASSES)}"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "scheme": index.name,
        "class": class_name,
        "state_file": STATE_NAME,
        "state_bytes": len(payload),
        "state_crc32": _crc32(payload),
        "n_points": int(
            getattr(getattr(index, "reduced", None), "n_points", 0)
        ),
        "size_pages": int(index.size_pages),
    }
    if generation is not None:
        manifest["generation"] = int(generation)
    manifest["manifest_crc32"] = _crc32(
        _canonical_manifest_bytes(manifest)
    )
    (path / STATE_NAME).write_bytes(payload)
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest


def _read_manifest(path: Path) -> dict:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotFormatError(
            f"no snapshot manifest at {manifest_path}"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path} is not parseable JSON: "
            f"{exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise SnapshotFormatError(
            f"snapshot manifest {manifest_path} is not a JSON object"
        )
    recorded = manifest.get("manifest_crc32")
    if not isinstance(recorded, int):
        raise SnapshotFormatError(
            f"snapshot manifest {manifest_path} lacks its checksum"
        )
    actual = _crc32(_canonical_manifest_bytes(manifest))
    if actual != recorded:
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path} failed its checksum "
            f"(stored 0x{recorded:08x}, computed 0x{actual:08x})"
        )
    return manifest


def load_index(path: Union[str, Path]) -> VectorIndex:
    """Load a snapshot saved by :func:`save_index`, verifying everything.

    Raises :class:`SnapshotFormatError` for structural problems (missing
    files, wrong version, unknown scheme) and
    :class:`SnapshotCorruptionError` when any byte of the manifest or the
    payload has changed since save.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot format version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
        )
    class_name = manifest.get("class")
    expected_class = _KNOWN_CLASSES.get(class_name)
    if expected_class is None:
        raise SnapshotFormatError(
            f"snapshot declares unknown index class {class_name!r}"
        )
    state_path = path / manifest.get("state_file", STATE_NAME)
    if not state_path.is_file():
        raise SnapshotFormatError(
            f"snapshot payload {state_path} is missing"
        )
    payload = state_path.read_bytes()
    if len(payload) != manifest.get("state_bytes"):
        raise SnapshotCorruptionError(
            f"snapshot payload {state_path} is "
            f"{len(payload)} bytes; manifest records "
            f"{manifest.get('state_bytes')}"
        )
    actual = _crc32(payload)
    if actual != manifest.get("state_crc32"):
        raise SnapshotCorruptionError(
            f"snapshot payload {state_path} failed its checksum "
            f"(stored 0x{manifest.get('state_crc32'):08x}, "
            f"computed 0x{actual:08x})"
        )
    try:
        index = pickle.loads(payload)
    except Exception as exc:  # checksum passed, so this is a format bug
        raise SnapshotFormatError(
            f"snapshot payload {state_path} does not deserialize: {exc}"
        ) from exc
    if not isinstance(index, expected_class):
        raise SnapshotFormatError(
            f"snapshot payload holds {type(index).__name__}, manifest "
            f"declares {class_name}"
        )
    return index


def snapshot_generation(path: Union[str, Path]) -> Optional[int]:
    """The generation a snapshot's manifest declares, or ``None`` for a
    snapshot written without one (pre-generation format, still loadable).

    Validates the manifest's self-checksum first, so a doctored generation
    field raises :class:`SnapshotCorruptionError` rather than steering a
    generational recovery somewhere surprising.
    """
    manifest = _read_manifest(Path(path))
    generation = manifest.get("generation")
    if generation is None:
        return None
    if not isinstance(generation, int) or isinstance(generation, bool):
        raise SnapshotFormatError(
            f"snapshot {path} declares non-integer generation "
            f"{generation!r}"
        )
    return generation
