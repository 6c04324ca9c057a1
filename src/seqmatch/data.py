"""Embedding-sequence domain types and the on-disk dataset format.

A dataset is a directory holding one ``manifest.json`` plus one raw
``<id>.f32`` blob per sequence: row-major frames, little-endian IEEE-754
binary32, exactly ``T * d * 4`` bytes, no header. Embeddings are float64
in memory and float32 on disk; writers require frames to sit exactly on
the float32 grid (generators quantize on output) so a write/read round
trip is bit-exact.

``SnippetDatabase`` is the one in-memory dataset type: robot sets, play
banks and imagined demos alike. It carries its own declared task table
and provenance, which is exactly what ``write_dataset`` records and
``read_dataset`` returns, so ``dataset_content_hash`` gives a database
and its on-disk copy the same hash.

All types are immutable after construction and safe to share across
threads. Writing is single-writer per directory.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class DatasetError(Exception):
    """Malformed dataset content; carries the offending sequence id when known."""

    def __init__(self, message: str, sequence_id: str | None = None):
        if sequence_id is not None:
            message = f"sequence '{sequence_id}': {message}"
        super().__init__(message)
        self.sequence_id = sequence_id


class ManifestError(DatasetError):
    """The manifest document itself is missing, unparsable, or inconsistent."""


class BlobError(DatasetError):
    """A referenced ``.f32`` blob is missing, has the wrong size, or holds bad values."""


class Embodiment(str, Enum):
    ROBOT = "robot"
    DEMONSTRATOR = "demonstrator"


def quantize_frames_f32(frames: np.ndarray) -> np.ndarray:
    """Round float64 frames onto the float32 grid (returned as float64).

    Generators call this before building sequences so that the float32
    on-disk format loses nothing.
    """
    return np.asarray(frames, dtype=np.float64).astype("<f4").astype(np.float64)


@dataclass(frozen=True, eq=False)
class EmbeddingSequence:
    """A T x d matrix of frame embeddings: float64, finite, immutable."""

    frames: np.ndarray

    def __post_init__(self):
        arr = np.array(self.frames, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ValueError(f"frames must be 2-D (T, d), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need T >= 1 and d >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("frames contain NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingSequence):
            return NotImplemented
        return (
            self.frames.shape == other.frames.shape
            and self.frames.tobytes() == other.frames.tobytes()
        )

    def __repr__(self) -> str:
        return f"EmbeddingSequence(T={self.n_frames}, d={self.dim})"


@dataclass(frozen=True)
class FrameLabel:
    """Ground-truth task ids for one frame: one task, or two simultaneous ones."""

    tasks: tuple[int, ...]

    def __post_init__(self):
        tasks = tuple(self.tasks)
        if not 1 <= len(tasks) <= 2:
            raise ValueError(f"a frame carries 1 or 2 task ids, got {len(tasks)}")
        for t in tasks:
            if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                raise ValueError(f"task ids must be non-negative ints, got {t!r}")
        if len(tasks) == 2 and tasks[0] == tasks[1]:
            raise ValueError(f"simultaneous task ids must differ, got {tasks}")
        object.__setattr__(self, "tasks", tasks)

    @classmethod
    def of(cls, spec: int | Iterable[int]) -> "FrameLabel":
        if isinstance(spec, FrameLabel):
            return spec
        if isinstance(spec, int) and not isinstance(spec, bool):
            return cls((spec,))
        return cls(tuple(int(t) for t in spec))

    @property
    def task_set(self) -> frozenset[int]:
        return frozenset(self.tasks)


@dataclass(frozen=True, eq=False)
class LabeledSequence:
    """An embedding sequence with per-frame ground-truth labels and an embodiment tag."""

    seq_id: str
    sequence: EmbeddingSequence
    labels: tuple[FrameLabel, ...]
    embodiment: Embodiment
    seed_record: Mapping | None = None

    def __post_init__(self):
        if not _ID_RE.match(self.seq_id):
            raise ValueError(f"invalid sequence id {self.seq_id!r}")
        labels = tuple(FrameLabel.of(l) for l in self.labels)
        if len(labels) != self.sequence.n_frames:
            raise ValueError(
                f"sequence '{self.seq_id}': {len(labels)} labels for "
                f"{self.sequence.n_frames} frames"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "embodiment", Embodiment(self.embodiment))
        if self.seed_record is not None:
            object.__setattr__(self, "seed_record", dict(self.seed_record))

    @property
    def n_frames(self) -> int:
        return self.sequence.n_frames

    @property
    def dim(self) -> int:
        return self.sequence.dim

    @property
    def task_set(self) -> frozenset[int]:
        return frozenset(t for l in self.labels for t in l.tasks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledSequence):
            return NotImplemented
        return (
            self.seq_id == other.seq_id
            and self.sequence == other.sequence
            and self.labels == other.labels
            and self.embodiment == other.embodiment
            and self.seed_record == other.seed_record
        )


@dataclass(frozen=True, eq=False)
class SnippetDatabase:
    """An ordered collection of labeled sequences sharing one embedding dimension."""

    snippets: tuple[LabeledSequence, ...]
    task_names: Mapping[int, str] = field(default_factory=dict)
    provenance: Mapping | None = None

    def __post_init__(self):
        snippets = tuple(self.snippets)
        object.__setattr__(self, "snippets", snippets)
        object.__setattr__(
            self, "task_names", {int(k): str(v) for k, v in dict(self.task_names).items()}
        )
        if self.provenance is not None:
            object.__setattr__(self, "provenance", dict(self.provenance))
        by_id: dict[str, LabeledSequence] = {}
        for s in snippets:
            if s.seq_id in by_id:
                raise ValueError(f"duplicate sequence id '{s.seq_id}'")
            by_id[s.seq_id] = s
        object.__setattr__(self, "_by_id", by_id)
        dims = {s.dim for s in snippets}
        if len(dims) > 1:
            raise ValueError(f"mixed embedding dimensions in database: {sorted(dims)}")
        known = set(self.task_names)
        for s in snippets:
            missing = s.task_set - known
            if missing:
                raise ValueError(
                    f"sequence '{s.seq_id}' references undeclared task ids {sorted(missing)}"
                )

    @property
    def dim(self) -> int | None:
        return self.snippets[0].dim if self.snippets else None

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.seq_id for s in self.snippets)

    def get(self, seq_id: str) -> LabeledSequence:
        return self._by_id[seq_id]

    def __len__(self) -> int:
        return len(self.snippets)

    def __iter__(self):
        return iter(self.snippets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SnippetDatabase):
            return NotImplemented
        return (
            self.snippets == other.snippets
            and dict(self.task_names) == dict(other.task_names)
            and self.provenance == other.provenance
        )


def canonical_json(doc) -> str:
    """Deterministic JSON rendering used for manifests and reports."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_dataset(database: SnippetDatabase, path: str | Path) -> None:
    """Write a dataset directory (manifest + one .f32 blob per sequence).

    The manifest records the database's own task table and provenance.
    All validation happens before the first byte is written.
    """
    if not database.snippets:
        raise DatasetError("refusing to write an empty dataset")
    blobs: list[tuple[str, bytes]] = []
    records = []
    for s in database.snippets:
        raw = s.sequence.frames
        data = raw.astype("<f4").tobytes(order="C")
        if np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(raw.shape).tobytes() != raw.tobytes():
            raise BlobError(
                "frames are not exactly representable in float32; "
                "quantize with quantize_frames_f32 before writing",
                sequence_id=s.seq_id,
            )
        blob_name = f"{s.seq_id}.f32"
        blobs.append((blob_name, data))
        records.append(
            {
                "id": s.seq_id,
                "embodiment": s.embodiment.value,
                "T": s.n_frames,
                "labels": [list(l.tasks) for l in s.labels],
                "blob": blob_name,
                "seed_record": s.seed_record,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": database.dim,
        "tasks": {str(k): v for k, v in sorted(database.task_names.items())},
        "sequences": records,
        "provenance": database.provenance,
    }
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for blob_name, data in blobs:
        (out / blob_name).write_bytes(data)
    (out / MANIFEST_NAME).write_text(canonical_json(doc), encoding="utf-8")


def _parse_labels(raw, n_frames: int, seq_id: str) -> tuple[FrameLabel, ...]:
    if not isinstance(raw, list):
        raise DatasetError("labels must be a list", sequence_id=seq_id)
    if len(raw) != n_frames:
        raise DatasetError(
            f"{len(raw)} labels for {n_frames} frames", sequence_id=seq_id
        )
    labels = []
    for entry in raw:
        if not isinstance(entry, list) or not entry:
            raise DatasetError(f"bad label entry {entry!r}", sequence_id=seq_id)
        try:
            labels.append(FrameLabel(tuple(entry)))
        except ValueError as exc:
            raise DatasetError(f"bad label entry {entry!r}: {exc}", sequence_id=seq_id)
    return tuple(labels)


def read_dataset(path: str | Path) -> SnippetDatabase:
    """Read and fully validate a dataset directory written by :func:`write_dataset`."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ManifestError(f"no {MANIFEST_NAME} under {root}")
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestError(f"unparsable manifest: {exc}")
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ManifestError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    dim = doc.get("d")
    if type(dim) is not int or dim < 1:
        raise ManifestError(f"bad embedding dimension {dim!r}")
    tasks_raw = doc.get("tasks")
    if not isinstance(tasks_raw, dict):
        raise ManifestError("manifest 'tasks' must be an object")
    try:
        task_names = {int(k): str(v) for k, v in tasks_raw.items()}
    except ValueError as exc:
        raise ManifestError(f"bad task table key: {exc}")
    seq_docs = doc.get("sequences")
    if not isinstance(seq_docs, list):
        raise ManifestError("manifest 'sequences' must be a list")

    snippets = []
    for rec in seq_docs:
        if not isinstance(rec, dict) or "id" not in rec:
            raise ManifestError(f"bad sequence record {rec!r}")
        seq_id = str(rec["id"])
        if not _ID_RE.match(seq_id):
            raise DatasetError("invalid sequence id", sequence_id=seq_id)
        seed_record = rec.get("seed_record")
        if seed_record is not None and not isinstance(seed_record, dict):
            raise DatasetError(
                f"seed_record must be an object or null, got {seed_record!r}",
                sequence_id=seq_id,
            )
        try:
            embodiment = Embodiment(rec.get("embodiment"))
        except ValueError:
            raise DatasetError(
                f"unknown embodiment {rec.get('embodiment')!r}", sequence_id=seq_id
            )
        n_frames = rec.get("T")
        if type(n_frames) is not int or n_frames < 1:
            raise DatasetError(f"bad frame count {n_frames!r}", sequence_id=seq_id)
        blob_name = rec.get("blob")
        if not isinstance(blob_name, str) or Path(blob_name).name != blob_name:
            raise ManifestError(f"bad blob reference {blob_name!r}")
        blob_path = root / blob_name
        if not blob_path.is_file():
            raise BlobError(f"missing blob '{blob_name}'", sequence_id=seq_id)
        data = blob_path.read_bytes()
        expected = n_frames * dim * 4
        if len(data) != expected:
            raise BlobError(
                f"blob '{blob_name}' holds {len(data)} bytes, expected {expected}",
                sequence_id=seq_id,
            )
        frames = (
            np.frombuffer(data, dtype="<f4")
            .astype(np.float64)
            .reshape(n_frames, dim)
        )
        if not np.isfinite(frames).all():
            raise BlobError(
                f"blob '{blob_name}' contains NaN or Inf", sequence_id=seq_id
            )
        labels = _parse_labels(rec.get("labels"), n_frames, seq_id)
        undeclared = {t for l in labels for t in l.tasks} - set(task_names)
        if undeclared:
            raise DatasetError(
                f"labels reference undeclared task ids {sorted(undeclared)}",
                sequence_id=seq_id,
            )
        snippets.append(
            LabeledSequence(
                seq_id=seq_id,
                sequence=EmbeddingSequence(frames),
                labels=labels,
                embodiment=embodiment,
                seed_record=seed_record,
            )
        )
    try:
        return SnippetDatabase(tuple(snippets), task_names, doc.get("provenance"))
    except ValueError as exc:
        raise DatasetError(str(exc))


def dataset_content_hash(database: SnippetDatabase) -> str:
    """SHA-256 over the dataset's logical content (task table, ids, labels, float32 frames).

    Provenance is excluded so regenerated datasets with identical content
    hash identically.
    """
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {"d": database.dim, "tasks": {str(k): v for k, v in sorted(database.task_names.items())}},
            sort_keys=True,
        ).encode()
    )
    for s in database.snippets:
        meta = {
            "id": s.seq_id,
            "embodiment": s.embodiment.value,
            "labels": [list(l.tasks) for l in s.labels],
        }
        h.update(json.dumps(meta, sort_keys=True).encode())
        h.update(s.sequence.frames.astype("<f4").tobytes(order="C"))
    return h.hexdigest()
