"""Embedding-sequence domain types, the on-disk dataset format and the config-field rules.

A dataset is a directory holding one ``manifest.json`` plus one raw
``<id>.f32`` blob per sequence: row-major frames, little-endian IEEE-754
binary32, exactly ``T * d * 4`` bytes, no header. Embeddings are float64
in memory and float32 on disk; writers require frames to sit exactly on
the float32 grid (generators quantize on output) so a write/read round
trip is bit-exact. A sequence that ``read_dataset`` returns keeps its
blob's float32 bytes and decodes its float64 frames on first use, so a
caller that needs only labels, frame counts and content hashes (``eval``)
never decodes a frame. numpy is imported only by the code that builds,
decodes or writes frames (``EmbeddingSequence``'s constructor and first
decode, ``quantize_frames_f32``, ``write_dataset``): reading a dataset,
checking its blobs and hashing it load no numpy.

``SnippetDatabase`` is the one in-memory dataset type: robot sets, play
banks and imagined demos alike. It carries its own declared task table
and provenance, which is exactly what ``write_dataset`` records and
``read_dataset`` returns, so ``dataset_content_hash`` gives a database
and its on-disk copy the same hash.

All types are frozen after construction and safe to share across
threads: threads that race on a sequence's first decode all get the one
cached array. A sequence's ``task_set`` is derived data: computed once,
when the sequence is built, and never settable or passed in. A
database's ``task_names`` is a read-only mapping, since its content
hash covers it; ``provenance`` and a sequence's ``seed_record`` are
plain dicts, copied at construction (a read sequence keeps the one
parsed from its manifest record, which nothing else holds), and neither
is hashed. Writing is single-writer per directory.

A read checks each field once. ``read_dataset`` checks every field that
``LabeledSequence.__post_init__`` checks (the id pattern, the
embodiment, the labels and their count against ``T``, the
``seed_record`` mapping) as it parses the manifest, so it builds each
sequence from the checked fields without running those checks again.
Within one read, equal label entries share one ``FrameLabel``, equal
label lists one tuple and equal task sets one ``frozenset``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import re
import stat
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from numbers import Real
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"

# A sequence id, matched with ``fullmatch``: ``$`` would also accept a trailing newline.
_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
# A task table key on disk: a task id in canonical decimal, so no two keys name one id.
_TASK_KEY_RE = re.compile(r"0|[1-9][0-9]*")


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


def check_int(name: str, value, low: int) -> None:
    """The int rule: an ``int``, not a bool, ``>= low``; else ``ValueError`` naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def is_finite_real(value) -> bool:
    """A real number, not a bool, that is neither NaN nor infinite."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def check_finite(name: str, value, gt: float | None = None, ge: float | None = None) -> None:
    """The finite-real rule: ``is_finite_real``, ``> gt``/``>= ge`` if given; else ``ValueError``."""
    if not (is_finite_real(value) and (gt is None or value > gt) and (ge is None or value >= ge)):
        bound = f" and > {gt}" if gt is not None else "" if ge is None else f" and >= {ge}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")


def check_bool(name: str, value) -> None:
    """The flag rule: ``True`` or ``False``, not just truthy; else ``ValueError`` naming ``name``."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def check_mapping(name: str, value) -> None:
    """The mapping rule: a ``Mapping`` or ``None``, never a list of pairs to coerce;
    else ``ValueError`` naming ``name``."""
    if value is not None and not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping or None, got {value!r}")


class Embodiment(str, Enum):
    ROBOT = "robot"
    DEMONSTRATOR = "demonstrator"


# An embodiment by its on-disk value: ``Embodiment(value)`` for a string, without the enum call.
_EMBODIMENTS = {e.value: e for e in Embodiment}


def quantize_frames_f32(frames: np.ndarray) -> np.ndarray:
    """Round float64 frames onto the float32 grid (returned as float64).

    Generators call this before building sequences so that the float32
    on-disk format loses nothing.
    """
    import numpy as np

    return np.asarray(frames, dtype=np.float64).astype("<f4").astype(np.float64)


@dataclass(frozen=True, eq=False)
class EmbeddingSequence:
    """A T x d matrix of frame embeddings: float64, finite, immutable.

    ``EmbeddingSequence(frames)`` copies ``frames`` into a read-only,
    C-contiguous float64 array. ``read_dataset`` instead builds each
    sequence around its blob's float32 bytes, already checked finite: the
    float64 ``frames`` are decoded on first access and cached, and the
    bytes are then dropped. ``n_frames``, ``dim`` and
    ``dataset_content_hash`` read the shape and bytes, so they decode
    nothing. Threads that race on the first access may each decode, but
    every one of them gets the one cached array.
    """

    frames: np.ndarray

    def __post_init__(self):
        import numpy as np

        arr = np.array(self.frames, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ValueError(f"frames must be 2-D (T, d), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need T >= 1 and d >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("frames contain NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)
        object.__setattr__(self, "_shape", arr.shape)

    @classmethod
    def _from_f32(cls, data: bytes, shape: tuple[int, int]) -> "EmbeddingSequence":
        """An undecoded sequence over ``data``: finite little-endian float32
        frames of ``shape`` (T, d), both already checked by the caller."""
        seq = object.__new__(cls)
        seq.__dict__.update(_shape=shape, _f32=data)
        return seq

    def __getattr__(self, name: str):
        # Reached only while ``frames`` is not in the instance dict. The
        # array is published with ``setdefault`` before the bytes are
        # dropped, so a racing thread that finds no bytes finds the array.
        state = self.__dict__
        if name != "frames" or "_shape" not in state:
            raise AttributeError(f"'{type(self).__name__}' object has no attribute '{name}'")
        data = state.get("_f32")
        if data is not None:
            import numpy as np

            arr = np.frombuffer(data, dtype="<f4").reshape(state["_shape"]).astype(np.float64)
            arr.setflags(write=False)
            state.setdefault("frames", arr)
            state.pop("_f32", None)
        return state["frames"]

    def _f32_bytes(self) -> bytes:
        """The frames as row-major little-endian float32: an undecoded sequence's own bytes."""
        data = self.__dict__.get("_f32")
        return data if data is not None else self.frames.astype("<f4").tobytes(order="C")

    @property
    def n_frames(self) -> int:
        return self._shape[0]

    @property
    def dim(self) -> int:
        return self._shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingSequence):
            return NotImplemented
        return self._shape == other._shape and self.frames.tobytes() == other.frames.tobytes()

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
        return cls(tuple(spec))

    @property
    def task_set(self) -> frozenset[int]:
        return frozenset(self.tasks)


_TASKS = attrgetter("tasks")
_TASK_SET = attrgetter("task_set")


def label_tasks(labels: Iterable[FrameLabel]) -> frozenset[int]:
    """Every task id that ``labels`` name, gathered without a Python-level loop."""
    return frozenset(chain.from_iterable(map(_TASKS, labels)))


@dataclass(frozen=True, eq=False)
class LabeledSequence:
    """An embedding sequence with per-frame ground-truth labels and an embodiment tag.

    ``task_set``, every task id the labels name, is derived data: it is
    computed once, at construction, and is neither a constructor argument
    nor settable.
    """

    seq_id: str
    sequence: EmbeddingSequence
    labels: tuple[FrameLabel, ...]
    embodiment: Embodiment
    seed_record: Mapping | None = None

    def __post_init__(self):
        if not isinstance(self.seq_id, str) or not _ID_RE.fullmatch(self.seq_id):
            raise ValueError(f"invalid sequence id {self.seq_id!r}")
        labels = self.labels
        if type(labels) is not tuple or not set(map(type, labels)) <= {FrameLabel}:
            labels = tuple(map(FrameLabel.of, labels))
        if len(labels) != self.sequence.n_frames:
            raise ValueError(
                f"sequence '{self.seq_id}': {len(labels)} labels for "
                f"{self.sequence.n_frames} frames"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "embodiment", Embodiment(self.embodiment))
        check_mapping("seed_record", self.seed_record)
        if self.seed_record is not None:
            object.__setattr__(self, "seed_record", dict(self.seed_record))
        object.__setattr__(self, "_task_set", label_tasks(labels))

    @classmethod
    def _from_checked(
        cls,
        seq_id: str,
        sequence: EmbeddingSequence,
        labels: tuple[FrameLabel, ...],
        embodiment: Embodiment,
        seed_record: dict | None,
        task_set: frozenset[int],
    ) -> "LabeledSequence":
        """A sequence from fields that already pass every ``__post_init__`` check,
        with ``task_set == label_tasks(labels)``; ``read_dataset`` checks them as it parses.

        The attributes are set in the order ``__init__`` sets them, so every
        instance dict shares one key table.
        """
        seq = object.__new__(cls)
        set_field = object.__setattr__
        set_field(seq, "seq_id", seq_id)
        set_field(seq, "sequence", sequence)
        set_field(seq, "labels", labels)
        set_field(seq, "embodiment", embodiment)
        set_field(seq, "seed_record", seed_record)
        set_field(seq, "_task_set", task_set)
        return seq

    @property
    def n_frames(self) -> int:
        return self.sequence.n_frames

    @property
    def dim(self) -> int:
        return self.sequence.dim

    @property
    def task_set(self) -> frozenset[int]:
        return self._task_set

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
        task_names = dict(self.task_names)
        for k, v in task_names.items():
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ValueError(f"task ids must be non-negative ints, got {k!r}")
            if not isinstance(v, str):
                raise ValueError(f"task {k} name must be a string, got {v!r}")
        object.__setattr__(self, "task_names", MappingProxyType(task_names))
        check_mapping("provenance", self.provenance)
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
        # Each distinct task set once: sequences that ``read_dataset`` returns share them.
        if not known.issuperset(chain.from_iterable(set(map(_TASK_SET, snippets)))):
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
    """Deterministic JSON rendering used for manifests and reports:
    ``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"``.

    One line, keys sorted at every depth, no whitespace between tokens.
    Without ``indent`` json uses its C encoder. Every reader of these
    files parses them, so whitespace would carry nothing; ``python -m
    json.tool FILE`` prints one indented.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_dataset(database: SnippetDatabase, path: str | Path) -> None:
    """Write a dataset directory (manifest + one .f32 blob per sequence).

    The manifest records the database's own task table and provenance.
    All validation happens before the first byte is written. Existing files
    are overwritten in place (``write_file``); nothing is atomic or fsynced.
    """
    if not database.snippets:
        raise DatasetError("refusing to write an empty dataset")
    import numpy as np

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
                "labels": list(map(_TASKS, s.labels)),
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
    root = os.fspath(out)
    for blob_name, data in blobs:
        write_file(os.path.join(root, blob_name), data)
    write_file(out / MANIFEST_NAME, canonical_json(doc).encode())


def write_file(path: str | os.PathLike, content: bytes | Iterable[bytes]) -> None:
    """Make ``content``, bytes or byte chunks, the whole of the regular file ``path``.

    Every file seqmatch writes goes through here, with one ``os.open`` and no
    buffered file object. There is no ``O_TRUNC`` (on ext4, truncating at open
    frees the blocks and makes the close start writeback): the file is
    overwritten in place and truncated to length if it was longer. A FIFO fails
    at once (``O_NONBLOCK``) and, like any file that is not regular, raises
    ``DatasetError`` naming ``path``. No write is atomic or fsynced: an
    interrupted rewrite leaves old bytes, or new bytes over the start of the old.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        if exc.errno == errno.ENXIO:  # a FIFO or socket with no reader
            raise DatasetError(f"cannot write {os.fspath(path)}: not a regular file") from None
        raise
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise DatasetError(f"cannot write {os.fspath(path)}: not a regular file")
        size = 0
        for chunk in (content,) if isinstance(content, bytes) else content:
            view = memoryview(chunk)
            size += len(view)
            while view:
                view = view[os.write(fd, view):]
        if info.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _parse_labels(raw, n_frames: int, seq_id: str, interned: dict) -> tuple[FrameLabel, ...]:
    """A sequence's labels, shared through ``interned`` with every equal one parsed before.

    ``interned`` maps an entry (a tuple of task ids) to its ``FrameLabel``
    and a whole list of entries (a tuple of such tuples) to its tuple of
    labels; the two kinds of key never compare equal. When every entry is
    a non-empty list of plain ints, the whole list is checked in a few
    C-level passes, an equal list parsed before gives its tuple, and
    otherwise a ``FrameLabel`` is built only for an entry not interned
    yet. Otherwise, or when such an entry is not a valid label,
    ``_parse_label_entries`` goes entry by entry, so an error names the
    first bad entry.
    """
    if not isinstance(raw, list):
        raise DatasetError("labels must be a list", sequence_id=seq_id)
    if len(raw) != n_frames:
        raise DatasetError(
            f"{len(raw)} labels for {n_frames} frames", sequence_id=seq_id
        )
    if set(map(type, raw)) == {list} and all(raw) and set(map(type, chain.from_iterable(raw))) == {int}:
        keys = tuple(map(tuple, raw))
        labels = interned.get(keys)
        if labels is not None:
            return labels
        labels = tuple(map(interned.get, keys))
        if not all(labels):  # a FrameLabel is always true, a miss is None
            try:
                for key in set(keys).difference(interned):
                    interned[key] = FrameLabel(key)
            except ValueError:
                return _parse_label_entries(raw, seq_id, interned)
            labels = tuple(map(interned.__getitem__, keys))
        # Keyed by the labels' own id tuples, so that ``keys`` is freed now.
        interned[tuple(map(_TASKS, labels))] = labels
        return labels
    return _parse_label_entries(raw, seq_id, interned)


def _parse_label_entries(raw: list, seq_id: str, interned: dict) -> tuple[FrameLabel, ...]:
    """``_parse_labels`` one entry at a time.

    Only all-int entries are looked up in ``interned``: ``True`` and ``1.0``
    hash and compare equal to ``1`` but are not task ids.
    """
    labels = []
    for entry in raw:
        if not isinstance(entry, list) or not entry:
            raise DatasetError(f"bad label entry {entry!r}", sequence_id=seq_id)
        key = tuple(entry)
        label = interned.get(key) if all(type(t) is int for t in key) else None
        if label is None:
            try:
                label = interned[key] = FrameLabel(key)
            except ValueError as exc:
                raise DatasetError(f"bad label entry {entry!r}: {exc}", sequence_id=seq_id)
        labels.append(label)
    return tuple(labels)


def _read_blob(prefix: str, blob_name: str, size: int, seq_id: str) -> bytes:
    """The bytes of blob ``prefix + blob_name``, which must be a regular file of ``size`` bytes.

    ``prefix`` is ``os.path.join(root, "")`` and ``blob_name`` a bare file
    name, so their sum is ``os.path.join(root, blob_name)``. One open and
    one read, with no separate existence check.
    """
    try:
        # O_NONBLOCK: opening a FIFO must not hang; fstat rejects it below.
        fd = os.open(prefix + blob_name, os.O_RDONLY | os.O_NONBLOCK)
    except FileNotFoundError:
        raise BlobError(f"missing blob '{blob_name}'", sequence_id=seq_id)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise BlobError(f"blob '{blob_name}' is not a regular file", sequence_id=seq_id)
        if info.st_size != size:
            raise BlobError(
                f"blob '{blob_name}' holds {info.st_size} bytes, expected {size}",
                sequence_id=seq_id,
            )
        data = os.read(fd, size)
    finally:
        os.close(fd)
    if len(data) != size:  # truncated since the fstat
        raise BlobError(f"blob '{blob_name}': read {len(data)} of {size} bytes", sequence_id=seq_id)
    return data


# Byte 3 of a little-endian float32 -> 0x80 if its low 7 bits (the exponent's
# top 7) are all ones, else 0.
_EXPONENT_TOP7_ONES = bytes(0x80 if b & 0x7F == 0x7F else 0 for b in range(256))


def _f32_all_finite(data: bytes) -> bool:
    """Whether every little-endian float32 in ``data`` is finite, from the bytes.

    A float32 is NaN or Inf exactly when its 8 exponent bits are all ones:
    the low 7 bits of its byte 3 and the high bit of its byte 2. A finite
    value with byte 3 of 0x7F or 0xFF is at least 2**127 in magnitude, so
    a blob without such a byte 3 is finite after one scan; otherwise the
    two bits are matched for every value at once, as two big integers.
    """
    high = data[3::4]
    if b"\x7f" not in high and b"\xff" not in high:
        return True
    marked = int.from_bytes(high.translate(_EXPONENT_TOP7_ONES), "little")
    return not marked & int.from_bytes(data[2::4], "little")


def read_json_object(path: Path, error: type[DatasetError]) -> dict:
    """The JSON object stored in ``path``; each failure raises ``error`` naming the file."""
    if not path.is_file():
        raise error(f"no {path.name} under {path.parent}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also integers of too many digits, too deep nesting
        raise error(f"unparsable {path}, not valid UTF-8 JSON or past the parser's limits: {exc}")
    if not isinstance(doc, dict):
        raise error(f"{path} does not hold a JSON object")
    return doc


def read_dataset(path: str | Path) -> SnippetDatabase:
    """Read and fully validate a dataset directory written by :func:`write_dataset`.

    Every malformed input raises a ``DatasetError``: a ``ManifestError``
    for the manifest document and its records (a sequence id that is not a
    string, a ``blob`` that is not a bare file name), a ``BlobError`` for a
    blob that is missing, not a regular file (a directory, say), of the
    wrong size or not finite, and a plain ``DatasetError`` for bad ids,
    labels, frame counts and undeclared task ids. A ``provenance`` that is
    neither an object nor null is a ``ManifestError``. Each blob is opened
    and read once, and its float32 values are checked there; each sequence
    decodes its float64 frames on first use (see ``EmbeddingSequence``).
    Labels are checked a sequence at a time in C-level passes. Sequences
    share one ``FrameLabel`` per distinct entry, one labels tuple per
    distinct label list and one task set per distinct set, and each is
    built by ``LabeledSequence._from_checked`` from the fields checked here.
    """
    root = os.fspath(path)
    doc = read_json_object(Path(root, MANIFEST_NAME), ManifestError)
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ManifestError(f"unsupported schema_version {version!r}")
    dim = doc.get("d")
    if type(dim) is not int or dim < 1:
        raise ManifestError(f"bad embedding dimension {dim!r}")
    tasks_raw = doc.get("tasks")
    if not isinstance(tasks_raw, dict):
        raise ManifestError("manifest 'tasks' must be an object")
    task_names = {}
    for k, v in tasks_raw.items():
        if not _TASK_KEY_RE.fullmatch(k):
            raise ManifestError(f"bad task table key {k!r}")
        if type(v) is not str:
            raise ManifestError(f"task {k} name must be a string, got {v!r}")
        try:
            task_names[int(k)] = v
        except ValueError:  # more digits than int() converts
            raise ManifestError(f"task table key of {len(k)} digits is too long") from None
    seq_docs = doc.get("sequences")
    if not isinstance(seq_docs, list):
        raise ManifestError("manifest 'sequences' must be a list")
    provenance = doc.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise ManifestError(f"manifest 'provenance' must be an object or null, got {provenance!r}")

    snippets, interned, task_sets, label_sets = [], {}, {}, {}
    prefix = os.path.join(root, "")
    for rec in seq_docs:
        if not isinstance(rec, dict) or "id" not in rec:
            raise ManifestError(f"bad sequence record {rec!r}")
        seq_id = rec["id"]
        if type(seq_id) is not str:
            raise ManifestError(f"sequence id must be a string, got {seq_id!r}")
        if not _ID_RE.fullmatch(seq_id):
            raise DatasetError("invalid sequence id", sequence_id=seq_id)
        seed_record = rec.get("seed_record")
        if seed_record is not None and not isinstance(seed_record, dict):
            raise DatasetError(
                f"seed_record must be an object or null, got {seed_record!r}",
                sequence_id=seq_id,
            )
        embodiment = rec.get("embodiment")
        if type(embodiment) is not str or embodiment not in _EMBODIMENTS:
            raise DatasetError(f"unknown embodiment {embodiment!r}", sequence_id=seq_id)
        n_frames = rec.get("T")
        if type(n_frames) is not int or n_frames < 1:
            raise DatasetError(f"bad frame count {n_frames!r}", sequence_id=seq_id)
        blob_name = rec.get("blob")
        if type(blob_name) is not str or "/" in blob_name or "\0" in blob_name or blob_name in ("", ".", ".."):
            raise ManifestError(f"bad blob reference {blob_name!r}")
        data = _read_blob(prefix, blob_name, n_frames * dim * 4, seq_id)
        # A float32 value is finite exactly when its float64 decode is.
        if not _f32_all_finite(data):
            raise BlobError(
                f"blob '{blob_name}' contains NaN or Inf", sequence_id=seq_id
            )
        labels = _parse_labels(rec.get("labels"), n_frames, seq_id, interned)
        task_set = label_sets.get(id(labels))  # equal label lists share one tuple
        if task_set is None:
            task_set = label_tasks(labels)
            task_set = label_sets[id(labels)] = task_sets.setdefault(task_set, task_set)
        snippets.append(
            LabeledSequence._from_checked(
                seq_id,
                EmbeddingSequence._from_f32(data, (n_frames, dim)),
                labels,
                _EMBODIMENTS[embodiment],
                seed_record,
                task_set,
            )
        )
    try:
        return SnippetDatabase(tuple(snippets), task_names, provenance)
    except ValueError as exc:
        raise DatasetError(str(exc))


class _LabelJson(dict):
    """``json.dumps(list(tasks))`` per label tuple, rendered on first lookup."""

    def __missing__(self, tasks: tuple[int, ...]) -> str:
        text = self[tasks] = json.dumps(list(tasks))
        return text


def dataset_content_hash(database: SnippetDatabase) -> str:
    """SHA-256 over the dataset's logical content (task table, ids, labels, float32 frames).

    Provenance is excluded so regenerated datasets with identical content
    hash identically. Each sequence contributes the bytes of
    ``json.dumps({"id", "embodiment", "labels"}, sort_keys=True)`` and then
    its float32 frames (a read sequence's own bytes, undecoded); the JSON
    is assembled from one rendering per distinct label, and ids match
    ``_ID_RE``, so they need no escaping. The digest is cached on the
    immutable database, so a command that hashes one input from several
    places computes it once.
    """
    digest = database.__dict__.get("_content_hash")
    if digest is not None:
        return digest
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {"d": database.dim, "tasks": {str(k): v for k, v in sorted(database.task_names.items())}},
            sort_keys=True,
        ).encode()
    )
    label_json, rendered = _LabelJson(), {}
    for s in database.snippets:
        labels = rendered.get(id(s.labels))  # read sequences with equal labels share one tuple
        if labels is None:
            labels = rendered[id(s.labels)] = ", ".join(map(label_json.__getitem__, map(_TASKS, s.labels)))
        h.update(
            f'{{"embodiment": "{s.embodiment.value}", "id": "{s.seq_id}", "labels": [{labels}]}}'.encode()
        )
        h.update(s.sequence._f32_bytes())
    digest = h.hexdigest()
    object.__setattr__(database, "_content_hash", digest)
    return digest
