"""Segment a robot sequence, retrieve the closest play snippet per segment,
and compose the retrieved snippets into an imagined demonstration.

Retrieval is label-free and exact: every segment is compared with every
snippet of the bank, in one thread. A distance ranks a bank with one
``scan`` call: the transport distance solves it as batched Sinkhorn
(``seqmatch.ot.sinkhorn_scan``), the cycle distance as batched cycles
(``seqmatch.tcc.tcc_scan``), each on the same length-bucketed stacks
and with exactly the per-pair values. Ties on distance go to the
lexicographically smallest snippet id. Evaluation metrics are computed
at retrieval level: they ask whether the imagined demo names the right
tasks, not whether a downstream policy would have completed them, and
every report carries a note saying so.

The robot set and the play bank are both ``SnippetDatabase``s; a paired
dataset's provenance records each one's ``dataset_content_hash``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import (
    EmbeddingSequence,
    LabeledSequence,
    SnippetDatabase,
    dataset_content_hash,
)
# cost_matrix, sinkhorn and tcc_distance go unused: perfbench/tracing.py wraps them here.
from .ot import COSINE, SinkhornConfig, cost_matrix, sinkhorn, sinkhorn_scan  # noqa: F401
from .tcc import TccConfig, tcc_distance, tcc_scan  # noqa: F401

METRICS_NOTE = (
    "Metrics are retrieval-level: task recall/imprecision compare the labels of "
    "retrieved snippets against the robot trajectory's labels; no policy rollouts."
)


class RetrievalError(Exception):
    """Retrieval could not produce a valid result; carries the segment index."""

    def __init__(self, message: str, segment_index: int | None = None):
        if segment_index is not None:
            message = f"segment {segment_index}: {message}"
        super().__init__(message)
        self.segment_index = segment_index


class OtSequenceDistance:
    """Entropic transport cost as a sequence distance (permutation-invariant)."""

    name = "ot"

    def __init__(self, cfg: SinkhornConfig | None = None, metric: str = COSINE):
        self.cfg = cfg or SinkhornConfig()
        self.metric = metric

    def scan(
        self, a: EmbeddingSequence, bank: Sequence[EmbeddingSequence]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry j: ``sinkhorn(cost_matrix(a, bank[j], metric), cfg)``'s cost and converged flag."""
        result = sinkhorn_scan(a, bank, self.cfg, self.metric)
        return result.costs, result.converged

    def describe(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "epsilon": self.cfg.epsilon,
            "max_iters": self.cfg.max_iters,
            "tol_marginal": self.cfg.tol_marginal,
        }


class TccSequenceDistance:
    """Cycle-consistency loss as a sequence distance (asymmetric unless symmetrized)."""

    name = "tcc"

    def __init__(self, cfg: TccConfig | None = None, symmetric: bool = False):
        self.cfg = cfg or TccConfig()
        self.symmetric = symmetric

    def scan(
        self, a: EmbeddingSequence, bank: Sequence[EmbeddingSequence]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry j: ``tcc_distance(a, bank[j], cfg)`` (or symmetric) and True."""
        return tcc_scan(a, bank, self.cfg, self.symmetric), np.ones(len(bank), dtype=bool)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "temperature": self.cfg.temperature,
            "squared": self.cfg.squared,
            "symmetric": self.symmetric,
        }


SequenceDistance = OtSequenceDistance | TccSequenceDistance


@dataclass(frozen=True)
class RetrievalConfig:
    """Segmentation plus a sequence distance (None for segmentation only).

    Exactly one of ``segment_len`` (K frames per segment) or
    ``segment_count`` (K', giving K = max(1, floor(T / K')) per sequence)
    must be set. The default keeps the trailing remainder as a short
    final segment; ``overlap_final=True`` instead slides the last window
    back so it ends flush at T (overlapping its predecessor).
    """

    distance: SequenceDistance | None
    segment_len: int | None = None
    segment_count: int | None = None
    overlap_final: bool = False

    def __post_init__(self):
        if (self.segment_len is None) == (self.segment_count is None):
            raise ValueError("set exactly one of segment_len or segment_count")
        for name in ("segment_len", "segment_count"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def describe(self) -> dict:
        return {
            "segment_len": self.segment_len,
            "segment_count": self.segment_count,
            "overlap_final": self.overlap_final,
            "distance": self.distance.describe(),
        }


def segment(z: EmbeddingSequence | int, cfg: RetrievalConfig) -> list[tuple[int, int]]:
    """Ordered frame ranges covering [0, T).

    All ranges have length K except possibly the last, which holds the
    remainder (at least one frame) when K does not divide T. K larger
    than T yields the single range [0, T).
    """
    T = z.n_frames if isinstance(z, EmbeddingSequence) else int(z)
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    if cfg.segment_len is not None:
        K = cfg.segment_len
    else:
        K = max(1, T // cfg.segment_count)
    if K >= T:
        return [(0, T)]
    bounds = [(start, min(start + K, T)) for start in range(0, T, K)]
    if cfg.overlap_final and bounds[-1][1] - bounds[-1][0] < K:
        bounds[-1] = (T - K, T)
    return bounds


@dataclass(frozen=True)
class SegmentRecord:
    """One retrieval decision: the robot frame range and what it fetched."""

    start: int
    end: int
    snippet_index: int
    snippet_id: str
    distance: float
    margin: float | None
    converged: bool
    n_nonconverged: int = 0

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "snippet_index": self.snippet_index,
            "snippet_id": self.snippet_id,
            "distance": self.distance,
            "margin": self.margin,
            "converged": self.converged,
            "n_nonconverged": self.n_nonconverged,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SegmentRecord":
        """Parse a record of ``to_json_dict``; a field not of its ``_JSON_FIELD_TYPES``
        (bool is no number here) raises ``TypeError`` instead of being coerced."""
        required = ("start", "end", "snippet_index", "snippet_id", "distance", "converged")
        fields = {name: doc[name] for name in required}
        fields.update(margin=doc.get("margin"), n_nonconverged=doc.get("n_nonconverged", 0))
        for name, value in fields.items():
            if type(value) not in _JSON_FIELD_TYPES[name]:
                raise TypeError(f"segment field {name!r} has type {type(value).__name__}")
        return cls(**fields)


_JSON_FIELD_TYPES = dict.fromkeys(("start", "end", "snippet_index", "n_nonconverged"), (int,)) | {
    "snippet_id": (str,), "distance": (int, float), "margin": (int, float, type(None)), "converged": (bool,)
}


@dataclass(frozen=True, eq=False)
class ImaginedDemo:
    """Composed retrieved snippets for one robot sequence.

    ``composed`` is None only for records rehydrated from a report file
    without their frame data.
    """

    source_id: str | None
    segments: tuple[SegmentRecord, ...]
    composed: EmbeddingSequence | None

    @property
    def n_segments(self) -> int:
        return len(self.segments)


@dataclass(frozen=True, eq=False)
class PairedEntry:
    robot: LabeledSequence
    demo: ImaginedDemo


@dataclass(frozen=True, eq=False)
class PairedDataset:
    """One imagined demo per robot trajectory, with full provenance."""

    entries: tuple[PairedEntry, ...]
    provenance: dict

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[str] = set()
        for e in self.entries:
            if e.robot.seq_id in seen:
                raise ValueError(f"robot sequence '{e.robot.seq_id}' appears twice")
            seen.add(e.robot.seq_id)

    def __len__(self) -> int:
        return len(self.entries)


def _evaluate_segment(
    z: EmbeddingSequence,
    bounds: tuple[int, int],
    seg_index: int,
    db: SnippetDatabase,
    distance: SequenceDistance,
) -> SegmentRecord:
    start, end = bounds
    sub = EmbeddingSequence(z.frames[start:end])
    values, converged = distance.scan(sub, [s.sequence for s in db.snippets])
    finite = np.isfinite(values)
    if not finite.any():
        raise RetrievalError("all snippet distances are NaN", segment_index=seg_index)
    best_value = values[finite].min()
    tied = np.flatnonzero(finite & (values == best_value))
    best = min(tied, key=lambda j: db.snippets[j].seq_id)
    others = values[finite & (np.arange(len(db)) != best)]
    margin = float(others.min() - best_value) if others.size else None
    return SegmentRecord(
        start=start,
        end=end,
        snippet_index=int(best),
        snippet_id=db.snippets[best].seq_id,
        distance=float(values[best]),
        margin=margin,
        converged=bool(converged[best]),
        n_nonconverged=int((~converged).sum()),
    )


def imagine_demo(
    z: EmbeddingSequence,
    db: SnippetDatabase,
    cfg: RetrievalConfig,
    source_id: str | None = None,
) -> ImaginedDemo:
    """Retrieve the closest snippet per segment and concatenate the results."""
    if len(db) == 0:
        raise RetrievalError("snippet database is empty")
    if db.dim != z.dim:
        raise ValueError(f"dimension mismatch: sequence d={z.dim}, database d={db.dim}")
    records = [
        _evaluate_segment(z, b, i, db, cfg.distance) for i, b in enumerate(segment(z, cfg))
    ]
    composed = EmbeddingSequence(
        np.vstack([db.snippets[r.snippet_index].sequence.frames for r in records])
    )
    return ImaginedDemo(source_id=source_id, segments=tuple(records), composed=composed)


def build_paired_dataset(
    robot_db: SnippetDatabase,
    db: SnippetDatabase,
    cfg: RetrievalConfig,
    extra_provenance: dict | None = None,
) -> PairedDataset:
    """One imagined demo per robot trajectory.

    Each entry keeps both the robot embeddings and the imagined demo so
    downstream consumers can condition on either side of the pairing.
    Provenance hashes both databases as given, so the robot hash is the
    one ``gen`` and ``eval`` record for the same dataset.
    """
    if not robot_db.snippets:
        raise RetrievalError("robot set is empty")
    entries = [
        PairedEntry(robot=ls, demo=imagine_demo(ls.sequence, db, cfg, source_id=ls.seq_id))
        for ls in robot_db.snippets
    ]
    provenance = {
        "retrieval": cfg.describe(),
        "robot_hash": dataset_content_hash(robot_db),
        "play_hash": dataset_content_hash(db),
    }
    if extra_provenance:
        provenance.update(extra_provenance)
    return PairedDataset(entries=tuple(entries), provenance=provenance)


@dataclass(frozen=True)
class TrajectoryEval:
    robot_id: str
    recall: float
    imprecision: float
    n_segments: int
    top1_hits: int
    robot_tasks: tuple[int, ...]
    retrieved_tasks: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "robot_id": self.robot_id,
            "recall": self.recall,
            "imprecision": self.imprecision,
            "n_segments": self.n_segments,
            "top1_hits": self.top1_hits,
            "robot_tasks": list(self.robot_tasks),
            "retrieved_tasks": list(self.retrieved_tasks),
        }


@dataclass(frozen=True)
class EvalReport:
    """Retrieval-level task recall / imprecision plus per-segment top-1 accuracy."""

    task_recall: float
    task_imprecision: float
    top1_accuracy: float
    per_trajectory: tuple[TrajectoryEval, ...]
    note: str = METRICS_NOTE

    def __post_init__(self):
        for name in ("task_recall", "task_imprecision", "top1_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    def to_json_dict(self) -> dict:
        return {
            "note": self.note,
            "task_recall": self.task_recall,
            "task_imprecision": self.task_imprecision,
            "top1_accuracy": self.top1_accuracy,
            "per_trajectory": [t.to_json_dict() for t in self.per_trajectory],
        }


def evaluate(paired: PairedDataset, db: SnippetDatabase) -> EvalReport:
    """Score a paired dataset against ground-truth labels.

    Recall: fraction of the robot trajectory's tasks covered by the
    retrieved snippets' tasks, averaged over trajectories. Imprecision:
    fraction of retrieved tasks absent from the robot trajectory,
    averaged. Top-1: fraction of segments whose retrieved snippet's task
    set equals the segment's ground-truth task set.
    """
    per_traj = []
    total_segments = 0
    total_hits = 0
    for entry in paired.entries:
        robot_tasks = entry.robot.task_set
        retrieved: set[int] = set()
        hits = 0
        for rec in entry.demo.segments:
            if not 0 <= rec.snippet_index < len(db):
                raise RetrievalError(
                    f"snippet index {rec.snippet_index} outside database of {len(db)}"
                )
            snippet = db.snippets[rec.snippet_index]
            snippet_tasks = snippet.task_set
            retrieved |= snippet_tasks
            segment_tasks = {
                t
                for label in entry.robot.labels[rec.start : rec.end]
                for t in label.tasks
            }
            if snippet_tasks == segment_tasks:
                hits += 1
        recall = len(retrieved & robot_tasks) / len(robot_tasks)
        imprecision = len(retrieved - robot_tasks) / len(retrieved) if retrieved else 0.0
        per_traj.append(
            TrajectoryEval(
                robot_id=entry.robot.seq_id,
                recall=recall,
                imprecision=imprecision,
                n_segments=entry.demo.n_segments,
                top1_hits=hits,
                robot_tasks=tuple(sorted(robot_tasks)),
                retrieved_tasks=tuple(sorted(retrieved)),
            )
        )
        total_segments += entry.demo.n_segments
        total_hits += hits
    return EvalReport(
        task_recall=float(np.mean([t.recall for t in per_traj])),
        task_imprecision=float(np.mean([t.imprecision for t in per_traj])),
        top1_accuracy=total_hits / total_segments if total_segments else 0.0,
        per_trajectory=tuple(per_traj),
    )


def paired_to_json_dict(paired: PairedDataset) -> dict:
    """Serializable view of a paired dataset (embeddings live in dataset dirs)."""
    return {
        "provenance": paired.provenance,
        "entries": [
            {
                "robot_id": e.robot.seq_id,
                "segments": [r.to_json_dict() for r in e.demo.segments],
            }
            for e in paired.entries
        ],
    }


def paired_from_json_dict(
    doc: dict, robot_db: SnippetDatabase, play_db: SnippetDatabase
) -> PairedDataset:
    """Rehydrate a paired dataset from its report plus the two source datasets."""
    try:
        records = [
            (rec["robot_id"], tuple(SegmentRecord.from_json_dict(s) for s in rec["segments"]))
            for rec in doc["entries"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise RetrievalError(f"malformed paired record: {exc!r}")
    entries = []
    for robot_id, segments in records:
        if type(robot_id) is not str:
            raise RetrievalError(f"malformed paired record: robot_id has type {type(robot_id).__name__}")
        try:
            robot = robot_db.get(robot_id)
        except KeyError:
            raise RetrievalError(f"robot sequence '{robot_id}' missing from robot dataset")
        for s in segments:
            if not 0 <= s.start < s.end <= robot.n_frames:
                raise RetrievalError(
                    f"segment [{s.start}, {s.end}) outside robot sequence '{robot_id}'"
                    f" of {robot.n_frames} frames"
                )
            if not 0 <= s.snippet_index < len(play_db) or play_db.snippets[s.snippet_index].seq_id != s.snippet_id:
                raise RetrievalError(
                    f"snippet '{s.snippet_id}' not at index {s.snippet_index} in play dataset"
                )
        entries.append(
            PairedEntry(
                robot=robot,
                demo=ImaginedDemo(source_id=robot_id, segments=segments, composed=None),
            )
        )
    return PairedDataset(entries=tuple(entries), provenance=dict(doc.get("provenance", {})))
