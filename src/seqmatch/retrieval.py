"""Segment a robot sequence, retrieve the closest play snippet per segment,
and compose the retrieved snippets into an imagined demonstration.

Retrieval is label-free and exact, in one thread. A distance's ``scan``
ranks a bank for many queries at once and returns Q x N arrays, and
``build_paired_dataset`` makes one ``scan`` call for every segment of
every robot trajectory. The cycle distance computes every snippet
(``seqmatch.tcc.tcc_scan``); the transport distance solves only those a
lower bound cannot rule out as a segment's best or second-best match
(``seqmatch.ot.sinkhorn_top2``, all segments in lockstep), and reports
the rest as ``inf``. The bound holds for every pair whose solve
converges, and a segment's first solve that does not turns its pruning
off, so the pick, its distance, margin and converged flag are those of
the full per-pair scan. Ties on distance go to the
lexicographically smallest snippet id. Evaluation metrics are computed
at retrieval level: they ask whether the imagined demo names the right
tasks, not whether a downstream policy would have completed them, and
every report carries a note saying so.

The robot set and the play bank are both ``SnippetDatabase``s; a paired
dataset's provenance records each one's ``dataset_content_hash``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .data import (
    EmbeddingSequence,
    LabeledSequence,
    SnippetDatabase,
    check_bool,
    check_int,
    dataset_content_hash,
    label_tasks,
)
# cost_matrix, sinkhorn and tcc_distance go unused: perfbench/tracing.py wraps them here.
from .ot import (  # noqa: F401
    COSINE, SinkhornConfig, cost_matrix, sinkhorn, sinkhorn_scan, sinkhorn_top2,
)
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
        self, queries: Sequence[EmbeddingSequence | np.ndarray], bank: Sequence[EmbeddingSequence]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``grid``'s entries where ``sinkhorn_top2`` solved; ``inf`` where it pruned."""
        result = sinkhorn_top2(queries, bank, self.cfg, self.metric)
        return result.costs, result.converged

    def grid(
        self, queries: Sequence[EmbeddingSequence | np.ndarray], bank: Sequence[EmbeddingSequence]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry (i, j): ``sinkhorn(cost_matrix(queries[i], bank[j], metric), cfg)``'s
        cost and converged flag."""
        result = sinkhorn_scan(queries, bank, self.cfg, self.metric)
        return result.costs, result.converged

    def describe(self) -> dict:
        return {"name": self.name, "metric": self.metric, **asdict(self.cfg)}


class TccSequenceDistance:
    """Cycle-consistency loss as a sequence distance (asymmetric unless symmetrized)."""

    name = "tcc"

    def __init__(self, cfg: TccConfig | None = None, symmetric: bool = False):
        check_bool("symmetric", symmetric)
        self.cfg = cfg or TccConfig()
        self.symmetric = symmetric

    def scan(
        self, queries: Sequence[EmbeddingSequence | np.ndarray], bank: Sequence[EmbeddingSequence]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry (i, j): ``tcc_distance(queries[i], bank[j], cfg)`` (or symmetric) and True."""
        values = tcc_scan(queries, bank, self.cfg, self.symmetric)
        return values, np.ones(values.shape, dtype=bool)

    grid = scan

    def describe(self) -> dict:
        return {"name": self.name, **asdict(self.cfg), "symmetric": self.symmetric}


SequenceDistance = OtSequenceDistance | TccSequenceDistance


@dataclass(frozen=True)
class RetrievalConfig:
    """Segmentation plus a sequence distance (None for segmentation only).

    Exactly one of ``segment_len`` (K frames per segment) or
    ``segment_count`` (K', giving K = max(1, floor(T / K')) per sequence)
    must be set. The default keeps the trailing remainder as a short final
    segment; ``overlap_final=True`` instead slides the last window back so
    it ends flush at T (overlapping its predecessor).
    """

    distance: SequenceDistance | None
    segment_len: int | None = None
    segment_count: int | None = None
    overlap_final: bool = False

    def __post_init__(self):
        if (self.segment_len is None) == (self.segment_count is None):
            raise ValueError("set exactly one of segment_len or segment_count")
        name = "segment_len" if self.segment_count is None else "segment_count"
        check_int(name, getattr(self, name), 1)
        check_bool("overlap_final", self.overlap_final)

    def describe(self) -> dict:
        return {
            "segment_len": self.segment_len,
            "segment_count": self.segment_count,
            "overlap_final": self.overlap_final,
            "distance": None if self.distance is None else self.distance.describe(),
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
    """One retrieval decision: the robot frame range and what it fetched.

    ``n_pruned`` (candidates not solved) counts work, not the decision:
    it takes no part in equality and is written to JSON only when not 0.
    """

    start: int
    end: int
    snippet_index: int
    snippet_id: str
    distance: float
    margin: float | None
    converged: bool
    n_nonconverged: int = 0
    n_pruned: int = field(default=0, compare=False)

    def to_json_dict(self) -> dict:
        doc = {
            "start": self.start,
            "end": self.end,
            "snippet_index": self.snippet_index,
            "snippet_id": self.snippet_id,
            "distance": self.distance,
            "margin": self.margin,
            "converged": self.converged,
            "n_nonconverged": self.n_nonconverged,
        }
        if self.n_pruned:
            doc["n_pruned"] = self.n_pruned
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SegmentRecord":
        """Parse a record of ``to_json_dict``; a field not of its ``_JSON_FIELD_TYPES``
        (bool is no number here) raises ``TypeError`` instead of being coerced."""
        required = ("start", "end", "snippet_index", "snippet_id", "distance", "converged")
        fields = {name: doc[name] for name in required}
        fields.update(
            margin=doc.get("margin"), n_nonconverged=doc.get("n_nonconverged", 0), n_pruned=doc.get("n_pruned", 0)
        )
        for name, value in fields.items():
            if type(value) not in _JSON_FIELD_TYPES[name]:
                raise TypeError(f"segment field {name!r} has type {type(value).__name__}")
        return cls(**fields)


_JSON_FIELD_TYPES = dict.fromkeys(("start", "end", "snippet_index", "n_nonconverged", "n_pruned"), (int,)) | {
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


def _segment_record(
    bounds: tuple[int, int],
    seg_index: int,
    values: np.ndarray,
    converged: np.ndarray,
    db: SnippetDatabase,
) -> SegmentRecord:
    """The pick of one segment from its scan row over ``db``."""
    start, end = bounds
    pruned = np.isposinf(values)
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
        n_nonconverged=int((~converged & ~pruned).sum()),
        n_pruned=int(pruned.sum()),
    )


def _imagine_demos(
    sequences: Sequence[EmbeddingSequence],
    source_ids: Sequence[str | None],
    db: SnippetDatabase,
    cfg: RetrievalConfig,
) -> list[ImaginedDemo]:
    """The imagined demo of each sequence, in order, from one ``scan`` of every segment.

    Records are built sequence by sequence and segment by segment, so a
    segment whose distances are all NaN is reported with its index in
    its own sequence.
    """
    if len(db) == 0:
        raise RetrievalError("snippet database is empty")
    for z in sequences:
        if db.dim != z.dim:
            raise ValueError(f"dimension mismatch: sequence d={z.dim}, database d={db.dim}")
    segments = [segment(z, cfg) for z in sequences]
    subs = [z.frames[start:end] for z, ranges in zip(sequences, segments) for start, end in ranges]
    values, converged = cfg.distance.scan(subs, [s.sequence for s in db.snippets])
    rows = zip(values, converged)
    demos = []
    for source_id, ranges in zip(source_ids, segments):
        records = [_segment_record(b, i, *next(rows), db) for i, b in enumerate(ranges)]
        composed = EmbeddingSequence(
            np.vstack([db.snippets[r.snippet_index].sequence.frames for r in records])
        )
        demos.append(ImaginedDemo(source_id=source_id, segments=tuple(records), composed=composed))
    return demos


def imagine_demo(
    z: EmbeddingSequence,
    db: SnippetDatabase,
    cfg: RetrievalConfig,
    source_id: str | None = None,
) -> ImaginedDemo:
    """Retrieve the closest snippet per segment and concatenate the results."""
    return _imagine_demos([z], [source_id], db, cfg)[0]


def build_paired_dataset(
    robot_db: SnippetDatabase,
    db: SnippetDatabase,
    cfg: RetrievalConfig,
    extra_provenance: dict | None = None,
) -> PairedDataset:
    """One imagined demo per robot trajectory, from one ``scan`` of every segment
    of every trajectory.

    Each entry keeps both the robot embeddings and the imagined demo so
    downstream consumers can condition on either side of the pairing.
    Provenance hashes both databases as given, so the robot hash is the
    one ``gen`` and ``eval`` record for the same dataset.
    """
    if not robot_db.snippets:
        raise RetrievalError("robot set is empty")
    robots = robot_db.snippets
    demos = _imagine_demos([ls.sequence for ls in robots], [ls.seq_id for ls in robots], db, cfg)
    entries = [PairedEntry(robot=ls, demo=demo) for ls, demo in zip(robots, demos)]
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
    set equals the segment's ground-truth task set. A paired dataset with
    no entries has nothing to average over and raises ``RetrievalError``.
    """
    if not paired.entries:
        raise RetrievalError("paired dataset has no entries")
    snippet_task_sets = [s.task_set for s in db.snippets]
    per_traj = []
    total_segments = 0
    total_hits = 0
    for entry in paired.entries:
        robot_tasks = entry.robot.task_set
        retrieved: set[int] = set()
        hits = 0
        for rec in entry.demo.segments:
            if not 0 <= rec.snippet_index < len(snippet_task_sets):
                raise RetrievalError(
                    f"snippet index {rec.snippet_index} outside database of {len(db)}"
                )
            snippet_tasks = snippet_task_sets[rec.snippet_index]
            retrieved |= snippet_tasks
            if snippet_tasks == label_tasks(entry.robot.labels[rec.start : rec.end]):
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
    entries, play_ids = [], play_db.ids
    for robot_id, segments in records:
        if type(robot_id) is not str:
            raise RetrievalError(f"malformed paired record: robot_id has type {type(robot_id).__name__}")
        try:
            robot = robot_db.get(robot_id)
        except KeyError:
            raise RetrievalError(f"robot sequence '{robot_id}' missing from robot dataset")
        n_frames = robot.n_frames
        for s in segments:
            if not 0 <= s.start < s.end <= n_frames:
                raise RetrievalError(
                    f"segment [{s.start}, {s.end}) outside robot sequence '{robot_id}'"
                    f" of {n_frames} frames"
                )
            if not 0 <= s.snippet_index < len(play_ids) or play_ids[s.snippet_index] != s.snippet_id:
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
