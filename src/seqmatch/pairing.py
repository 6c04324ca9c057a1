"""Paired records and their evaluation, with no numpy.

A paired dataset holds, per robot trajectory, one ``SegmentRecord`` per
segment: the robot frame range and the snippet that retrieval picked
for it (``seqmatch.retrieval`` builds them). This module holds those
records, their ``paired.json`` form and ``evaluate``, which scores them
from labels alone. Nothing here imports numpy, so a command that only
reads and scores a paired run (``seqmatch eval``) never loads it.
``seqmatch.retrieval`` re-exports every public name.

Evaluation metrics are computed at retrieval level: they ask whether the
imagined demo names the right tasks, not whether a downstream policy
would have completed them, and every report carries a note saying so.
The two averages are numpy's ``mean`` to the bit (``_mean``), so a
report's bytes do not depend on which module computed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .data import EmbeddingSequence, LabeledSequence, SnippetDatabase, check_mapping, label_tasks

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

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "snippet_index": self.snippet_index,
            "snippet_id": self.snippet_id,
            "distance": self.distance,
            "margin": self.margin,
            "converged": self.converged,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SegmentRecord":
        """Parse a record of ``to_json_dict``; a field not of its ``_JSON_FIELD_TYPES``
        (bool is no number here) raises ``TypeError`` instead of being coerced. Other
        keys, such as the solver counts older files carry, are ignored."""
        required = ("start", "end", "snippet_index", "snippet_id", "distance", "converged")
        fields = {name: doc[name] for name in required}
        fields["margin"] = doc.get("margin")
        for name, value in fields.items():
            if type(value) not in _JSON_FIELD_TYPES[name]:
                raise TypeError(f"segment field {name!r} has type {type(value).__name__}")
        return cls(**fields)


_JSON_FIELD_TYPES = dict.fromkeys(("start", "end", "snippet_index"), (int,)) | {
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
    solver: dict | None = None  # the scan's {"pairs", "solved", "nonconverged"}; not in JSON

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[str] = set()
        for e in self.entries:
            if e.robot.seq_id in seen:
                raise ValueError(f"robot sequence '{e.robot.seq_id}' appears twice")
            seen.add(e.robot.seq_id)

    def __len__(self) -> int:
        return len(self.entries)


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


def _pairwise_sum(values: list[float]) -> float:
    """numpy's pairwise sum of float64 values, in its order: below 8 values a
    plain left fold; up to 128, eight strided accumulators combined as a tree,
    then the remainder; above, two halves split on a multiple of 8."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, values[j:end:8]) for j in range(8)]
        return reduce(add, values[end:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values: list[float]) -> float:
    """``float(np.mean(values))`` of a non-empty list of floats, bit for bit: the
    reduction's identity 0.0 plus the pairwise sum, divided by the count."""
    return (0.0 + _pairwise_sum(values)) / len(values)


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
        task_recall=_mean([t.recall for t in per_traj]),
        task_imprecision=_mean([t.imprecision for t in per_traj]),
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
    """Rehydrate a paired dataset from its report plus the two source datasets.

    A ``provenance`` that is neither an object nor null raises ``ValueError``;
    a missing or null one is read as empty."""
    provenance = doc.get("provenance")
    check_mapping("provenance", provenance)
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
    return PairedDataset(entries=tuple(entries), provenance=dict(provenance or {}))
