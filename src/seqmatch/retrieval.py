"""Segment a robot sequence, retrieve the closest play snippet per segment,
and compose the retrieved snippets into an imagined demonstration.

Retrieval is label-free and exact, in one thread. A distance's ``scan``
ranks a bank for many queries at once and returns Q x N arrays, and
``build_paired_dataset`` makes one ``scan`` call for every segment of
every robot trajectory. The cycle distance computes every snippet
(``seqmatch.tcc.tcc_scan``); the transport distance solves only those a
lower bound cannot rule out as a segment's best or second-best match
(``seqmatch.ot.sinkhorn_top2``, the whole segment x snippet grid in at
most two masked passes), and reports the rest as ``inf``. The bound holds
for every pair, converged or not, so the pick, its distance, margin and
converged flag are those of the full per-pair scan.
A record holds the decision alone: how much of the bank was solved is
``PairedDataset.solver``, never written to ``paired.json``. Ties on
distance go to the lexicographically smallest snippet id.

The robot set and the play bank are both ``SnippetDatabase``s; a paired
dataset's provenance records each one's ``dataset_content_hash``. The
records, their JSON form and ``evaluate`` live in ``seqmatch.pairing``,
which loads no numpy, and are re-exported here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .data import (
    EmbeddingSequence,
    SnippetDatabase,
    check_bool,
    check_int,
    dataset_content_hash,
)
# cost_matrix, sinkhorn and tcc_distance go unused: perfbench/tracing.py wraps them here.
from .ot import (  # noqa: F401
    COSINE, METRICS, SinkhornConfig, cost_matrix, sinkhorn, sinkhorn_scan, sinkhorn_top2,
)
# The records and their evaluation are re-exported: they are part of this module's API.
from .pairing import (  # noqa: F401
    EvalReport,
    ImaginedDemo,
    PairedDataset,
    PairedEntry,
    RetrievalError,
    SegmentRecord,
    TrajectoryEval,
    evaluate,
    paired_from_json_dict,
    paired_to_json_dict,
)
from .tcc import TccConfig, tcc_distance, tcc_scan  # noqa: F401


class OtSequenceDistance:
    """Entropic transport cost as a sequence distance (permutation-invariant)."""

    name = "ot"

    def __init__(self, cfg: SinkhornConfig | None = None, metric: str = COSINE):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
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
    if isinstance(z, EmbeddingSequence):
        T = z.n_frames
    else:
        check_int("T", z, 1)
        T = z
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


def _segment_record(
    bounds: tuple[int, int],
    seg_index: int,
    values: np.ndarray,
    converged: np.ndarray,
    db: SnippetDatabase,
) -> SegmentRecord:
    """The pick of one segment from its scan row over ``db``."""
    start, end = bounds
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
    )


def _imagine_demos(
    sequences: Sequence[EmbeddingSequence],
    source_ids: Sequence[str | None],
    db: SnippetDatabase,
    cfg: RetrievalConfig,
) -> tuple[list[ImaginedDemo], dict]:
    """The imagined demo of each sequence, in order, from one ``scan`` of every
    segment, and the counts of that scan (a pruned pair is ``inf``).

    Records are built sequence by sequence and segment by segment, so a
    segment whose distances are all NaN is reported with its index in
    its own sequence.
    """
    if len(db) == 0:
        raise RetrievalError("snippet database is empty")
    segments = [segment(z, cfg) for z in sequences]
    subs = [z.frames[start:end] for z, ranges in zip(sequences, segments) for start, end in ranges]
    values, converged = cfg.distance.scan(subs, [s.sequence for s in db.snippets])
    solved = ~np.isposinf(values)
    solver = dict(pairs=values.size, solved=int(solved.sum()), nonconverged=int((solved & ~converged).sum()))
    rows = zip(values, converged)
    demos = []
    for source_id, ranges in zip(source_ids, segments):
        records = [_segment_record(b, i, *next(rows), db) for i, b in enumerate(ranges)]
        composed = EmbeddingSequence(
            np.vstack([db.snippets[r.snippet_index].sequence.frames for r in records])
        )
        demos.append(ImaginedDemo(source_id=source_id, segments=tuple(records), composed=composed))
    return demos, solver


def imagine_demo(
    z: EmbeddingSequence,
    db: SnippetDatabase,
    cfg: RetrievalConfig,
    source_id: str | None = None,
) -> ImaginedDemo:
    """Retrieve the closest snippet per segment and concatenate the results."""
    return _imagine_demos([z], [source_id], db, cfg)[0][0]


def build_paired_dataset(
    robot_db: SnippetDatabase,
    db: SnippetDatabase,
    cfg: RetrievalConfig,
    extra_provenance: dict | None = None,
) -> PairedDataset:
    """One imagined demo per robot trajectory, from one ``scan`` of every trajectory's segments.

    Each entry keeps both the robot embeddings and the imagined demo so
    downstream consumers can condition on either side of the pairing.
    Provenance hashes both databases as given, so the robot hash is the
    one ``gen`` and ``eval`` record for the same dataset. Both are hashed
    before the scan decodes their frames, so a read dataset is hashed from
    its own float32 bytes.
    """
    if not robot_db.snippets:
        raise RetrievalError("robot set is empty")
    provenance = {
        "retrieval": cfg.describe(),
        "robot_hash": dataset_content_hash(robot_db),
        "play_hash": dataset_content_hash(db),
    }
    robots = robot_db.snippets
    demos, solver = _imagine_demos([ls.sequence for ls in robots], [ls.seq_id for ls in robots], db, cfg)
    entries = [PairedEntry(robot=ls, demo=demo) for ls, demo in zip(robots, demos)]
    if extra_provenance:
        provenance.update(extra_provenance)
    return PairedDataset(entries=tuple(entries), provenance=provenance, solver=solver)
