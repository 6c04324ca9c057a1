"""Seeded generators for synthetic cross-embodiment embedding benchmarks.

Tasks are represented by mutually orthonormal anchor directions so that
cosine costs between clean frames have closed forms (0 for same task, 1
across tasks, 1 - 1/sqrt(2) against a merged two-task frame). Robot
trajectories visit a few tasks sequentially; the demonstrator snippet
bank re-renders tasks with a fixed embodiment offset and, depending on
the mismatch level, per-task speed resampling, a fixed style rotation,
and merged two-task clips:

- easy:   offset + noise only
- medium: easy + per-task speed factors (snippet length round(L*speed))
          and a fixed rotation of the demonstrator's embedding space
- hard:   medium + merged clips for designated task pairs, whose frames
          sit on the normalized sum of both anchors and carry both labels

Every frame is unit-normalized and cast to float32, and each sequence
keeps its float32 bytes (decoding float64 frames on first use), so
datasets are written and hashed from those bytes and all generation is a
pure function of (config, seed). ``gen_benchmark`` returns both sides as
``SnippetDatabase``s that declare the same task table, the one ``gen``
writes to disk.

``gen_benchmark`` draws each robot trajectory's task sequence and then its
noise block, trajectory by trajectory, into one array per chunk of
trajectories (at most ``_CHUNK_FRAMES`` frames), and turns the chunk into
frames at once: noise scaled and anchors added in place, one norm, one
cast and one finiteness check. A chunk's bytes are those of generating its
trajectories one at a time, which is what ``gen_robot_trajectory`` does,
so the chunk size changes no output byte and only bounds the float64
working memory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .data import (
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    SnippetDatabase,
    check_finite,
    check_int,
    is_finite_real,
)

_ROBOT_STREAM = 1
_DEMO_STREAM = 2
# Frames that ``gen_benchmark`` generates as one float64 array: the bound on
# its working memory beyond the float32 bytes that the sequences keep.
_CHUNK_FRAMES = 4096


class MismatchLevel(str, Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


@dataclass(frozen=True)
class GenConfig:
    """Desk-scale defaults: small enough for exhaustive retrieval checks in CI."""

    n_tasks: int = 7
    dim: int = 32
    frames_per_task: int = 8
    n_trajectories: int = 20
    tasks_per_trajectory: int = 4
    snippets_per_task: int = 5
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("n_tasks", "dim", "frames_per_task", "n_trajectories", "tasks_per_trajectory",
                     "snippets_per_task"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        check_finite("noise_sigma", self.noise_sigma, ge=0)
        if self.tasks_per_trajectory > self.n_tasks:
            raise ValueError("tasks_per_trajectory cannot exceed n_tasks")


@dataclass(frozen=True)
class MismatchSpec:
    """Parameters of the demonstrator-side execution-mismatch transforms."""

    level: MismatchLevel
    offset_magnitude: float = 0.15
    speed_factors: tuple[float, ...] = (0.5, 2.0)
    rotation_angle_deg: float = 15.0
    merge_pairs: tuple[tuple[int, int], ...] = ()
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "level", MismatchLevel(self.level))
        object.__setattr__(self, "merge_pairs", tuple(tuple(p) for p in self.merge_pairs))
        object.__setattr__(self, "speed_factors", tuple(self.speed_factors))
        check_finite("noise_sigma", self.noise_sigma, ge=0)
        check_finite("offset_magnitude", self.offset_magnitude)
        check_finite("rotation_angle_deg", self.rotation_angle_deg)
        check_int("seed", self.seed, 0)
        if not self.speed_factors or not all(is_finite_real(s) and s > 0 for s in self.speed_factors):
            raise ValueError(f"speed factors must be finite and positive, got {self.speed_factors}")
        for pair in self.merge_pairs:
            for t in pair:
                check_int("merge pair task id", t, 0)
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(f"bad merge pair {pair}")

    @classmethod
    def for_level(
        cls, level: MismatchLevel | str, n_tasks: int, seed: int = 0, **overrides
    ) -> "MismatchSpec":
        """Default ladder rung: hard merges consecutive task-id pairs (0,1), (2,3), ..."""
        level = MismatchLevel(level)
        merge_pairs: tuple[tuple[int, int], ...] = ()
        if level is MismatchLevel.HARD:
            merge_pairs = tuple((t, t + 1) for t in range(0, n_tasks - 1, 2))
        return cls(level=level, merge_pairs=merge_pairs, seed=seed, **overrides)

    def speed_for(self, task: int) -> float:
        if self.level is MismatchLevel.EASY:
            return 1.0
        return self.speed_factors[task % len(self.speed_factors)]

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["level"] = self.level.value
        doc["speed_factors"] = list(self.speed_factors)
        doc["merge_pairs"] = [list(p) for p in self.merge_pairs]
        return doc


@dataclass(frozen=True, eq=False)
class TaskAnchors:
    """Mutually orthonormal unit vectors, one per task."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vectors, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ValueError(f"anchors must be 2-D, got shape {arr.shape}")
        gram = arr @ arr.T
        if np.abs(gram - np.eye(arr.shape[0])).max() > 1e-9:
            raise ValueError("anchor vectors must be orthonormal within 1e-9")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def n_tasks(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def gen_anchors(cfg: GenConfig) -> TaskAnchors:
    """Orthonormal task anchors via Gram-Schmidt over seeded Gaussian draws."""
    if cfg.dim < cfg.n_tasks:
        raise ValueError(
            f"need dim >= n_tasks for orthonormal anchors, got {cfg.dim} < {cfg.n_tasks}"
        )
    rng = np.random.default_rng(cfg.seed)
    raw = rng.standard_normal((cfg.n_tasks, cfg.dim))
    basis = np.zeros_like(raw)
    for i in range(cfg.n_tasks):
        v = raw[i]
        for _ in range(2):  # re-orthogonalize for numerical tightness
            v = v - (basis[:i] @ v) @ basis[:i]
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            raise ValueError("degenerate Gaussian draw during Gram-Schmidt")
        basis[i] = v / norm
    return TaskAnchors(basis)


def _unit_rows(frames: np.ndarray) -> np.ndarray:
    """``frames`` with every row divided by its norm, in place."""
    norms = np.linalg.norm(frames, axis=1, keepdims=True)
    if (norms == 0.0).any():
        raise ValueError("degenerate zero-norm frame during generation")
    frames /= norms
    return frames


def _rotation_plane(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    return u, v


def _rotate(frames: np.ndarray, u: np.ndarray, v: np.ndarray, angle_deg: float) -> np.ndarray:
    theta = math.radians(angle_deg)
    cu = frames @ u
    cv = frames @ v
    return (
        frames
        + (math.cos(theta) - 1.0) * (np.outer(cu, u) + np.outer(cv, v))
        + math.sin(theta) * (np.outer(cu, v) - np.outer(cv, u))
    )


def _f32_frames(frames: np.ndarray) -> np.ndarray:
    """``frames`` cast once to little-endian float32, checked finite as
    ``EmbeddingSequence`` checks them."""
    f32 = frames.astype("<f4")
    if not np.isfinite(f32).all():
        raise ValueError("frames contain NaN or Inf")
    return f32


def _robot_trajectories(
    trajectories, anchors: TaskAnchors, cfg: GenConfig, rng: np.random.Generator
) -> list[LabeledSequence]:
    """Robot trajectories from ``(seq_id, task_seq)`` pairs, generated a chunk at a time.

    ``trajectories`` may be lazy: each trajectory's noise block is drawn
    from ``rng`` as soon as its pair is taken and its task ids checked, so
    the draws are those of a loop that makes one trajectory at a time. A
    block is drawn with ``standard_normal`` straight into the chunk's array
    and scaled with the rest of the chunk: the values ``rng.normal(0.0,
    noise_sigma)`` would return, since it computes ``0.0 + noise_sigma * z``
    from the same ``z``. A chunk holds at most ``_CHUNK_FRAMES`` frames (or
    one longer trajectory) and is turned into sequences by ``_robot_chunk``.
    Equal task sequences share one labels tuple.
    """
    frame_labels = [FrameLabel((t,)) for t in range(anchors.n_tasks)]
    labels_of: dict[tuple[int, ...], tuple[FrameLabel, ...]] = {}
    robot_set, chunk, n_frames = [], [], 0
    noise = np.empty((0, anchors.dim))
    for seq_id, task_seq in trajectories:
        task_seq = tuple(task_seq)
        if not task_seq:
            raise ValueError("empty task sequence: a robot trajectory needs at least one task")
        for t in task_seq:
            check_int("task id", t, 0)
            if t >= anchors.n_tasks:
                raise ValueError(f"invalid task id {t} (n_tasks={anchors.n_tasks})")
        labels = labels_of.get(task_seq)
        if labels is None:
            runs = ([frame_labels[t]] * cfg.frames_per_task for t in task_seq)
            labels = labels_of[task_seq] = tuple(chain.from_iterable(runs))
        end = n_frames + len(labels)
        if end > len(noise):
            if chunk:
                robot_set += _robot_chunk(chunk, noise[:n_frames], anchors, cfg)
            chunk, n_frames, end = [], 0, len(labels)
            if end > len(noise):
                noise = np.empty((max(end, _CHUNK_FRAMES), anchors.dim))
        rng.standard_normal(out=noise[n_frames:end])
        chunk.append((seq_id, task_seq, labels))
        n_frames = end
    return robot_set + _robot_chunk(chunk, noise[:n_frames], anchors, cfg)


def _robot_chunk(
    chunk: list, frames: np.ndarray, anchors: TaskAnchors, cfg: GenConfig
) -> list[LabeledSequence]:
    """The sequences of ``(seq_id, task_seq, labels)`` triples over their
    standard-normal draws ``frames``: every frame scaled, moved to its anchor,
    normalized, cast to float32 and checked in one pass over the chunk, all
    in place but the cast, and each sequence built from its own float32 bytes."""
    frames *= cfg.noise_sigma
    frames += anchors.vectors[np.repeat([t for _, task_seq, _ in chunk for t in task_seq], cfg.frames_per_task)]
    f32 = _f32_frames(_unit_rows(frames))
    robot_set, start = [], 0
    for seq_id, task_seq, labels in chunk:
        end = start + len(labels)
        robot_set.append(
            LabeledSequence(
                seq_id=seq_id,
                sequence=EmbeddingSequence._from_f32(f32[start:end].tobytes(), (len(labels), anchors.dim)),
                labels=labels,
                embodiment=Embodiment.ROBOT,
                seed_record={"tasks": list(task_seq)},
            )
        )
        start = end
    return robot_set


def gen_robot_trajectory(
    task_seq,
    anchors: TaskAnchors,
    cfg: GenConfig,
    rng: np.random.Generator,
    seq_id: str = "robot-000",
) -> LabeledSequence:
    """One long-horizon robot trajectory: unit frames near each task anchor in turn."""
    return _robot_trajectories([(seq_id, task_seq)], anchors, cfg, rng)[0]


def _snippet_length(base: int, speed: float) -> int:
    return max(1, round(base * speed))


def gen_demo_snippets(
    anchors: TaskAnchors,
    spec: MismatchSpec,
    cfg: GenConfig,
) -> SnippetDatabase:
    """The demonstrator play bank for one mismatch-ladder rung.

    Single-task snippets cover every task at every level; hard adds
    merged two-task clips for the designated pairs. The style rotation is
    applied after unit normalization, so it preserves frame norms.
    """
    for pair in spec.merge_pairs:
        if max(pair) >= anchors.n_tasks:
            raise ValueError(f"merge pair {pair} references invalid tasks")
    rng = np.random.default_rng([spec.seed, _DEMO_STREAM])
    offset_dir = rng.standard_normal(anchors.dim)
    offset_dir /= np.linalg.norm(offset_dir)
    offset = spec.offset_magnitude * offset_dir
    u, v = _rotation_plane(rng, anchors.dim)
    styled = spec.level is not MismatchLevel.EASY

    def render(center: np.ndarray, length: int) -> EmbeddingSequence:
        noise = rng.normal(0.0, spec.noise_sigma, size=(length, anchors.dim))
        frames = _unit_rows(center + offset + noise)
        if styled:
            frames = _rotate(frames, u, v, spec.rotation_angle_deg)
        return EmbeddingSequence._from_f32(_f32_frames(frames).tobytes(), frames.shape)

    # Clip kinds: (tasks, center, speed, id stem, seed record). Single-task
    # kinds come first, so the clips draw their noise in that order.
    kinds = [((t,), anchors.vectors[t], spec.speed_for(t), f"t{t:02d}", {"task": t}) for t in range(anchors.n_tasks)]
    for ta, tb in spec.merge_pairs:
        merged = anchors.vectors[ta] + anchors.vectors[tb]
        speed = 0.5 * (spec.speed_for(ta) + spec.speed_for(tb))
        kinds.append(((ta, tb), merged / np.linalg.norm(merged), speed, f"m{ta:02d}-{tb:02d}", {"tasks": [ta, tb]}))
    snippets: list[LabeledSequence] = []
    for tasks, center, speed, stem, record in kinds:
        length = _snippet_length(cfg.frames_per_task, speed)
        labels = (FrameLabel(tasks),) * length
        for s in range(cfg.snippets_per_task):
            snippets.append(
                LabeledSequence(
                    seq_id=f"demo-{stem}-s{s:02d}",
                    sequence=render(center, length),
                    labels=labels,
                    embodiment=Embodiment.DEMONSTRATOR,
                    seed_record={**record, "index": s},
                )
            )
    return SnippetDatabase(
        tuple(snippets),
        task_names={t: f"task-{t}" for t in range(anchors.n_tasks)},
        provenance={"generator": asdict(cfg), "mismatch": spec.to_json_dict()},
    )


def _sample_task_sequence(
    rng: np.random.Generator, cfg: GenConfig, spec: MismatchSpec
) -> tuple[int, ...]:
    # On hard, a trajectory never contains both members of a merge pair:
    # merged demo clips act as distractors whose pair partner is off-task.
    partner = {}
    for a, b in spec.merge_pairs:
        partner[a] = b
        partner[b] = a
    perm = rng.permutation(cfg.n_tasks)
    chosen: list[int] = []
    for t in perm:
        t = int(t)
        if partner.get(t) in chosen:
            continue
        chosen.append(t)
        if len(chosen) == cfg.tasks_per_trajectory:
            return tuple(chosen)
    # Disjoint merge pairs (as ``for_level`` makes them) leave every permutation
    # exactly n_tasks - len(merge_pairs) tasks, so a budget too large fails at once.
    raise ValueError(
        f"tasks_per_trajectory={cfg.tasks_per_trajectory} exceeds {cfg.n_tasks - len(spec.merge_pairs)} "
        "(one task per merge pair plus unmerged tasks)"
    )


def gen_benchmark(
    level: MismatchLevel | str, cfg: GenConfig | None = None
) -> tuple[SnippetDatabase, SnippetDatabase]:
    """Full seeded benchmark: ``(robot_db, play_db)``.

    Both databases declare every task and carry the bank's provenance,
    whether or not the robot trajectories visit every task. Reproducible
    from (level, cfg.seed) alone; the robot and demonstrator sides draw
    from independent derived streams so either can be regenerated on its
    own.
    """
    cfg = cfg or GenConfig()
    level = MismatchLevel(level)
    anchors = gen_anchors(cfg)
    spec = MismatchSpec.for_level(level, cfg.n_tasks, seed=cfg.seed, noise_sigma=cfg.noise_sigma)
    robot_rng = np.random.default_rng([cfg.seed, _ROBOT_STREAM])
    trajectories = (
        (f"robot-{i:03d}", _sample_task_sequence(robot_rng, cfg, spec)) for i in range(cfg.n_trajectories)
    )
    robot_set = _robot_trajectories(trajectories, anchors, cfg, robot_rng)
    play_db = gen_demo_snippets(anchors, spec, cfg)
    return SnippetDatabase(tuple(robot_set), play_db.task_names, play_db.provenance), play_db
