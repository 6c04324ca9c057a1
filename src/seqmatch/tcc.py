"""Temporal cycle-consistency distance between embedding sequences.

Each query frame finds a soft nearest neighbor in the other sequence
(softmax over negative squared distances), that neighbor cycles back to
a soft nearest neighbor among the query sequence's frames, and the frame
loss is the squared L2 gap between the query frame and its cycled-back
reconstruction (the full difference-vector norm, not divided by the
dimension; an unsquared variant is selectable via ``squared=False``).

The sequence distance sums frame losses over the first argument's frames
and is therefore asymmetric; ``tcc_distance_symmetric`` averages both
directions. ``tcc_scan`` gives either one, exactly, for every query
against every snippet of a bank, as a Q x N array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import EmbeddingSequence, check_bool, check_finite
from .ot import frame_matrix, pair_stacks, pairwise_sq_dists, scan_frames


@dataclass(frozen=True)
class TccConfig:
    temperature: float = 0.1
    squared: bool = True

    def __post_init__(self):
        check_finite("temperature", self.temperature, gt=0)
        check_bool("squared", self.squared)


@dataclass(frozen=True, eq=False)
class CycleTrace:
    """Both softmax hops for one query frame, for inspection and tests."""

    frame_index: int
    alpha: np.ndarray
    soft_neighbor: np.ndarray
    beta: np.ndarray
    cycled_back: np.ndarray
    loss: float


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def soft_nearest_neighbor(
    query: np.ndarray,
    keys: EmbeddingSequence | np.ndarray,
    cfg: TccConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax attention of one vector over a sequence's frames.

    Returns ``(weights, vector)`` with ``weights[j] proportional to
    exp(-|query - key_j|^2 / temperature)`` and ``vector = weights @ keys``.
    """
    cfg = cfg or TccConfig()
    q = np.asarray(query, dtype=np.float64)
    K = frame_matrix(keys)
    if q.ndim != 1 or q.shape[0] != K.shape[1]:
        raise ValueError(f"dimension mismatch: query {q.shape} vs keys {K.shape}")
    sq = pairwise_sq_dists(q[None, :], K)[0]
    weights = _softmax_rows(-sq / cfg.temperature)
    return weights, weights @ K


def _cycle(A: np.ndarray, B: np.ndarray, cfg: TccConfig):
    """Both hops for every frame of ``A``: alpha, neighbors, beta, cycled, frame losses.
    Either side may be a stack (k x T x d); each pair gets exactly its values alone."""
    if A.shape[-1] != B.shape[-1]:
        raise ValueError(f"dimension mismatch: {A.shape[-1]} vs {B.shape[-1]}")
    alpha = _softmax_rows(-pairwise_sq_dists(A, B) / cfg.temperature)
    neighbors = alpha @ B
    beta = _softmax_rows(-pairwise_sq_dists(neighbors, A) / cfg.temperature)
    cycled = beta @ A
    sq = ((A - cycled) ** 2).sum(axis=-1)
    return alpha, neighbors, beta, cycled, sq if cfg.squared else np.sqrt(sq)


def tcc_frame_loss(
    t: int,
    a: EmbeddingSequence | np.ndarray,
    b: EmbeddingSequence | np.ndarray,
    cfg: TccConfig | None = None,
) -> tuple[float, CycleTrace]:
    """Cycle loss for frame ``t`` of ``a`` through ``b`` and back."""
    A = frame_matrix(a)
    alpha, neighbors, beta, cycled, losses = _cycle(A, frame_matrix(b), cfg or TccConfig())
    if not 0 <= t < A.shape[0]:
        raise IndexError(f"frame index {t} out of range for T={A.shape[0]}")
    loss = float(losses[t])
    return loss, CycleTrace(t, alpha[t], neighbors[t], beta[t], cycled[t], loss)


def tcc_distance(
    a: EmbeddingSequence | np.ndarray,
    b: EmbeddingSequence | np.ndarray,
    cfg: TccConfig | None = None,
) -> float:
    """Sum of cycle losses over all frames of ``a`` (asymmetric in a, b)."""
    return float(_cycle(frame_matrix(a), frame_matrix(b), cfg or TccConfig())[4].sum())


def tcc_distance_symmetric(
    a: EmbeddingSequence | np.ndarray,
    b: EmbeddingSequence | np.ndarray,
    cfg: TccConfig | None = None,
) -> float:
    """Average of both directed distances; an extension beyond the base method."""
    return 0.5 * (tcc_distance(a, b, cfg) + tcc_distance(b, a, cfg))


def tcc_scan(
    queries: Sequence[EmbeddingSequence | np.ndarray],
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: TccConfig | None = None,
    symmetric: bool = False,
) -> np.ndarray:
    """Entry (i, j) is ``tcc_distance(queries[i], bank[j], cfg)`` bit for bit, or
    ``tcc_distance_symmetric`` when ``symmetric``. Each stack holds one query:
    stacking queries, as transport does, measured slower here."""
    cfg = cfg or TccConfig()
    As, frames = scan_frames(queries, bank)
    out = np.empty((len(As), len(frames)))
    row = np.ones((1, len(frames)), bool)
    for i, query in enumerate(As):
        for _, cols, A, stack in pair_stacks([query], frames, row):
            d = _cycle(A, stack, cfg)[4].sum(axis=-1)
            if symmetric:
                d = 0.5 * (d + _cycle(stack, A, cfg)[4].sum(axis=-1))
            out[i, cols] = d
    return out
