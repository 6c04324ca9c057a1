"""Scalar evaluators for the alignment losses.

These are evaluation-only (no gradients): they let the synthetic
benchmarks confirm that aligned pairings score better than shuffled
ones. The contrastive losses implement the softmax-ratio form literally
(a sum of ratios, no log); pass ``log_form=True`` for the conventional
log variant. Reports should state which form produced a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import EmbeddingSequence, check_bool, check_finite, check_int
from .ot import COSINE, SinkhornConfig, frame_matrix, sinkhorn_scan


@dataclass(frozen=True)
class LossWeights:
    """Weights for the combined loss; the task term defaults to off."""

    lambda_vis: float = 1.0
    lambda_temp: float = 1.0
    lambda_task: float = 0.0

    def __post_init__(self):
        for name in ("lambda_vis", "lambda_temp", "lambda_task"):
            check_finite(name, getattr(self, name), ge=0)


@dataclass(frozen=True)
class TimeContrastiveConfig:
    window: int = 1
    temperature: float = 0.1
    log_form: bool = False

    def __post_init__(self):
        check_int("window", self.window, 1)
        check_finite("temperature", self.temperature, gt=0)
        check_bool("log_form", self.log_form)


def _softplus(x: float) -> float:
    if x > 30.0:
        return x
    return float(np.log1p(np.exp(x)))


def _cosine_similarity_matrix(frames: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(frames, axis=1)
    if (norms == 0.0).any():
        raise ValueError("zero-norm frame: cosine similarity undefined")
    return (frames @ frames.T) / np.outer(norms, norms)


def time_contrastive_loss_from_similarity(
    sims: np.ndarray, cfg: TimeContrastiveConfig
) -> float:
    """Time-contrastive loss over a precomputed T x T similarity matrix.

    For each anchor t, positives are frames within the window (excluding
    t itself) and negatives are frames outside it. Each positive
    contributes the ratio ``exp(s+/tau) / (exp(s+/tau) + sum_neg
    exp(s-/tau))``; anchors with no positive are skipped. An empty
    negative set makes each ratio exactly 1.
    """
    S = np.asarray(sims, dtype=np.float64)
    T = S.shape[0]
    if S.shape != (T, T):
        raise ValueError(f"similarity matrix must be square, got {S.shape}")
    if T < 2:
        raise ValueError("need at least 2 frames")
    idx = np.arange(T)
    total = 0.0
    for t in range(T):
        gap = np.abs(idx - t)
        pos = idx[(gap <= cfg.window) & (gap > 0)]
        neg = idx[gap > cfg.window]
        if pos.size == 0:
            continue
        logits = S[t] / cfg.temperature
        for p in pos:
            if neg.size == 0:
                total += 0.0 if cfg.log_form else -1.0
                continue
            if cfg.log_form:
                m = logits[neg].max()
                lse_neg = m + np.log(np.exp(logits[neg] - m).sum())
                total += _softplus(float(lse_neg - logits[p]))
            else:
                total += -1.0 / (1.0 + np.exp(logits[neg] - logits[p]).sum())
    return float(total)


def time_contrastive_loss(
    z: EmbeddingSequence | np.ndarray, cfg: TimeContrastiveConfig | None = None
) -> float:
    """Time-contrastive loss of one embedding sequence (cosine similarity)."""
    cfg = cfg or TimeContrastiveConfig()
    frames = frame_matrix(z)
    if frames.shape[0] < 2:
        raise ValueError("need a T x d sequence with T >= 2")
    return time_contrastive_loss_from_similarity(_cosine_similarity_matrix(frames), cfg)


def task_alignment_loss_from_distances(
    distances: np.ndarray, log_form: bool = False
) -> float:
    """Contrastive task loss over a precomputed N x N distance matrix.

    Row i holds distances from robot clip i to every demo clip; the
    diagonal pairs are the matches. The ratio for row i is computed as
    ``1 / sum_j exp(d_ii - d_ij)``, which equals the printed softmax form
    and returns exactly 1/N when a row is constant.
    """
    D = np.asarray(distances, dtype=np.float64)
    n = D.shape[0]
    if D.shape != (n, n) or n < 2:
        raise ValueError(f"need a square distance matrix with N >= 2, got {D.shape}")
    if not np.isfinite(D).all():
        raise ValueError("distances contain NaN or Inf")
    total = 0.0
    for i in range(n):
        shifted = D[i, i] - D[i]
        if log_form:
            m = shifted.max()
            total += float(m + np.log(np.exp(shifted - m).sum()))
        else:
            total += -1.0 / float(np.exp(shifted).sum())
    return float(total)


def task_alignment_loss(
    robot_clips: Sequence[EmbeddingSequence | np.ndarray],
    demo_clips: Sequence[EmbeddingSequence | np.ndarray],
    ot_cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
    log_form: bool = False,
) -> float:
    """Contrastive loss over transport distances of index-paired clip lists.

    Clips at equal indices are the matched pairs; all cross pairings act
    as negatives. The result lies in (-N, 0) for the default ratio form.
    """
    if len(robot_clips) != len(demo_clips):
        raise ValueError(
            f"clip lists must pair by index: {len(robot_clips)} vs {len(demo_clips)}"
        )
    n = len(robot_clips)
    if n < 2:
        raise ValueError("need at least 2 clip pairs")
    D = sinkhorn_scan(robot_clips, demo_clips, ot_cfg, metric).costs
    return task_alignment_loss_from_distances(D, log_form=log_form)


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_code_rows(codes: np.ndarray) -> None:
    if codes.min() < -1e-12:
        raise ValueError("code rows must be non-negative")
    sums = codes.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError("code rows must each sum to 1")


def swav_assignment_loss(
    scores: np.ndarray, codes: np.ndarray, temperature: float = 1.0
) -> float:
    """Mean cross-entropy between code rows and softmaxed score rows.

    ``codes`` rows must be probability distributions (rescale Sinkhorn
    codes by B first). By Gibbs' inequality the value is bounded below by
    the mean code entropy, with equality iff softmax(scores) == codes.
    """
    S = np.asarray(scores, dtype=np.float64)
    Q = np.asarray(codes, dtype=np.float64)
    if S.shape != Q.shape or S.ndim != 2:
        raise ValueError(f"scores {S.shape} and codes {Q.shape} must be equal 2-D shapes")
    if not np.isfinite(S).all():
        raise ValueError("scores contain NaN or Inf")
    _check_code_rows(Q)
    check_finite("temperature", temperature, gt=0)
    logp = _log_softmax_rows(S / temperature)
    return float(np.mean(-(Q * logp).sum(axis=1)))


def swav_two_view_loss(
    scores_a: np.ndarray,
    scores_b: np.ndarray,
    codes_a: np.ndarray,
    codes_b: np.ndarray,
    temperature: float = 1.0,
) -> float:
    """Crossed two-view assignment loss: each view predicts the other's codes."""
    return swav_assignment_loss(scores_a, codes_b, temperature) + swav_assignment_loss(
        scores_b, codes_a, temperature
    )


Component = float | Callable[[], float]


def _evaluate_component(name: str, component: Component) -> float:
    value = float(component()) if callable(component) else float(component)
    if not np.isfinite(value):
        raise ValueError(f"{name} loss component is not finite: {value}")
    return value


def combined_loss(
    vis: Component,
    temp: Component,
    task: Component = 0.0,
    weights: LossWeights | None = None,
) -> float:
    """Weighted sum of the three alignment losses.

    Components may be plain numbers or zero-argument callables; a
    component whose weight is exactly 0 is never evaluated, so the task
    term costs nothing in the default configuration.
    """
    weights = weights or LossWeights()
    total = 0.0
    for name, w, component in (
        ("vis", weights.lambda_vis, vis),
        ("temp", weights.lambda_temp, temp),
        ("task", weights.lambda_task, task),
    ):
        if w != 0.0:
            total += w * _evaluate_component(name, component)
    return total
