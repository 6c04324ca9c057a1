"""Scalar evaluators for the alignment losses.

These are evaluation-only (no gradients): they let the synthetic
benchmarks confirm that aligned pairings score better than shuffled
ones. The contrastive losses implement the softmax-ratio form literally
(a sum of ratios, no log); pass ``log_form=True`` for the conventional
log variant. Reports should state which form produced a number.

Frame similarities use `ot.cosine_similarity`, the rule behind the
transport costs. Each loss is a few numpy reductions over its whole
matrix (log-sum-exps by ``np.logaddexp.reduce``), with no loop over
frames or rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import EmbeddingSequence, check_bool, check_finite, check_int
from .ot import COSINE, SinkhornConfig, cosine_similarity, frame_matrix, sinkhorn_scan


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
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {S.shape}")
    if S.shape[0] < 2:
        raise ValueError("need at least 2 frames")
    if not np.isfinite(S).all():
        raise ValueError("similarities contain NaN or Inf")
    idx = np.arange(S.shape[0])
    gap = np.abs(idx[:, None] - idx)
    logits = S / cfg.temperature
    # log of each anchor's negative sum; -inf for an anchor with none
    lse_neg = np.logaddexp.reduce(
        np.where(gap > cfg.window, logits, -np.inf), axis=1, keepdims=True
    )
    # x = log(negative sum / exp(positive logit)), one per positive cell
    x = (lse_neg - logits)[(gap > 0) & (gap <= cfg.window)]
    if cfg.log_form:
        return float(np.logaddexp(0.0, x).sum())
    with np.errstate(over="ignore"):  # exp(x) = inf gives the ratio's limit 0
        return float((-1.0 / (1.0 + np.exp(x))).sum())


def time_contrastive_loss(
    z: EmbeddingSequence | np.ndarray, cfg: TimeContrastiveConfig | None = None
) -> float:
    """Time-contrastive loss of one embedding sequence (cosine similarity)."""
    cfg = cfg or TimeContrastiveConfig()
    frames = frame_matrix(z)
    if frames.shape[0] < 2:
        raise ValueError("need a T x d sequence with T >= 2")
    return time_contrastive_loss_from_similarity(cosine_similarity(frames, frames), cfg)


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
    if D.ndim != 2 or D.shape[0] != D.shape[1] or D.shape[0] < 2:
        raise ValueError(f"need a square distance matrix with N >= 2, got {D.shape}")
    if not np.isfinite(D).all():
        raise ValueError("distances contain NaN or Inf")
    shifted = np.diag(D)[:, None] - D
    if log_form:
        return float(np.logaddexp.reduce(shifted, axis=1).sum())
    with np.errstate(over="ignore"):  # a sum of inf gives the ratio's limit 0
        return float((-1.0 / np.exp(shifted).sum(axis=1)).sum())


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
    if not np.isfinite(Q).all():
        raise ValueError("codes contain NaN or Inf")
    if Q.min() < -1e-12:
        raise ValueError("code rows must be non-negative")
    if np.abs(Q.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError("code rows must each sum to 1")
    check_finite("temperature", temperature, gt=0)
    logits = S / temperature
    logp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
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
