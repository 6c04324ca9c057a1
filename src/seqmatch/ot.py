"""Entropic optimal-transport distances between embedding sequences.

Frames of the two sequences carry uniform mass (1/T and 1/T'); the frame
cost is cosine distance by default. The Sinkhorn solver is fully
deterministic and reports non-convergence through a flag on the returned
plan instead of raising: retrieval can still rank with a near-feasible
plan, and callers that need hard guarantees check the flag.

There is one solver, the stabilised log-domain scaling of Schmitzer
(SIAM J. Sci. Comput. 2019), and it works on a stack of equal-shape
cost matrices (batched as in Feydy et al., AISTATS 2019). ``sinkhorn``
and ``swav_code_plan`` run it on a stack of one; ``sinkhorn_scan``
runs it over a whole snippet bank, in the length buckets of ``bank_batches``,
and gives every pair exactly the cost, iteration count and convergence
flag that ``sinkhorn(cost_matrix(...))`` gives it alone.

The reported sequence distance is the raw plan cost ``sum(C * M)``; the
plan moves unit total mass by construction, so no extra length
normalization is applied (none is implied for rectangular instances).

``exact_ot_small`` solves the unregularized problem exactly on tiny
instances by enumerating basic feasible solutions of the transportation
polytope; it exists as an independent oracle for tests and is not used
on the retrieval path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .data import EmbeddingSequence

COSINE = "cosine"
SQEUCLIDEAN = "squared_euclidean"
_METRICS = (COSINE, SQEUCLIDEAN)

_EXACT_MAX_CELLS = 16
# Cost cells (pairs x m x n) in one batch of a bank scan. Larger batches
# amortize numpy's per-call overhead better, but every batch temporary
# grows with them, and peak memory with those: uncapped, a 500-snippet
# bank raised peak RSS by about 6 MiB over the per-pair loop; capped at
# 4096 cells, by about 1 MiB.
_SCAN_BATCH_CELLS = 4096


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver knobs. ``epsilon`` is the entropic regularization strength."""

    epsilon: float = 0.05
    max_iters: int = 1000
    tol_marginal: float = 1e-6

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol_marginal > 0:
            raise ValueError(f"tol_marginal must be > 0, got {self.tol_marginal}")


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """A T x T' matrix of pairwise frame costs plus its metric tag."""

    entries: np.ndarray
    metric: str

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"cost matrix must be 2-D and non-empty, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("cost matrix contains NaN or Inf")
        if self.metric not in _METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.metric == COSINE and (arr.min() < 0.0 or arr.max() > 2.0):
            raise ValueError("cosine costs must lie in [0, 2]")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling with uniform marginals, its cost, and convergence info.

    ``potentials`` holds the log-domain dual variables (f, g) the plan
    was built from; they can warm-start another solve.
    """

    coupling: np.ndarray
    cost: float
    iterations_used: int
    converged: bool
    potentials: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        arr = np.array(self.coupling, dtype=np.float64, order="C", copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "coupling", arr)

    def marginal_error(self) -> float:
        """Max deviation of the stored coupling from uniform marginals."""
        m, n = self.coupling.shape
        row_err = np.abs(self.coupling.sum(axis=1) - 1.0 / m).max()
        col_err = np.abs(self.coupling.sum(axis=0) - 1.0 / n).max()
        return float(max(row_err, col_err))

    def recompute_cost(self, cost: "CostMatrix | np.ndarray") -> float:
        entries = cost.entries if isinstance(cost, CostMatrix) else np.asarray(cost)
        return float(np.sum(entries * self.coupling))


def frame_matrix(x: EmbeddingSequence | np.ndarray) -> np.ndarray:
    """The T x d float64 frame matrix of a sequence or array-like."""
    if isinstance(x, EmbeddingSequence):
        return x.frames
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a T x d matrix, got shape {arr.shape}")
    return arr


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between the rows of ``a`` and of ``b``.

    Either side is one matrix or a stack (k x m x d, k x n x d); a stack gives
    one m x n block per matrix, each computed exactly as for that matrix alone.
    """
    sq = (
        (a * a).sum(axis=-1)[..., :, None]
        + (b * b).sum(axis=-1)[..., None, :]
        - 2.0 * (a @ b.swapaxes(-1, -2))
    )
    return np.clip(sq, 0.0, None)


def _costs(A: np.ndarray, B: np.ndarray, metric: str) -> np.ndarray:
    """Frame costs of A (m x d) against B (n x d), or against each of a stack B."""
    if metric == COSINE:
        na = np.linalg.norm(A, axis=1)
        nb = np.linalg.norm(B, axis=-1)
        if (na == 0.0).any() or (nb == 0.0).any():
            raise ValueError("zero-norm frame: cosine distance undefined")
        sim = (A @ B.swapaxes(-1, -2)) / (na[:, None] * nb[..., None, :])
        return np.clip(1.0 - sim, 0.0, 2.0)
    if metric == SQEUCLIDEAN:
        return pairwise_sq_dists(A, B)
    raise ValueError(f"unknown metric {metric!r}")


def cost_matrix(
    a: EmbeddingSequence | np.ndarray,
    b: EmbeddingSequence | np.ndarray,
    metric: str = COSINE,
) -> CostMatrix:
    """Pairwise frame costs between two sequences.

    Cosine entries are ``1 - <a_i, b_j> / (|a_i| |b_j|)``, clipped into
    [0, 2] against float round-off. Zero-norm frames are rejected rather
    than silently perturbed.
    """
    A, B = frame_matrix(a), frame_matrix(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    return CostMatrix(_costs(A, B, metric), metric)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(
        m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)), axis=axis
    )


def _log_sinkhorn(
    C: np.ndarray,
    cfg: SinkhornConfig,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Log-domain Sinkhorn on a stack of k cost matrices C (k x m x n).

    Each pair runs the same f/g/P/err iteration it would run alone and
    stops updating at its own first iterate within ``tol_marginal``, so
    its plan, potentials and iteration count do not depend on the rest
    of the stack. ``init`` holds stacked potentials (k x m, k x n).
    Returns (P, f, g, iterations, converged) stacked over the k pairs.
    """
    k, m, n = C.shape
    eps, tol = cfg.epsilon, cfg.tol_marginal
    a = np.full(m, 1.0 / m)
    b = np.full(n, 1.0 / n)
    loga, logb = np.log(a), np.log(b)
    if init is not None:
        f, g = np.array(init[0], dtype=np.float64), np.array(init[1], dtype=np.float64)
    else:
        f, g = np.zeros((k, m)), np.zeros((k, n))
    P_out = np.empty_like(C)
    f_out, g_out = np.empty((k, m)), np.empty((k, n))
    iters = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    live = np.arange(k)  # stack index of each pair still iterating
    for it in range(1, cfg.max_iters + 1):
        f = eps * (loga - _logsumexp((g[:, None, :] - C) / eps, axis=2))
        g = eps * (logb - _logsumexp((f[:, :, None] - C) / eps, axis=1))
        P = np.exp((f[:, :, None] + g[:, None, :] - C) / eps)
        row = np.abs(P.sum(axis=2) - a).max(axis=1)
        col = np.abs(P.sum(axis=1) - b).max(axis=1)
        done = np.where(col > row, col, row) <= tol
        stop = done if it < cfg.max_iters else np.ones_like(done)
        if not stop.any():
            continue
        idx = live[stop]
        P_out[idx], f_out[idx], g_out[idx] = P[stop], f[stop], g[stop]
        iters[idx] = it
        converged[idx] = done[stop]
        if stop.all():
            break
        keep = ~stop
        live, C, f, g = live[keep], C[keep], f[keep], g[keep]
    return P_out, f_out, g_out, iters, converged


def _solve_one(
    C: np.ndarray,
    cfg: SinkhornConfig,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> TransportPlan:
    """The plan of one m x n cost matrix: ``_log_sinkhorn`` on a stack of one."""
    if init is not None:
        init = (np.asarray(init[0])[None], np.asarray(init[1])[None])
    P, f, g, iters, converged = _log_sinkhorn(C[None], cfg, init)
    return TransportPlan(P[0], float(np.sum(C * P[0])), int(iters[0]), bool(converged[0]), (f[0], g[0]))


def sinkhorn(
    cost: CostMatrix | np.ndarray,
    cfg: SinkhornConfig | None = None,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> TransportPlan:
    """Entropy-regularized coupling under uniform marginals (1/T, 1/T').

    Never raises on slow convergence: the plan's ``converged`` flag is
    False when the marginal tolerance was not met within ``max_iters``.
    ``init`` warm-starts the log-domain potentials (useful when sweeping
    epsilon ladders).
    """
    cfg = cfg or SinkhornConfig()
    C = cost.entries if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=np.float64)
    if C.ndim != 2 or not np.isfinite(C).all():
        raise ValueError("cost must be a finite 2-D matrix")
    return _solve_one(C, cfg, init)


class ScanResult(NamedTuple):
    """Per-snippet solver outcome of one bank scan, in bank order."""

    costs: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def bank_batches(
    A: np.ndarray, bank: Sequence[EmbeddingSequence | np.ndarray]
) -> Iterator[tuple[list[int], np.ndarray]]:
    """(bank indices, k x n x d stack) batches of equal-length snippets for query ``A``.

    A batch spans at most ``_SCAN_BATCH_CELLS`` query x snippet cells (one
    pair at least), which bounds a scan's memory whatever the bank size.
    """
    frames = [frame_matrix(s) for s in bank]
    by_len: dict[int, list[int]] = {}
    for j, B in enumerate(frames):
        if B.shape[1] != A.shape[1]:
            raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
        by_len.setdefault(B.shape[0], []).append(j)
    m = A.shape[0]
    for n, members in by_len.items():
        per_batch = max(1, _SCAN_BATCH_CELLS // (m * n))
        for lo in range(0, len(members), per_batch):
            idx = members[lo : lo + per_batch]
            yield idx, np.stack([frames[j] for j in idx])


def sinkhorn_scan(
    query: EmbeddingSequence | np.ndarray,
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> ScanResult:
    """Transport cost of one sequence against every sequence of a bank.

    Entry j equals ``sinkhorn(cost_matrix(query, bank[j], metric), cfg)``
    bit for bit in cost, ``iterations_used`` and ``converged``; each batch
    of ``bank_batches`` is solved as one stack of cost matrices.
    """
    cfg = cfg or SinkhornConfig()
    A = frame_matrix(query)
    out = ScanResult(
        np.empty(len(bank)), np.empty(len(bank), dtype=np.int64), np.empty(len(bank), dtype=bool)
    )
    for idx, stack in bank_batches(A, bank):
        C = _costs(A, stack, metric)
        if not np.isfinite(C).all():
            raise ValueError("cost matrix contains NaN or Inf")
        P, _, _, iters, converged = _log_sinkhorn(C, cfg)
        out.costs[idx] = (C * P).reshape(len(idx), -1).sum(axis=1)
        out.iterations[idx] = iters
        out.converged[idx] = converged
    return out


def ot_plan(
    a: EmbeddingSequence | np.ndarray,
    b: EmbeddingSequence | np.ndarray,
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> TransportPlan:
    return sinkhorn(cost_matrix(a, b, metric), cfg)


def ot_distance(
    a: EmbeddingSequence | np.ndarray,
    b: EmbeddingSequence | np.ndarray,
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> float:
    """Cost of the entropic transport plan between two sequences."""
    return ot_plan(a, b, cfg, metric).cost


def exact_ot_small(cost: CostMatrix | np.ndarray) -> float:
    """Exact unregularized optimum for instances with at most 16 cells.

    Enumerates candidate bases of the transportation polytope (subsets of
    m*n variables of size m+n-1), solves each equality system, keeps the
    feasible ones, and returns the cheapest. Every polytope vertex has a
    spanning-tree basis of that size, so the LP optimum is among them.
    """
    C = cost.entries if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=np.float64)
    if C.ndim != 2:
        raise ValueError("cost must be 2-D")
    m, n = C.shape
    if m * n > _EXACT_MAX_CELLS:
        raise ValueError(f"instance too large for exact solve: {m}x{n} > {_EXACT_MAX_CELLS} cells")
    a = np.full(m, 1.0 / m)
    b = np.full(n, 1.0 / n)
    A = np.zeros((m + n, m * n))
    for i in range(m):
        for j in range(n):
            A[i, i * n + j] = 1.0
            A[m + j, i * n + j] = 1.0
    rhs = np.concatenate([a, b])
    c = C.reshape(-1)
    basis_size = m + n - 1
    best = np.inf
    for basis in itertools.combinations(range(m * n), basis_size):
        sub = A[:, basis]
        sol, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        if np.abs(sub @ sol - rhs).max() > 1e-9 or sol.min() < -1e-12:
            continue
        best = min(best, float(c[list(basis)] @ np.clip(sol, 0.0, None)))
    return best


def swav_codes(scores: np.ndarray, cfg: SinkhornConfig | None = None) -> np.ndarray:
    """Balanced soft assignment of a batch of projections to prototypes.

    Returns the B x K matrix maximizing ``Tr(Q^T scores) + eps * H(Q)``
    over the equal-partition transportation polytope (row sums 1/B,
    column sums 1/K), via Sinkhorn on the negated scores. Multiplying a
    row by B yields that sample's assignment distribution.
    """
    return swav_code_plan(scores, cfg).coupling


def swav_code_plan(scores: np.ndarray, cfg: SinkhornConfig | None = None) -> TransportPlan:
    cfg = cfg or SinkhornConfig()
    S = np.asarray(scores, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] < 1 or S.shape[1] < 1:
        raise ValueError(f"scores must be a non-empty B x K matrix, got {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError("scores contain NaN or Inf")
    return _solve_one(-S, cfg)
