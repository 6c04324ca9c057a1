"""Entropic optimal-transport distances between embedding sequences.

Frames of the two sequences carry uniform mass (1/T and 1/T'); the frame
cost is cosine distance by default. The Sinkhorn solver is fully
deterministic and flags non-convergence instead of raising: such a plan
is its last iterate rounded onto the transport polytope (Altschuler, Weed
and Rigollet, NeurIPS 2017, Algorithm 2), which retrieval can still rank.

There is one solver, ``_sinkhorn_stack``: Sinkhorn scaling in the kernel
domain (Cuturi, NeurIPS 2013), stabilised by absorbing large scalings
into log-domain potentials (Schmitzer, SIAM J. Sci. Comput. 2019), on a
stack of equal-shape cost matrices (batched as in Feydy et al., AISTATS
2019). ``sinkhorn`` and ``swav_code_plan`` run it on a stack of one.
Every bank scan takes Q queries and an N-snippet bank, checks them once on
entry (``scan_frames``; ``sinkhorn_top2`` through its bound) and returns
Q x N arrays. The solving scans draw their stacks from ``pair_stacks``,
which groups the True cells of a Q x N mask with numpy by query and
snippet length, across queries, into stacks of at most
``_SCAN_BATCH_CELLS`` cost cells; the bound walks chunks of the bank.
``sinkhorn_scan`` solves the whole grid and gives every pair exactly the
cost, iteration count and convergence flag ``sinkhorn`` gives it alone.

Retrieval needs only each query's cheapest snippet and the runner-up's
cost. ``sinkhorn_top2`` bounds every pair's cost from below
(``transport_lower_bounds``, the relaxed Word Mover's bound of Kusner et
al., ICML 2015, section 4, from one matrix product per query against
chunks of the bank's frames, with per-snippet minima taken by
``reduceat``) and solves the grid in at most two passes over a mask of
the pairs still to solve: first each query's few lowest bounds, then
every pair whose bound does not exceed its query's runner-up cost. All
queries' pairs of a pass are stacked by shape together, so a pass costs
a few large solver calls. The pairs it solves get exactly the entries of
``sinkhorn_scan``; on the benchmark banks it solves 8-23% of them.

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

from .data import EmbeddingSequence, check_finite, check_int

COSINE = "cosine"
SQEUCLIDEAN = "squared_euclidean"
METRICS = (COSINE, SQEUCLIDEAN)

_EXACT_MAX_CELLS = 16
# Cost cells in one stack of a scan (pairs x m x n) or one chunk of the bound
# (m x bank frames). Larger stacks cost fewer numpy calls and more memory: on
# the 500-snippet hard bank (K'=2), retrieval took 11.9 ms at 4096 cells, 9.1
# at 8192 and 8.8 at 16384, and `imagine` peaked at 37.4 MiB at 8192, 37.7 at
# 16384.
_SCAN_BATCH_CELLS = 8192
# Fewest pairs per query in the first pass of ``sinkhorn_top2``, which takes
# max(_PRUNE_ROUND, N // 32) of N snippets: a wider pass solves pairs no
# runner-up needed, most costly on small banks (on 35 and 50 snippets 16 took
# 1.7-1.8x as long as 8); on 500 (hard, K'=2) 15 solved 202 pairs in 9.2 ms
# against 230 in 9.6 ms for 8.
_PRUNE_ROUND = 8
# Relative slack on ``transport_lower_bounds`` for float rounding in the
# plan's marginals and cost.
_BOUND_RTOL = 1e-9
# Absolute slack on ``transport_lower_bounds`` for cost rounding, times d + 3
# and the entries' scale s (1 for cosine, the squared frame norms for
# sqeuclidean): the bound's entries and the solve's come by different paths,
# each within about (2d + 6) u s of the exact entry, u = 2**-53.
_BOUND_ULPS = 4 * 2.0**-53


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver knobs. ``epsilon`` is the entropic regularization strength."""

    epsilon: float = 0.05
    max_iters: int = 1000
    tol_marginal: float = 1e-6

    def __post_init__(self):
        check_finite("epsilon", self.epsilon, gt=0)
        check_int("max_iters", self.max_iters, 1)
        check_finite("tol_marginal", self.tol_marginal, gt=0)


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
        if self.metric not in METRICS:
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

    ``potentials`` holds the log-domain dual variables (f, g) of the plan's
    iterate, before any rounding; they can warm-start another solve.
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
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a T x d matrix with T, d >= 1, got shape {arr.shape}")
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


def cosine_similarity(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cosine similarities between the rows of ``A`` and of ``B``.

    Either side is one matrix or a stack, as for `pairwise_sq_dists`.
    Zero-norm frames are rejected rather than silently perturbed.
    """
    na = np.linalg.norm(A, axis=-1)
    nb = np.linalg.norm(B, axis=-1)
    if (na == 0.0).any() or (nb == 0.0).any():
        raise ValueError("zero-norm frame: cosine distance undefined")
    return (A @ B.swapaxes(-1, -2)) / (na[..., :, None] * nb[..., None, :])


def _costs(A: np.ndarray, B: np.ndarray, metric: str) -> np.ndarray:
    """Frame costs of A (m x d) against B (n x d); either side may be a stack
    (k x m x d, k x n x d), giving one m x n block per pair, each computed
    exactly as for that pair alone."""
    if metric == COSINE:
        return np.clip(1.0 - cosine_similarity(A, B), 0.0, 2.0)
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


def _round_to_polytope(P: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ROUND (Altschuler et al. 2017, Algorithm 2) of plans P (k x m x n) onto marginals a, b: rows, then
    columns, scaled down to at most them, plus ``er ec^T / |er|_1`` of the residuals clipped at 0."""
    P = P * np.minimum(a / P.sum(axis=2), 1.0)[:, :, None]
    P *= np.minimum(b / P.sum(axis=1), 1.0)[:, None, :]
    er, ec = np.maximum(a - P.sum(axis=2), 0.0), np.maximum(b - P.sum(axis=1), 0.0)
    scale = np.maximum(er.sum(axis=1), np.finfo(np.float64).tiny)
    return P + (er / scale[:, None])[:, :, None] * ec[:, None, :]


def _sinkhorn_stack(
    C: np.ndarray,
    cfg: SinkhornConfig,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sinkhorn on a stack of k cost matrices C (k x m x n), in the kernel domain.

    Each pair iterates ``u = a / (K v)``, ``v = b / (K^T u)`` on
    ``K = exp((f + g - C) / eps)``, so its plan ``u K v`` has exact column
    sums and only its rows are checked. A pair whose u or v leaves
    [1e-100, 1e100] absorbs them into f, g by a log-domain iteration and
    restarts from a fresh kernel with u = v = 1. Each pair stops at its own
    first iterate within ``tol_marginal``, independently of the rest of the
    stack; one that does not within ``max_iters`` is rounded onto the polytope.
    ``init`` holds stacked potentials (k x m, k x n). Returns (P, f, g,
    iterations, converged), with f, g the potentials of the unrounded P.
    """
    k, m, n = C.shape
    eps, tol = cfg.epsilon, cfg.tol_marginal
    a = np.full(m, 1.0 / m)
    b = np.full(n, 1.0 / n)
    if init is not None:
        f, g = np.array(init[0], dtype=np.float64), np.array(init[1], dtype=np.float64)
    else:
        f, g = np.zeros((k, m)), np.zeros((k, n))
    P_out = np.empty_like(C)
    f_out, g_out = np.empty((k, m)), np.empty((k, n))
    iters = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    live = np.arange(k)  # stack index of each pair still iterating
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K = np.exp((f[:, :, None] + g[:, None, :] - C) / eps)
        u, v = np.ones((k, m)), np.ones((k, n))
        Kv = K.sum(axis=2)
        for it in range(1, cfg.max_iters + 1):
            u_new = a / Kv
            v_new = b / (u_new[:, None, :] @ K)[:, 0]
            bad = ~((u_new >= 1e-100) & (u_new <= 1e100)).all(axis=1)
            bad |= ~((v_new >= 1e-100) & (v_new <= 1e100)).all(axis=1)
            if bad.any():
                idx, Cb = live[bad], C[live[bad]]
                gb = g[idx] + eps * np.log(v[bad])
                fb = eps * (np.log(a) - _logsumexp((gb[:, None, :] - Cb) / eps, axis=2))
                gb = eps * (np.log(b) - _logsumexp((fb[:, :, None] - Cb) / eps, axis=1))
                f[idx], g[idx] = fb, gb
                K[bad] = np.exp((fb[:, :, None] + gb[:, None, :] - Cb) / eps)
                u_new[bad], v_new[bad] = 1.0, 1.0
            u, v = u_new, v_new
            Kv = (K @ v[:, :, None])[:, :, 0]
            done = np.abs(u * Kv - a).max(axis=1) <= tol
            stop = done if it < cfg.max_iters else np.ones_like(done)
            if not stop.any():
                continue
            idx = live[stop]
            P_out[idx] = u[stop, :, None] * K[stop] * v[stop, None, :]
            f_out[idx] = f[idx] + eps * np.log(u[stop])
            g_out[idx] = g[idx] + eps * np.log(v[stop])
            iters[idx] = it
            converged[idx] = done[stop]
            if stop.all():
                break
            keep = ~stop
            live, K, u, v, Kv = live[keep], K[keep], u[keep], v[keep], Kv[keep]
        if not converged.all():
            P_out[~converged] = _round_to_polytope(P_out[~converged], a, b)
    return P_out, f_out, g_out, iters, converged


def _solve_one(
    C: np.ndarray,
    cfg: SinkhornConfig,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> TransportPlan:
    """The plan of one m x n cost matrix: ``_sinkhorn_stack`` on a stack of one."""
    if init is not None:
        init = (init[0][None], init[1][None])
    P, f, g, iters, converged = _sinkhorn_stack(C[None], cfg, init)
    return TransportPlan(P[0], float(np.sum(C * P[0])), int(iters[0]), bool(converged[0]), (f[0], g[0]))


def sinkhorn(
    cost: CostMatrix | np.ndarray,
    cfg: SinkhornConfig | None = None,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> TransportPlan:
    """Entropy-regularized coupling under uniform marginals (1/T, 1/T').

    Never raises on slow convergence: the plan's ``converged`` flag is
    False when the marginal tolerance was not met within ``max_iters``,
    and the coupling is then the last iterate rounded onto the polytope.
    ``init`` warm-starts the log-domain potentials (useful when sweeping
    epsilon ladders): finite vectors f of length m and g of length n.
    """
    cfg = cfg or SinkhornConfig()
    C = cost.entries if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=np.float64)
    if C.ndim != 2 or C.size == 0 or not np.isfinite(C).all():
        raise ValueError(f"cost must be a finite, non-empty 2-D matrix, got shape {C.shape}")
    if init is not None:
        init = tuple(np.asarray(p, dtype=np.float64) for p in init)
        if [p.shape for p in init] != [C.shape[:1], C.shape[1:]] or not all(np.isfinite(p).all() for p in init):
            raise ValueError(f"init must be finite potentials of lengths {C.shape[0]} and {C.shape[1]}")
    return _solve_one(C, cfg, init)


class ScanResult(NamedTuple):
    """Solver outcome of a scan of Q queries against an N-snippet bank: Q x N
    arrays, entry (i, j) for ``queries[i]`` against ``bank[j]``."""

    costs: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def scan_frames(
    queries: Sequence[EmbeddingSequence | np.ndarray], bank: Sequence[EmbeddingSequence | np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``frame_matrix`` of every query and snippet; raises ``ValueError`` naming the first
    (query, snippet) pair, in row-major order, whose dimensions differ."""
    As, frames = [frame_matrix(q) for q in queries], [frame_matrix(s) for s in bank]
    dq, db = ([F.shape[1] for F in side] for side in (As, frames))
    bad = np.not_equal.outer(dq, db)
    if bad.any():
        i, j = divmod(int(bad.argmax()), len(frames))
        raise ValueError(f"dimension mismatch: {dq[i]} vs {db[j]}")
    return As, frames


def pair_stacks(
    queries: Sequence[np.ndarray], bank: Sequence[np.ndarray], todo: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, cols, query side, k x n x d bank stack) for each stack of equal-shape pairs.

    The pairs are the True cells of the Q x N mask ``todo``; pair p is
    (``queries[rows[p]]``, ``bank[cols[p]]``). They are grouped by query and
    snippet length with numpy, each group in row-major order, into stacks of
    at most ``_SCAN_BATCH_CELLS`` cost cells (one pair at least), which bounds
    a scan's memory whatever the bank size. The query side is the m x d query
    itself when the whole stack shares it, as ``cost_matrix`` takes it, and a
    k x m x d stack otherwise. It checks nothing: the scan's ``scan_frames`` has.
    """
    m_of, n_of = (np.fromiter(map(len, side), np.intp, len(side)) for side in (queries, bank))
    # Not np.unique: its first call in a process imports numpy.ma, about 9 ms.
    snippet_groups = [(n, np.flatnonzero(n_of == n)) for n in sorted(set(n_of.tolist()))]
    for m in sorted(set(m_of.tolist())):
        Q = np.flatnonzero(m_of == m)
        for n, J in snippet_groups:
            r, c = np.nonzero(todo[np.ix_(Q, J)])
            rows, cols = Q[r], J[c]
            per_batch = max(1, _SCAN_BATCH_CELLS // (m * n))
            # Rows ascend, so r[0] == r[-1] means one query; concatenate + reshape is np.stack in fewer calls.
            for lo in range(0, len(rows), per_batch):
                r, c = rows[lo : lo + per_batch], cols[lo : lo + per_batch]
                A = queries[r[0]] if r[0] == r[-1] else np.concatenate([queries[i] for i in r]).reshape(len(r), m, -1)
                yield r, c, A, np.concatenate([bank[j] for j in c]).reshape(len(c), n, -1)


def _solve_pairs(
    queries: Sequence[np.ndarray], bank: Sequence[np.ndarray], todo: np.ndarray,
    cfg: SinkhornConfig, metric: str, out: ScanResult,
) -> None:
    """Solve the pairs of the mask ``todo`` into their cells of ``out``; a NaN or Inf
    cost raises ``ValueError``."""
    for rows, cols, A, B in pair_stacks(queries, bank, todo):
        C = _costs(A, B, metric)
        if not np.isfinite(C).all():
            raise ValueError("cost matrix contains NaN or Inf")
        P, _, _, iters, converged = _sinkhorn_stack(C, cfg)
        out.costs[rows, cols] = (C * P).reshape(len(rows), -1).sum(axis=1)
        out.iterations[rows, cols], out.converged[rows, cols] = iters, converged


def sinkhorn_scan(
    queries: Sequence[EmbeddingSequence | np.ndarray],
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> ScanResult:
    """Transport cost of every query against every sequence of a bank.

    Entry (i, j) equals ``sinkhorn(cost_matrix(queries[i], bank[j], metric), cfg)``
    bit for bit in cost, ``iterations_used`` and ``converged``; each
    stack of ``pair_stacks`` is solved as one stack of cost matrices.
    """
    cfg = cfg or SinkhornConfig()
    As, frames = scan_frames(queries, bank)
    shape = (len(As), len(frames))
    out = ScanResult(np.empty(shape), np.empty(shape, dtype=np.int64), np.empty(shape, dtype=bool))
    _solve_pairs(As, frames, np.ones(shape, bool), cfg, metric, out)
    return out


def _unit_rows(F: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The rows of F divided by their norms (into ``out`` if given); a zero-norm row raises."""
    norms = np.linalg.norm(F, axis=1)
    if (norms == 0.0).any():
        raise ValueError("zero-norm frame: cosine distance undefined")
    return np.divide(F, norms[:, None], out=out)


def transport_lower_bounds(
    queries: Sequence[EmbeddingSequence | np.ndarray],
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> np.ndarray:
    """Per (query, snippet) pair, a lower bound on the cost ``sinkhorn_scan`` reports for it.

    The relaxed Word Mover's bound (Kusner et al., ICML 2015, section 4):
    the larger of a column term, ``mean_j min_i C_ij``, and a row term,
    ``mean_i min_j C_ij`` less ``tol_marginal * sum_i min_j C_ij``.
    ``_sinkhorn_stack`` updates v last, so every plan has exact column
    marginals and the column term bounds every cost. A converged plan's
    row sums lie within ``tol_marginal`` of 1/m, and a plan that does not
    converge is rounded to exact ones, so the row term bounds every cost.

    The costs are one product per query against chunks of consecutive
    snippets of at most ``_SCAN_BATCH_CELLS`` cells, with per-snippet
    minima by ``reduceat``. They round differently from the solve's, so
    the bound is lowered by ``_BOUND_RTOL`` and ``_BOUND_ULPS``, and
    floored at 0.
    """
    cfg = cfg or SinkhornConfig()
    As, frames = scan_frames(queries, bank)
    bounds = np.empty((len(As), len(frames)))
    if bounds.size == 0:
        return bounds
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    m_of, n_of = (np.fromiter(map(len, side), np.intp, len(side)) for side in (As, frames))
    ends = np.cumsum(n_of)
    starts = ends - n_of
    if metric == COSINE:
        As = [_unit_rows(A) for A in As]
        scale = 1.0
    else:
        sq_a = np.array([(A * A).sum(axis=1).max() for A in As])
        sq_b = np.array([(F * F).sum(axis=1).max() for F in frames])
        scale = sq_a[:, None] + sq_b
    for m in sorted(set(m_of.tolist())):
        Q = np.flatnonzero(m_of == m).tolist()
        j0, cap = 0, max(1, _SCAN_BATCH_CELLS // m)  # frames per chunk
        while j0 < len(frames):
            j1 = max(j0 + 1, int(np.searchsorted(ends, starts[j0] + cap, "right")))
            B = np.concatenate(frames[j0:j1])
            if metric == COSINE:
                _unit_rows(B, out=B)
            seg = starts[j0:j1] - starts[j0]
            for i in Q:
                if metric == COSINE:
                    C = As[i] @ B.T
                    np.subtract(1.0, C, out=C)
                    np.clip(C, 0.0, 2.0, out=C)
                else:
                    C = pairwise_sq_dists(As[i], B)
                if not np.isfinite(C.max()):
                    raise ValueError("cost matrix contains NaN or Inf")
                col = np.add.reduceat(C.min(axis=0), seg) / n_of[j0:j1]
                row_min = np.minimum.reduceat(C, seg, axis=1)
                row = row_min.mean(axis=0) - cfg.tol_marginal * row_min.sum(axis=0)
                bounds[i, j0:j1] = np.maximum(col, row)
            j0 = j1
    bounds *= 1.0 - _BOUND_RTOL
    bounds -= _BOUND_ULPS * (As[0].shape[1] + 3) * scale
    return np.maximum(bounds, 0.0, out=bounds)


def sinkhorn_top2(
    queries: Sequence[EmbeddingSequence | np.ndarray],
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> ScanResult:
    """A ``sinkhorn_scan`` that solves, per query, only the pairs that can be among its two cheapest.

    It solves the grid in two passes over a Q x N mask of pairs to solve:
    each query's ``max(_PRUNE_ROUND, N // 32)`` lowest pairs in (stable)
    order of ``transport_lower_bounds``, then every unsolved pair whose
    bound is at most its query's second-lowest cost so far (``inf`` for a
    bank of fewer than two snippets). The bound holds for every plan,
    converged or not, and the second pass can only lower the runner-up.

    Every pair that can be the cheapest, tie with it or be the runner-up
    is solved and gets exactly the entry ``sinkhorn_scan`` gives it; every
    other entry has cost ``inf``, 0 iterations and ``converged`` False. A
    pass groups its pairs by (m, n) shape across queries into stacks of at
    most ``_SCAN_BATCH_CELLS`` cells, and a pair's solve does not depend on
    the rest of its stack, so each query gets the result it would get alone.
    """
    cfg = cfg or SinkhornConfig()
    As, frames = [frame_matrix(q) for q in queries], [frame_matrix(s) for s in bank]
    bounds = transport_lower_bounds(As, frames, cfg, metric)
    out = ScanResult(np.full_like(bounds, np.inf), np.zeros_like(bounds, np.int64), np.zeros_like(bounds, bool))
    todo = np.zeros_like(bounds, bool)
    width = max(_PRUNE_ROUND, len(frames) // 32)
    np.put_along_axis(todo, np.argsort(bounds, axis=1, kind="stable")[:, :width], True, axis=1)
    _solve_pairs(As, frames, todo, cfg, metric, out)
    runner_up = np.partition(out.costs, 1, axis=1)[:, 1:2] if len(frames) > 1 else np.inf
    todo = (out.iterations == 0) & (bounds <= runner_up)
    if todo.any():
        _solve_pairs(As, frames, todo, cfg, metric, out)
    return out


def ot_distance(
    a: EmbeddingSequence | np.ndarray,
    b: EmbeddingSequence | np.ndarray,
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> float:
    """Cost of the entropic transport plan between two sequences."""
    return sinkhorn(cost_matrix(a, b, metric), cfg).cost


def exact_ot_small(cost: CostMatrix | np.ndarray) -> float:
    """Exact unregularized optimum for instances with at most 16 cells.

    Enumerates candidate bases of the transportation polytope (subsets of
    m*n variables of size m+n-1), solves each equality system, keeps the
    feasible ones, and returns the cheapest. Every polytope vertex has a
    spanning-tree basis of that size, so the LP optimum is among them.
    """
    C = cost.entries if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=np.float64)
    if C.ndim != 2 or C.size == 0:
        raise ValueError(f"cost must be a non-empty 2-D matrix, got shape {C.shape}")
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
