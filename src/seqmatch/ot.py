"""Entropic optimal-transport distances between embedding sequences.

Frames of the two sequences carry uniform mass (1/T and 1/T'); the frame
cost is cosine distance by default. The Sinkhorn solver is fully
deterministic and reports non-convergence through a flag on the returned
plan instead of raising: retrieval can still rank with a near-feasible
plan, and callers that need hard guarantees check the flag.

There is one solver, the stabilised log-domain scaling of Schmitzer
(SIAM J. Sci. Comput. 2019), and it works on a stack of equal-shape
cost matrices (batched as in Feydy et al., AISTATS 2019). ``sinkhorn``
and ``swav_code_plan`` run it on a stack of one. Every bank scan takes
Q queries and an N-snippet bank and returns Q x N arrays, and every one
draws its stacks from ``pair_stacks``, which groups (query, snippet)
pairs by shape, across queries, into stacks of at most
``_SCAN_BATCH_CELLS`` cost cells. ``sinkhorn_scan`` solves the whole
grid and gives every pair exactly the cost, iteration count and
convergence flag that ``sinkhorn(cost_matrix(...))`` gives it alone.

Retrieval needs only each query's cheapest snippet and the runner-up's
cost. ``sinkhorn_top2`` solves each query's pairs in ascending order of
a lower bound on their cost (``transport_lower_bounds``, the relaxed
Word Mover's bound of Kusner et al., ICML 2015, section 4, computed for
the whole grid in one pass), a round at a time, and stops a query once
no unsolved pair can be among its two cheapest. The rounds of all
queries run in lockstep, one round's pairs of every query stacked by
shape, so a round costs a few large solver calls instead of a few small
ones per query. The pairs it solves get exactly the entries of
``sinkhorn_scan``; on the benchmark banks it solves 9-26% of them.

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
# Cost cells (pairs x m x n) in one batch of a bank scan. Larger batches
# amortize numpy's per-call overhead better, but every batch temporary
# grows with them, and peak memory with those: uncapped, a 500-snippet
# bank raised peak RSS by about 6 MiB over the per-pair loop; capped at
# 4096 cells, by about 1 MiB.
_SCAN_BATCH_CELLS = 4096
# Pairs solved per round of ``sinkhorn_top2``. Smaller rounds stop closer
# to the fewest solves a bound allows; larger ones pay numpy's per-call
# overhead less often. Of 2 to 32, 8 was fastest or within 5% of it on the
# desk-scale and 500-snippet hard banks; 16-32 won only on 2000 snippets.
_PRUNE_ROUND = 8
# Relative slack on ``transport_lower_bounds`` for float rounding in the
# plan's marginals and cost.
_BOUND_RTOL = 1e-9


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
    """Solver outcome of a scan of Q queries against an N-snippet bank: Q x N
    arrays, entry (i, j) for ``queries[i]`` against ``bank[j]``."""

    costs: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def pair_stacks(
    queries: Sequence[np.ndarray],
    bank: Sequence[np.ndarray],
    qs: np.ndarray | None = None,
    js: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(positions, query side, k x n x d bank stack) for each stack of equal-shape pairs.

    Pair p is (``queries[qs[p]]``, ``bank[js[p]]``) of frame matrices;
    by default every pair of the Q x N grid, in row-major order. Pairs
    are grouped by (m, n) shape, in order, into stacks of at most
    ``_SCAN_BATCH_CELLS`` cost cells (one pair at least), which bounds a
    scan's memory whatever the bank size. The query side is the m x d
    query itself when the whole stack shares it, as ``cost_matrix``
    takes it, and a k x m x d stack otherwise. A snippet whose dimension
    differs from its query's raises ``ValueError``.
    """
    if qs is None:
        qs, js = np.indices((len(queries), len(bank))).reshape(2, -1)
    query_shapes, bank_shapes = [A.shape for A in queries], [B.shape for B in bank]
    by_shape: dict[tuple[int, int], list[int]] = {}
    for p, (q, j) in enumerate(zip(qs.tolist(), js.tolist())):
        (m, dq), (n, db) = query_shapes[q], bank_shapes[j]
        if db != dq:
            raise ValueError(f"dimension mismatch: {dq} vs {db}")
        by_shape.setdefault((m, n), []).append(p)
    for (m, n), members in by_shape.items():
        per_batch = max(1, _SCAN_BATCH_CELLS // (m * n))
        for lo in range(0, len(members), per_batch):
            pos = np.array(members[lo : lo + per_batch])
            q = qs[pos]
            A = queries[q[0]] if (q == q[0]).all() else np.stack([queries[i] for i in q])
            yield pos, A, np.stack([bank[j] for j in js[pos]])


def _cost_batches(
    queries: Sequence[np.ndarray], bank: Sequence[np.ndarray], qs: np.ndarray, js: np.ndarray, metric: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(positions, k x m x n cost stack) for each stack of ``pair_stacks``.

    A stack with a NaN or Inf cost raises ``ValueError``.
    """
    for pos, A, B in pair_stacks(queries, bank, qs, js):
        C = _costs(A, B, metric)
        if not np.isfinite(C).all():
            raise ValueError("cost matrix contains NaN or Inf")
        yield pos, C


def _solve_pairs(
    queries: Sequence[np.ndarray], bank: Sequence[np.ndarray], qs: np.ndarray, js: np.ndarray,
    cfg: SinkhornConfig, metric: str, out: ScanResult,
) -> None:
    """Solve the pairs (``queries[qs[p]]``, ``bank[js[p]]``) into cells (qs[p], js[p]) of ``out``."""
    for pos, C in _cost_batches(queries, bank, qs, js, metric):
        P, _, _, iters, converged = _log_sinkhorn(C, cfg)
        cells = qs[pos], js[pos]
        out.costs[cells] = (C * P).reshape(len(pos), -1).sum(axis=1)
        out.iterations[cells], out.converged[cells] = iters, converged


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
    As, frames = [frame_matrix(q) for q in queries], [frame_matrix(s) for s in bank]
    shape = (len(As), len(frames))
    out = ScanResult(np.empty(shape), np.empty(shape, dtype=np.int64), np.empty(shape, dtype=bool))
    _solve_pairs(As, frames, *np.indices(shape).reshape(2, -1), cfg, metric, out)
    return out


def transport_lower_bounds(
    queries: Sequence[EmbeddingSequence | np.ndarray],
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> np.ndarray:
    """Per (query, snippet) pair, a lower bound on the cost ``sinkhorn_scan`` reports for it.

    The relaxed Word Mover's bound (Kusner et al., ICML 2015, section 4)
    from the same cost stacks: the larger of a column term,
    ``mean_j min_i C_ij``, and a row term, ``mean_i min_j C_ij`` less
    ``tol_marginal * sum_i min_j C_ij``. ``_log_sinkhorn`` updates g
    last, so every plan has exact column marginals and the column term
    bounds every cost. A converged plan's row sums lie within
    ``tol_marginal`` of 1/m, so the row term bounds the cost of every
    pair that converges. A relative slack of ``_BOUND_RTOL`` covers
    float rounding in both.
    """
    cfg = cfg or SinkhornConfig()
    As, frames = [frame_matrix(q) for q in queries], [frame_matrix(s) for s in bank]
    bounds = np.empty((len(As), len(frames)))
    for pos, C in _cost_batches(As, frames, *np.indices(bounds.shape).reshape(2, -1), metric):
        col = C.min(axis=1).mean(axis=1)
        row_min = C.min(axis=2)
        row = row_min.mean(axis=1) - cfg.tol_marginal * row_min.sum(axis=1)
        bounds.flat[pos] = np.maximum(col, row) * (1.0 - _BOUND_RTOL)
    return bounds


def sinkhorn_top2(
    queries: Sequence[EmbeddingSequence | np.ndarray],
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> ScanResult:
    """A ``sinkhorn_scan`` that solves, per query, only the pairs that can be among its two cheapest.

    A query's pairs are solved in ascending (stable) order of its row of
    ``transport_lower_bounds``, ``_PRUNE_ROUND`` at a time, and its scan
    stops once its next bound is strictly above the second-lowest cost
    solved for it so far. Every pair that can be the cheapest, tie with
    it or be the runner-up is solved, and gets exactly the entry
    ``sinkhorn_scan`` gives it; every other entry has cost ``inf``, 0
    iterations and ``converged`` False.

    The row term of the bound holds only for pairs that converge, and a
    solve that does not converge is the sign of a solver setting too
    tight for it: from a query's first solved pair that has not
    converged on, its scan stops pruning and solves the rest of the bank
    in its next round.

    The queries' rounds run in lockstep: round r of every query still
    scanning is solved together, its pairs grouped by (m, n) shape
    across queries into stacks of at most ``_SCAN_BATCH_CELLS`` cells,
    one ``_log_sinkhorn`` call per stack. A pair's solve does not depend
    on the rest of its stack, so each query gets the result it would
    get alone.
    """
    cfg = cfg or SinkhornConfig()
    As, frames = [frame_matrix(q) for q in queries], [frame_matrix(s) for s in bank]
    n = len(frames)
    bounds = transport_lower_bounds(As, frames, cfg, metric)
    orders = np.argsort(bounds, axis=1, kind="stable")
    costs = np.full_like(bounds, np.inf)
    out = ScanResult(costs, np.zeros_like(bounds, np.int64), np.zeros_like(bounds, bool))
    solved, pruning = [0] * len(As), [True] * len(As)
    live = list(range(len(As))) if n else []
    while live:
        takes = [orders[q, solved[q] : solved[q] + _PRUNE_ROUND if pruning[q] else n] for q in live]
        qs = np.repeat(live, [len(take) for take in takes])
        _solve_pairs(As, frames, qs, np.concatenate(takes), cfg, metric, out)
        still_live = []
        for q, take in zip(live, takes):
            solved[q] += len(take)
            pruning[q] = pruning[q] and bool(out.converged[q, take].all())
            if solved[q] == n:
                continue
            if pruning[q]:
                runner_up = np.partition(out.costs[q, orders[q, : solved[q]]], 1)[1]
                if bounds[q, orders[q, solved[q]]] > runner_up:
                    continue
            still_live.append(q)
        live = still_live
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
