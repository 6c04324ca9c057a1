"""Exact bound-and-prune scans of a snippet bank.

Retrieval needs only the cheapest snippet and the runner-up's cost.
``sinkhorn_top2`` solves the pairs in ascending order of a lower bound
on their cost (``transport_lower_bounds``, the relaxed Word Mover's
bound of Kusner et al., ICML 2015, section 4) and stops once no
unsolved pair can be among the two cheapest. The pairs it solves get
exactly the entries of ``seqmatch.ot.sinkhorn_scan``; on the benchmark
banks it solves 9-26% of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import EmbeddingSequence
from .ot import COSINE, ScanResult, SinkhornConfig, _costs, bank_batches, frame_matrix, sinkhorn_scan

# Pairs solved per round of ``sinkhorn_top2``. Smaller rounds stop closer
# to the fewest solves a bound allows; larger ones pay numpy's per-call
# overhead less often. Of 2 to 32, 8 was fastest or within 5% of it on the
# desk-scale and 500-snippet hard banks; 16-32 won only on 2000 snippets.
_PRUNE_ROUND = 8
# Relative slack on ``transport_lower_bounds`` for float rounding in the
# plan's marginals and cost.
_BOUND_RTOL = 1e-9


def transport_lower_bounds(
    query: EmbeddingSequence | np.ndarray,
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> np.ndarray:
    """Per snippet, a lower bound on the cost ``sinkhorn_scan`` reports for it.

    The relaxed Word Mover's bound (Kusner et al., ICML 2015, section 4)
    from the same cost stacks: the larger of a column term,
    ``mean_j min_i C_ij``, and a row term, ``mean_i min_j C_ij`` less
    ``tol_marginal * sum_i min_j C_ij``. The solver of ``seqmatch.ot``
    updates g last, so every plan has exact column marginals and the column term
    bounds every cost. A converged plan's row sums lie within
    ``tol_marginal`` of 1/m, so the row term bounds the cost of every
    pair that converges. A relative slack of ``_BOUND_RTOL`` covers
    float rounding in both.
    """
    cfg = cfg or SinkhornConfig()
    A = frame_matrix(query)
    bounds = np.empty(len(bank))
    for idx, stack in bank_batches(A, bank):
        C = _costs(A, stack, metric)
        if not np.isfinite(C).all():
            raise ValueError("cost matrix contains NaN or Inf")
        col = C.min(axis=1).mean(axis=1)
        row_min = C.min(axis=2)
        row = row_min.mean(axis=1) - cfg.tol_marginal * row_min.sum(axis=1)
        bounds[idx] = np.maximum(col, row) * (1.0 - _BOUND_RTOL)
    return bounds


def sinkhorn_top2(
    query: EmbeddingSequence | np.ndarray,
    bank: Sequence[EmbeddingSequence | np.ndarray],
    cfg: SinkhornConfig | None = None,
    metric: str = COSINE,
) -> ScanResult:
    """``sinkhorn_scan`` that solves only the pairs that can be among the two cheapest.

    Pairs are solved in ascending order of ``transport_lower_bounds``,
    ``_PRUNE_ROUND`` at a time, and the scan stops once the next bound
    is strictly above the second-lowest cost solved so far. Every pair
    that can be the cheapest, tie with it or be the runner-up is solved,
    and gets exactly the entry ``sinkhorn_scan`` gives it; every other
    entry has cost ``inf``, 0 iterations and ``converged`` False.

    The row term of the bound holds only for pairs that converge, and a
    solve that does not converge is the sign of a solver setting too
    tight for it: from the first solved pair that has not converged on,
    the scan stops pruning and solves the rest of the bank.
    """
    cfg = cfg or SinkhornConfig()
    A = frame_matrix(query)
    bounds = transport_lower_bounds(A, bank, cfg, metric)
    order = np.argsort(bounds, kind="stable")
    out = ScanResult(
        np.full(len(bank), np.inf), np.zeros(len(bank), dtype=np.int64), np.zeros(len(bank), dtype=bool)
    )
    solved, pruning = 0, True
    while solved < len(order):
        take = order[solved : solved + _PRUNE_ROUND if pruning else len(order)]
        out.costs[take], out.iterations[take], out.converged[take] = sinkhorn_scan(
            A, [bank[j] for j in take], cfg, metric
        )
        solved += len(take)
        pruning = pruning and bool(out.converged[take].all())
        if pruning and solved < len(order):
            runner_up = np.partition(out.costs[order[:solved]], 1)[1]
            if bounds[order[solved]] > runner_up:
                break
    return out
