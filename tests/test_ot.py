import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqmatch import ot, tcc
from seqmatch.data import EmbeddingSequence
from seqmatch.ot import (
    _SCAN_BATCH_CELLS,
    _sinkhorn_stack,
    COSINE,
    SQEUCLIDEAN,
    CostMatrix,
    SinkhornConfig,
    cosine_similarity,
    cost_matrix,
    exact_ot_small,
    ot_distance,
    pair_stacks,
    pairwise_sq_dists,
    sinkhorn,
    sinkhorn_scan,
    sinkhorn_top2,
    swav_code_plan,
    swav_codes,
    transport_lower_bounds,
)


def oracle_cosine_cost(A, B):
    out = np.empty((len(A), len(B)))
    for i, x in enumerate(A):
        for j, y in enumerate(B):
            out[i, j] = 1.0 - float(np.dot(x, y)) / (
                math.sqrt(float(np.dot(x, x))) * math.sqrt(float(np.dot(y, y)))
            )
    return out


def sample_feasible_2x3(rng):
    # first row (x1, x2, x3) with sum 1/2 and 0 <= xi <= 1/3 pins the plan
    while True:
        x1 = rng.uniform(0, 1 / 3)
        x2 = rng.uniform(0, 1 / 3)
        x3 = 0.5 - x1 - x2
        if 0.0 <= x3 <= 1 / 3:
            top = np.array([x1, x2, x3])
            return np.vstack([top, 1 / 3 - top])


class TestCostMatrix:
    def test_orthogonal_identical_antipodal(self):
        a = EmbeddingSequence([[1.0, 0.0]])
        assert cost_matrix(a, EmbeddingSequence([[0.0, 1.0]])).entries[0, 0] == pytest.approx(1.0)
        assert cost_matrix(a, EmbeddingSequence([[1.0, 0.0]])).entries[0, 0] == pytest.approx(0.0)
        assert cost_matrix(a, EmbeddingSequence([[-1.0, 0.0]])).entries[0, 0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cost_matrix(EmbeddingSequence([[1.0, 0.0]]), EmbeddingSequence([[1.0, 0.0, 0.0]]))

    def test_zero_norm_frame_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cost_matrix(EmbeddingSequence([[0.0, 0.0]]), EmbeddingSequence([[1.0, 0.0]]))

    def test_unknown_metric_rejected(self, rng):
        with pytest.raises(ValueError, match=r"^unknown metric 'bogus'$"):
            cost_matrix(rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), "bogus")

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
    def test_empty_frame_matrix_rejected(self, shape):
        message = rf"^expected a T x d matrix with T, d >= 1, got shape \({shape[0]}, {shape[1]}\)$"
        with pytest.raises(ValueError, match=message):
            cost_matrix(np.zeros(shape), np.ones((2, 2)))
        with pytest.raises(ValueError, match=message):
            cost_matrix(np.ones((2, 2)), np.zeros(shape))

    def test_swap_is_transpose(self, rng):
        A = rng.normal(size=(4, 6))
        B = rng.normal(size=(3, 6))
        c1 = cost_matrix(A, B).entries
        c2 = cost_matrix(B, A).entries
        np.testing.assert_allclose(c1, c2.T, atol=1e-12)

    def test_matches_direct_formula_and_range(self, rng):
        A = rng.normal(size=(5, 8))
        B = rng.normal(size=(4, 8))
        got = cost_matrix(A, B).entries
        np.testing.assert_allclose(got, np.clip(oracle_cosine_cost(A, B), 0, 2), atol=1e-12)
        assert got.min() >= 0.0 and got.max() <= 2.0

    def test_sqeuclidean(self, rng):
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(2, 4))
        got = cost_matrix(A, B, SQEUCLIDEAN).entries
        want = [[float(np.sum((x - y) ** 2)) for y in B] for x in A]
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_invalid_cosine_range_rejected(self):
        with pytest.raises(ValueError, match="cosine"):
            CostMatrix(np.array([[3.0]]), COSINE)


class TestSinkhorn:
    def test_1x1_forced(self):
        plan = sinkhorn(np.array([[0.7]]))
        assert plan.coupling[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert plan.cost == pytest.approx(0.7, abs=1e-12)
        assert plan.converged

    def test_2x2_antidiagonal(self):
        # feasible couplings are [[x, .5-x], [.5-x, x]]; cost 1-2x is minimal at x=.5
        plan = sinkhorn(np.array([[0.0, 1.0], [1.0, 0.0]]), SinkhornConfig(epsilon=0.01))
        np.testing.assert_allclose(plan.coupling, [[0.5, 0.0], [0.0, 0.5]], atol=1e-3)
        assert abs(plan.cost) <= 1e-3

    def test_identity_cost_bounded_by_entropic_bias(self, rng):
        frames = rng.normal(size=(6, 8))
        frames /= np.linalg.norm(frames, axis=1, keepdims=True)
        seq = EmbeddingSequence(frames)
        eps = 0.01
        cost = ot_distance(seq, seq, SinkhornConfig(epsilon=eps, max_iters=5000))
        assert 0.0 <= cost <= eps * math.log(6) + 1e-6

    def test_marginals_within_tolerance(self, rng):
        C = rng.uniform(size=(13, 7))
        plan = sinkhorn(C, SinkhornConfig(max_iters=5000))
        assert plan.converged
        assert plan.marginal_error() <= 1e-6

    def test_cost_recomputable_from_coupling(self, rng):
        C = rng.uniform(size=(5, 9))
        plan = sinkhorn(C)
        assert plan.recompute_cost(C) == pytest.approx(plan.cost, rel=1e-12)

    def test_deterministic_bit_identical(self, rng):
        C = rng.uniform(size=(8, 8))
        p1 = sinkhorn(C)
        p2 = sinkhorn(C)
        assert p1.coupling.tobytes() == p2.coupling.tobytes()
        assert p1.cost == p2.cost and p1.iterations_used == p2.iterations_used

    def test_nonconvergence_flagged_not_raised(self, rng):
        C = rng.uniform(size=(16, 16))
        plan = sinkhorn(C, SinkhornConfig(epsilon=0.001, max_iters=1))
        assert not plan.converged
        assert plan.iterations_used == 1

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None], ids=["fraction", "float", "bool", "str", "none"])
    def test_non_int_max_iters_rejected(self, value):
        with pytest.raises(ValueError, match=f"^max_iters must be an int, got {value!r}$"):
            SinkhornConfig(max_iters=value)

    @pytest.mark.parametrize("field", ["epsilon", "tol_marginal"])
    @pytest.mark.parametrize("value", [True, "0.05", None], ids=["bool", "str", "none"])
    def test_non_real_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0, got {value}$"):
            SinkhornConfig(**{field: value})

    def test_nonfinite_cost_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sinkhorn(np.array([[np.nan, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_cost_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"non-empty 2-D matrix, got shape \({shape[0]}, {shape[1]}\)$"):
            sinkhorn(np.zeros(shape))

    @pytest.mark.parametrize(
        "init",
        [
            (np.zeros(7), np.zeros(4)),
            (np.zeros(3), np.zeros(1)),
            (np.zeros((3, 1)), np.zeros(4)),
            (0.0, np.zeros(4)),
            (np.zeros(3),),
            (np.zeros(3), np.zeros(4), np.zeros(4)),
            (np.array([0.0, np.nan, 0.0]), np.zeros(4)),
            (np.zeros(3), np.array([0.0, 0.0, np.inf, 0.0])),
            (np.full(3, -np.inf), np.zeros(4)),
        ],
        ids=["long-f", "short-g", "2d-f", "scalar-f", "no-g", "three", "nan-f", "inf-g", "neg-inf-f"],
    )
    def test_invalid_warm_start_rejected(self, init):
        with pytest.raises(ValueError, match="^init must be finite potentials of lengths 3 and 4$"):
            sinkhorn(np.full((3, 4), 0.5), init=init)

    def test_warm_start_runs_from_the_given_potentials(self, rng):
        C = rng.uniform(size=(3, 4))
        cfg = SinkhornConfig(epsilon=0.05)
        f, g = sinkhorn(C, SinkhornConfig(epsilon=0.2)).potentials
        warm = sinkhorn(C, cfg, init=(f.tolist(), g.tolist()))
        P, f_out, g_out, iters, converged = _sinkhorn_stack(C[None], cfg, (f[None], g[None]))
        assert warm.coupling.tobytes() == P[0].tobytes() and warm.cost == float(np.sum(C * P[0]))
        assert warm.potentials[0].tobytes() == f_out[0].tobytes()
        assert warm.potentials[1].tobytes() == g_out[0].tobytes()
        assert warm.iterations_used == iters[0] < sinkhorn(C, cfg).iterations_used
        assert warm.converged and converged[0]

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_marginal_feasibility_property(self, m, n, seed):
        C = np.random.default_rng(seed).uniform(size=(m, n))
        plan = sinkhorn(C, SinkhornConfig(max_iters=5000))
        assert plan.converged
        assert plan.marginal_error() <= 1e-6


def round_reference(P, a, b):
    """ROUND (Altschuler, Weed and Rigollet, NeurIPS 2017, Algorithm 2) of one
    m x n plan onto marginals a and b, step by step as the paper writes it."""
    with np.errstate(divide="ignore"):
        X = np.diag(np.minimum(a / P.sum(axis=1), 1.0)) @ P
        Y = X @ np.diag(np.minimum(b / X.sum(axis=0), 1.0))
    err_r = np.clip(a - Y.sum(axis=1), 0.0, None)
    err_c = np.clip(b - Y.sum(axis=0), 0.0, None)
    return Y + np.outer(err_r, err_c) / err_r.sum() if err_r.sum() > 0 else Y


def log_sinkhorn_reference(C, cfg, init=None):
    """The log-domain solver ``_sinkhorn_stack`` replaced, as a reference: per
    pair, f and g updates by logsumexp, stopping at the first iterate whose row
    and column errors are both within ``tol_marginal``; a pair that stops at
    ``max_iters`` without converging returns its iterate rounded onto the polytope."""

    def logsumexp(x, axis):
        top = np.max(x, axis=axis, keepdims=True)
        return np.squeeze(top + np.log(np.sum(np.exp(x - top), axis=axis, keepdims=True)), axis=axis)

    k, m, n = C.shape
    eps, tol = cfg.epsilon, cfg.tol_marginal
    a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    f, g = (np.zeros((k, m)), np.zeros((k, n))) if init is None else (np.array(init[0]), np.array(init[1]))
    P_out, iters, converged = np.empty_like(C), np.zeros(k, dtype=np.int64), np.zeros(k, dtype=bool)
    live = np.arange(k)
    for it in range(1, cfg.max_iters + 1):
        f = eps * (np.log(a) - logsumexp((g[:, None, :] - C) / eps, axis=2))
        g = eps * (np.log(b) - logsumexp((f[:, :, None] - C) / eps, axis=1))
        P = np.exp((f[:, :, None] + g[:, None, :] - C) / eps)
        err = np.maximum(np.abs(P.sum(axis=2) - a).max(axis=1), np.abs(P.sum(axis=1) - b).max(axis=1))
        done = err <= tol
        stop = done | (it == cfg.max_iters)
        P_out[live[stop]], iters[live[stop]], converged[live[stop]] = P[stop], it, done[stop]
        live, C, f, g = live[~stop], C[~stop], f[~stop], g[~stop]
        if not len(live):
            break
    for i in np.flatnonzero(~converged):
        P_out[i] = round_reference(P_out[i], a, b)
    return P_out, iters, converged


class TestSinkhornStack:
    """The kernel-domain solver against the log-domain reference."""

    def assert_matches_reference(self, C, cfg, init=None):
        """Same iterations and flags as the reference, and costs within 1e-12
        relative where max C / eps <= 100; returns how many times a pair
        absorbed its scalings.

        Either solver's plan entries exp((f + g - C) / eps) carry a relative
        error of about u max C / eps (u = 2**-53), so the tolerance grows with
        max C / eps past 100. Over 7647 random pairs the converged ones agreed
        to 4.5 u max C / eps, and those stopped at ``max_iters``, where the
        differences compound over the iterations, to 100 u max C / eps.
        """
        absorptions = []
        logsumexp = ot._logsumexp

        def counted(x, axis):
            absorptions.append(len(x))
            return logsumexp(x, axis)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot, "_logsumexp", counted)
            P, _, _, iters, converged = _sinkhorn_stack(C, cfg, init)
        ref_P, ref_iters, ref_converged = log_sinkhorn_reference(C, cfg, init)
        assert iters.tolist() == ref_iters.tolist()
        assert converged.tolist() == ref_converged.tolist()
        cost, ref_cost = (C * P).sum(axis=(1, 2)), (C * ref_P).sum(axis=(1, 2))
        rtol = np.where(converged, 1e-14, 1e-12) * np.maximum(C.max(axis=(1, 2)) / cfg.epsilon, 100.0)
        assert (np.abs(cost - ref_cost) <= rtol * np.abs(ref_cost)).all()
        return sum(absorptions) // 2

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.sampled_from([0.05, 0.01, 0.005, 1e-3, 1e-4]),
        st.sampled_from([COSINE, SQEUCLIDEAN]),
        st.sampled_from([1.0, 30.0]),
        st.sampled_from([None, "ladder", "random"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(3, 5, 4, 1e-4, COSINE, 1.0, None, 0)  # C / eps near 1e4: kernel rows underflow to 0
    @example(2, 4, 6, 0.01, SQEUCLIDEAN, 30.0, None, 1)
    @example(2, 6, 3, 1e-3, COSINE, 1.0, "random", 2)
    def test_matches_log_domain_reference(self, k, m, n, epsilon, metric, scale, warm, seed):
        r = np.random.default_rng(seed)
        d = int(r.integers(1, 5))
        C = ot._costs(scale * r.normal(size=(k, m, d)), scale * r.normal(size=(k, n, d)), metric)
        cfg = SinkhornConfig(epsilon=epsilon, max_iters=300)
        init = None
        if warm == "ladder":
            coarse = SinkhornConfig(epsilon=10 * epsilon, max_iters=300)
            _, f, g, _, _ = _sinkhorn_stack(C, coarse)
            init = (f, g)
        elif warm == "random":
            init = (r.normal(size=(k, m)), r.normal(size=(k, n)))
        absorbed = self.assert_matches_reference(C, cfg, init)
        if init is None and (C.min(axis=2) / epsilon > 745).any():  # a kernel row underflows to 0
            assert absorbed > 0

    @pytest.mark.parametrize("epsilon", [0.05, 1e-3])
    def test_swav_scores_far_past_the_kernel_range(self, rng, epsilon):
        scores = rng.choice([-1e3, 1e3], size=(12, 4)) + rng.normal(size=(12, 4))
        cfg = SinkhornConfig(epsilon=epsilon, max_iters=300)
        assert self.assert_matches_reference(-scores[None], cfg) > 0
        plan = swav_code_plan(scores, cfg)
        np.testing.assert_allclose(plan.coupling.sum(axis=0), np.full(4, 0.25), rtol=1e-12)
        assert np.isfinite(plan.coupling).all() and all(np.isfinite(p).all() for p in plan.potentials)


def assert_feasible(P):
    """P is non-negative with uniform marginals to 1e-15."""
    m, n = P.shape
    assert (P >= 0.0).all()
    assert max(np.abs(P.sum(axis=1) - 1.0 / m).max(), np.abs(P.sum(axis=0) - 1.0 / n).max()) <= 1e-15


class TestRoundedPlans:
    """A plan that stops at ``max_iters`` without converging is its iterate rounded
    onto the polytope; its potentials, iterations and flag are the iterate's."""

    def assert_rounds_only_unconverged(self, solve):
        plan = solve()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot, "_round_to_polytope", lambda P, a, b: P)
            raw = solve()
        assert (plan.iterations_used, plan.converged) == (raw.iterations_used, raw.converged)
        assert [p.tobytes() for p in plan.potentials] == [p.tobytes() for p in raw.potentials]
        if plan.converged:
            assert plan.coupling.tobytes() == raw.coupling.tobytes()
        else:
            assert_feasible(plan.coupling)
            m, n = raw.coupling.shape
            want = round_reference(raw.coupling, np.full(m, 1.0 / m), np.full(n, 1.0 / n))
            np.testing.assert_allclose(plan.coupling, want, rtol=1e-12, atol=1e-18)
        return plan

    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0.5, 0.05, 0.01, 1e-3]),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([COSINE, SQEUCLIDEAN]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(5, 7, 0.01, 1, COSINE, 0)
    def test_sinkhorn(self, m, n, epsilon, max_iters, metric, seed):
        r = np.random.default_rng(seed)
        C = cost_matrix(r.normal(size=(m, 3)), r.normal(size=(n, 3)), metric)
        plan = self.assert_rounds_only_unconverged(lambda: sinkhorn(C, SinkhornConfig(epsilon, max_iters)))
        assert plan.cost == float(np.sum(C.entries * plan.coupling))

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("max_iters", [1, 3])
    def test_swav_code_plan(self, rng, scale, max_iters):
        scores = scale * rng.normal(size=(24, 5))
        plan = self.assert_rounds_only_unconverged(lambda: swav_code_plan(scores, SinkhornConfig(1e-3, max_iters)))
        assert not plan.converged

    @pytest.mark.parametrize("metric", [COSINE, SQEUCLIDEAN])
    def test_sinkhorn_scan(self, rng, metric):
        queries = [rng.normal(size=(m, 4)) for m in (1, 6, 9)]
        bank = [rng.normal(size=(n, 4)) for n in (1, 5, 9, 5, 12) * 3]
        cfg = SinkhornConfig(epsilon=0.01, max_iters=3)
        plans = []
        solve = ot._sinkhorn_stack

        def spy(C, cfg, init=None):
            out = solve(C, cfg, init)
            plans.extend(P for P, converged in zip(out[0], out[4]) if not converged)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot, "_sinkhorn_stack", spy)
            sinkhorn_scan(queries, bank, cfg, metric)
        got = assert_scan_matches_per_pair(queries, bank, cfg, metric)
        assert len(plans) == int((~got.converged).sum()) > 0
        for P in plans:
            assert_feasible(P)


def assert_scan_matches_per_pair(queries, bank, cfg=None, metric=COSINE):
    """Entry (i, j) of the bank scan must equal per-pair sinkhorn(cost_matrix(...)) exactly."""
    got = sinkhorn_scan(queries, bank, cfg, metric)
    assert got.costs.shape == got.iterations.shape == got.converged.shape == (len(queries), len(bank))
    for i, query in enumerate(queries):
        plans = [sinkhorn(cost_matrix(query, b, metric), cfg) for b in bank]
        assert got.costs[i].tolist() == [p.cost for p in plans]
        assert got.iterations[i].tolist() == [p.iterations_used for p in plans]
        assert got.converged[i].tolist() == [p.converged for p in plans]
    return got


class TestPairwiseSqDists:
    @pytest.mark.parametrize("left, right", [(True, False), (False, True), (True, True)])
    def test_stack_equals_each_slice(self, rng, left, right):
        a = rng.normal(size=(4, 7, 3) if left else (7, 3))
        b = rng.normal(size=(4, 5, 3) if right else (5, 3))
        got = pairwise_sq_dists(a, b)
        assert got.shape == (4, 7, 5)
        for i in range(4):
            want = pairwise_sq_dists(a[i] if left else a, b[i] if right else b)
            assert got[i].tobytes() == want.tobytes()


class TestCosineSimilarity:
    @pytest.mark.parametrize("left, right", [(True, False), (False, True), (True, True)])
    def test_stack_equals_each_slice(self, rng, left, right):
        a = rng.normal(size=(4, 7, 3) if left else (7, 3))
        b = rng.normal(size=(4, 5, 3) if right else (5, 3))
        got = cosine_similarity(a, b)
        assert got.shape == (4, 7, 5)
        for i in range(4):
            want = cosine_similarity(a[i] if left else a, b[i] if right else b)
            assert got[i].tobytes() == want.tobytes()

    def test_cosine_costs_are_its_clipped_complement(self, rng):
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        want = np.clip(1.0 - cosine_similarity(a, b), 0.0, 2.0)
        assert cost_matrix(a, b).entries.tobytes() == want.tobytes()


class TestSinkhornScan:
    @pytest.mark.parametrize("metric", [COSINE, SQEUCLIDEAN])
    def test_ragged_bank(self, rng, metric):
        bank = [rng.normal(size=(n, 6)) for n in (4, 10, 16, 4, 7, 16, 10, 4)]
        queries = [rng.normal(size=(m, 6)) for m in (12, 3, 12)]
        assert_scan_matches_per_pair(queries, bank, metric=metric)

    def test_bucket_larger_than_one_batch(self, rng):
        m, n = 16, 16
        per_batch = _SCAN_BATCH_CELLS // (m * n)
        bank = [rng.normal(size=(n, 5)) for _ in range(2 * per_batch + 3)]
        assert_scan_matches_per_pair([rng.normal(size=(m, 5)) for _ in range(2)], bank)

    def test_pair_larger_than_batch_cap(self, rng):
        m = _SCAN_BATCH_CELLS // 32 + 1
        bank = [rng.normal(size=(32, 3)) for _ in range(3)] + [rng.normal(size=(2, 3))]
        assert_scan_matches_per_pair([rng.normal(size=(m, 3)), rng.normal(size=(2, 3))], bank)

    @pytest.mark.parametrize("metric", [COSINE, SQEUCLIDEAN])
    def test_length_one_segments_and_snippets(self, rng, metric):
        bank = [rng.normal(size=(n, 4)) for n in (1, 1, 3, 1, 8)]
        got = assert_scan_matches_per_pair([rng.normal(size=(1, 4)), rng.normal(size=(1, 4))], bank, metric=metric)
        assert got.iterations.tolist() == [[1] * len(bank)] * 2  # one row: forced plan
        assert_scan_matches_per_pair([rng.normal(size=(6, 4)), rng.normal(size=(1, 4))], bank, metric=metric)

    @pytest.mark.parametrize("epsilon", [0.05, 1e-4])
    def test_identical_and_antipodal_frames(self, rng, epsilon):
        x = rng.normal(size=8)
        x /= np.linalg.norm(x)
        query = np.tile(x, (5, 1))
        bank = [np.tile(x, (3, 1)), np.tile(-x, (4, 1)), np.vstack([x, -x]), np.tile(-x, (5, 1))]
        got = assert_scan_matches_per_pair([query, -query[:2]], bank, SinkhornConfig(epsilon=epsilon))
        assert got.costs[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert got.costs[0, 1] == pytest.approx(2.0, abs=1e-6)
        assert got.costs[0, 2] == pytest.approx(1.0, abs=1e-6)
        assert got.costs[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_nonconverged_pairs_stop_at_max_iters(self, rng):
        cfg = SinkhornConfig(epsilon=0.01, max_iters=3)
        bank = [rng.normal(size=(n, 6)) for n in (1, 9, 9, 1, 12, 9)]
        got = assert_scan_matches_per_pair([rng.normal(size=(m, 6)) for m in (10, 9, 10)], bank, cfg)
        assert 0 < int((~got.converged).sum()) < got.converged.size
        assert got.iterations[~got.converged].tolist() == [3] * int((~got.converged).sum())

    def test_empty_bank(self, rng):
        got = sinkhorn_scan([rng.normal(size=(3, 2)), rng.normal(size=(5, 2))], [])
        assert got.costs.shape == got.iterations.shape == got.converged.shape == (2, 0)

    def test_no_queries(self, rng):
        got = sinkhorn_scan([], [rng.normal(size=(3, 2))] * 4)
        assert got.costs.shape == got.iterations.shape == got.converged.shape == (0, 4)

    def test_zero_norm_frame_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            sinkhorn_scan([[[1.0, 0.0]]], [np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]])])
        with pytest.raises(ValueError, match="^zero-norm frame: cosine distance undefined$"):
            sinkhorn_scan([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], [np.array([[1.0, 1.0]])])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            sinkhorn_scan([[[1.0, 0.0]]], [np.array([[1.0, 0.0, 0.0]])])
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
            sinkhorn_scan([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]], [np.array([[1.0, 0.0]])])

    def test_zero_frame_sequence_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a T x d matrix with T, d >= 1, got shape \(0, 2\)$"):
            sinkhorn_scan([[[1.0, 0.0]], np.zeros((0, 2))], [np.array([[1.0, 0.0]])])
        with pytest.raises(ValueError, match=r"^expected a T x d matrix with T, d >= 1, got shape \(0, 2\)$"):
            sinkhorn_scan([[[1.0, 0.0]]], [np.array([[1.0, 0.0]]), np.zeros((0, 2))])

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(min_value=1, max_value=9), max_size=4),
        st.lists(st.integers(min_value=1, max_value=9), max_size=8),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([COSINE, SQEUCLIDEAN]),
    )
    def test_random_grids(self, query_lengths, bank_lengths, seed, metric):
        r = np.random.default_rng(seed)
        queries = [r.normal(size=(m, 3)) for m in query_lengths]
        bank = [r.normal(size=(n, 3)) for n in bank_lengths]
        assert_scan_matches_per_pair(queries, bank, SinkhornConfig(max_iters=50), metric)


class TestTransportLowerBounds:
    @settings(max_examples=16)
    @given(
        st.sampled_from(["random", "near-parallel", "tiny-norm", "large-norm"]),
        st.sampled_from([COSINE, SQEUCLIDEAN]),
        st.sampled_from([0.05, 0.01]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example("near-parallel", COSINE, 0.05, 0)
    @example("large-norm", SQEUCLIDEAN, 0.05, 0)
    def test_bounds_every_converged_cost(self, frames, metric, epsilon, seed):
        # The bound's costs round differently from the solve's, most where they
        # nearly cancel: near-parallel unit frames (cosine costs about 1e-12)
        # and large-norm frames close together (squared distances of O(1)
        # between norms of 1e4). A one-frame query's plan is forced, so its
        # bound equals its cost but for rounding. One query takes several
        # chunks of the bank; another's chunk is shorter than the bank's last
        # snippet.
        r = np.random.default_rng(seed)
        m, long_m = _SCAN_BATCH_CELLS // 128, _SCAN_BATCH_CELLS // 64
        bank_lengths = [int(n) for n in r.integers(1, 13, size=_SCAN_BATCH_CELLS // 256)] + [80]
        assert sum(bank_lengths) > _SCAN_BATCH_CELLS // m and bank_lengths[-1] > _SCAN_BATCH_CELLS // long_m
        x = r.normal(size=(1, 16))
        x /= np.linalg.norm(x)

        def draw(t):
            noise = r.normal(size=(t, 16))
            return {"random": noise, "near-parallel": x + 1e-6 * noise, "tiny-norm": 1e-6 * noise,
                    "large-norm": 1e4 * x + noise}[frames]

        queries = [draw(1), draw(m), draw(long_m)]
        bank = [draw(n) for n in bank_lengths]
        cfg = SinkhornConfig(epsilon=epsilon, max_iters=200)
        bounds = transport_lower_bounds(queries, bank, cfg, metric)
        full = sinkhorn_scan(queries, bank, cfg, metric)
        assert full.converged.any() and (bounds >= 0.0).all()
        assert (bounds[full.converged] <= full.costs[full.converged]).all()


def per_pair_stacks(queries, bank, todo):
    """``pair_stacks`` by a per-pair Python loop, as a reference: the pairs of
    ``todo`` in row-major order, grouped by (m, n) in order of first appearance."""
    qs, js = np.nonzero(todo)
    by_shape = {}
    for p, (q, j) in enumerate(zip(qs.tolist(), js.tolist())):
        by_shape.setdefault((len(queries[q]), len(bank[j])), []).append(p)
    for (m, n), members in by_shape.items():
        per_batch = max(1, _SCAN_BATCH_CELLS // (m * n))
        for lo in range(0, len(members), per_batch):
            pos = np.array(members[lo : lo + per_batch])
            q, j = qs[pos], js[pos]
            A = queries[q[0]] if (q == q[0]).all() else np.stack([queries[i] for i in q])
            yield q, j, A, np.stack([bank[i] for i in j])


def stack_multiset(stacks):
    """The stacks as a multiset of (cells in order, query side, bank stack), compared by bytes."""
    return Counter(
        (tuple(zip(rows.tolist(), cols.tolist())), A.shape, A.tobytes(), B.shape, B.tobytes())
        for rows, cols, A, B in stacks
    )


class TestPairStacks:
    # Lengths 40 and 70 make stacks of one or two pairs under the cell cap.
    lengths = st.lists(st.sampled_from([1, 2, 3, 40, 70]), max_size=5)

    @settings(max_examples=60)
    @given(lengths, lengths, st.sampled_from(["all-true", "random", "all-false"]), st.integers(0, 2**31 - 1))
    @example([], [3, 1], "all-true", 0)
    @example([2, 1], [], "random", 0)
    @example([2], [1, 3, 1], "random", 0)
    @example([2, 3, 2], [1], "all-true", 0)
    def test_equals_per_pair_grouping(self, query_lengths, bank_lengths, mask, seed):
        r = np.random.default_rng(seed)
        queries = [r.normal(size=(m, 2)) for m in query_lengths]
        bank = [r.normal(size=(n, 2)) for n in bank_lengths]
        shape = (len(queries), len(bank))
        masks = {"all-true": np.ones(shape, bool), "random": r.random(shape) < 0.6, "all-false": np.zeros(shape, bool)}
        todo = masks[mask]
        got = list(pair_stacks(queries, bank, todo))
        assert stack_multiset(got) == stack_multiset(per_pair_stacks(queries, bank, todo))
        for rows, cols, A, B in got:
            assert len(rows) == 1 or len(rows) * A.shape[-2] * B.shape[-2] <= _SCAN_BATCH_CELLS


class TestNonFiniteCosts:
    # A raw-array bank passes no EmbeddingSequence check, so a NaN frame
    # reaches the scans, and each one rejects the costs it gives.
    @pytest.mark.parametrize("metric", [COSINE, SQEUCLIDEAN])
    @pytest.mark.parametrize("scan", [sinkhorn_scan, transport_lower_bounds, sinkhorn_top2])
    def test_nan_frame_in_raw_bank_rejected(self, rng, scan, metric):
        bank = [rng.normal(size=(n, 4)) for n in (3, 5, 3)]
        bank[1][2, 0] = np.nan
        with pytest.raises(ValueError, match=r"^cost matrix contains NaN or Inf$"):
            scan([rng.normal(size=(2, 4)), rng.normal(size=(5, 4))], bank, SinkhornConfig(), metric)


def counting(calls, inner):
    """``inner``, recording the arguments of each call in ``calls``."""
    def call(*args):
        calls.append(args)
        return inner(*args)
    return call


class TestScanFrames:
    @settings(max_examples=40)
    @given(
        st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4),
        st.lists(st.sampled_from([2, 3]), max_size=12),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @example([2, 2, 3], [2] * 12, True, 0)
    @example([2, 2, 3], [2] * 12, False, 0)
    def test_one_check_raises_the_first_mismatch_before_any_solve(self, query_dims, bank_dims, mixed, seed):
        # Unmixed, every dimension is the first query's, so every scan runs to
        # the end: top2 over up to 12 snippets, more than its first pass takes.
        if not mixed:
            bank_dims = [query_dims[0]] * len(bank_dims)
            query_dims = [query_dims[0]] * len(query_dims)
        r = np.random.default_rng(seed)
        queries = [r.normal(size=(int(r.integers(1, 5)), d)) for d in query_dims]
        bank = [r.normal(size=(int(r.integers(1, 5)), d)) for d in bank_dims]
        first = next((f"dimension mismatch: {dq} vs {db}" for dq in query_dims for db in bank_dims if dq != db), None)
        for scan in (sinkhorn_scan, transport_lower_bounds, sinkhorn_top2, tcc.tcc_scan):
            checks, solves = [], []
            with pytest.MonkeyPatch.context() as mp:
                check = counting(checks, ot.scan_frames)
                mp.setattr(ot, "scan_frames", check)
                mp.setattr(tcc, "scan_frames", check)
                mp.setattr(ot, "_solve_pairs", counting(solves, ot._solve_pairs))
                mp.setattr(tcc, "_cycle", counting(solves, tcc._cycle))
                if first is None:
                    scan(queries, bank)
                else:
                    with pytest.raises(ValueError, match=f"^{re.escape(first)}$"):
                        scan(queries, bank)
                    assert solves == [], scan.__name__
            assert len(checks) == 1, scan.__name__


class TestOtDistance:
    def test_identical_single_frame(self):
        a = EmbeddingSequence([[0.3, 0.4]])
        assert ot_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_forced_coupling_half_mass(self):
        # only feasible coupling is [[.5], [.5]]: half the mass pays cost 1
        a = EmbeddingSequence([[1.0, 0.0], [0.0, 1.0]])
        b = EmbeddingSequence([[1.0, 0.0]])
        assert ot_distance(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_permutation_invariance(self, rng):
        for _ in range(10):
            A = rng.normal(size=(int(rng.integers(2, 10)), 6))
            B = rng.normal(size=(int(rng.integers(2, 10)), 6))
            d1 = ot_distance(A, B)
            d2 = ot_distance(A[rng.permutation(len(A))], B)
            assert abs(d1 - d2) <= 1e-9

    def test_symmetry(self, rng):
        cfg = SinkhornConfig(tol_marginal=1e-9, max_iters=5000)
        for _ in range(5):
            A = rng.normal(size=(5, 6))
            B = rng.normal(size=(7, 6))
            assert ot_distance(A, B, cfg) == pytest.approx(ot_distance(B, A, cfg), abs=1e-8)


class TestExactSmall:
    def test_antidiagonal_zero(self):
        assert exact_ot_small(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)

    def test_1x1(self):
        assert exact_ot_small(np.array([[1.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            exact_ot_small(np.zeros((5, 4)))

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_empty_cost_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"^cost must be a non-empty 2-D matrix, got shape \({shape[0]}, {shape[1]}\)$"):
            exact_ot_small(np.zeros(shape))

    def test_lower_bounds_sampled_feasible_plans(self, rng):
        C = rng.uniform(size=(2, 3))
        best = exact_ot_small(C)
        for _ in range(1000):
            plan = sample_feasible_2x3(rng)
            assert best <= float(np.sum(plan * C)) + 1e-12

    def test_matches_sinkhorn_limit(self, rng):
        for _ in range(5):
            C = rng.uniform(size=(2, 3))
            exact = exact_ot_small(C)
            init = None
            for k in range(9):
                cfg = SinkhornConfig(epsilon=0.5 * 2**-k, max_iters=20000, tol_marginal=1e-9)
                plan = sinkhorn(C, cfg, init=init)
                init = plan.potentials
            assert plan.cost == pytest.approx(exact, abs=1e-2)


class TestSwavCodes:
    def test_single_cell(self):
        np.testing.assert_allclose(swav_codes(np.array([[3.0]])), [[1.0]], atol=1e-12)

    def test_uniform_scores_give_uniform_codes(self):
        Q = swav_codes(np.zeros((2, 2)))
        np.testing.assert_allclose(Q, np.full((2, 2), 0.25), atol=1e-9)

    def test_block_scores_split_mass_evenly(self):
        scores = np.array(
            [[5.0, 0.0], [5.0, 0.0], [0.0, 5.0], [0.0, 5.0]]
        )
        Q = swav_codes(scores, SinkhornConfig(max_iters=5000))
        np.testing.assert_allclose(Q.sum(axis=0), [0.5, 0.5], atol=1e-6)
        np.testing.assert_allclose(Q.sum(axis=1), np.full(4, 0.25), atol=1e-6)
        # block structure: each sample's mass concentrates on its prototype
        assert Q[0, 0] > Q[0, 1] and Q[2, 1] > Q[2, 0]

    def test_equal_partition_marginals(self, rng):
        scores = rng.normal(size=(16, 5))
        plan = swav_code_plan(scores, SinkhornConfig(max_iters=5000))
        assert plan.converged
        Q = plan.coupling
        np.testing.assert_allclose(Q.sum(axis=1), np.full(16, 1 / 16), atol=1e-6)
        np.testing.assert_allclose(Q.sum(axis=0), np.full(5, 1 / 5), atol=1e-6)

    def test_maximizes_regularized_objective(self, rng):
        eps = 0.05
        scores = rng.normal(size=(6, 4))
        Q = swav_codes(scores, SinkhornConfig(epsilon=eps, max_iters=20000, tol_marginal=1e-10))

        def objective(M):
            logs = np.where(M > 0, np.log(np.where(M > 0, M, 1.0)), 0.0)
            return float(np.sum(M * scores) - eps * np.sum(M * logs))

        best = objective(Q)
        for _ in range(200):
            # random feasible competitor via Sinkhorn projection of noise
            R = rng.uniform(0.1, 1.0, size=(6, 4))
            M = sinkhorn(-np.log(R), SinkhornConfig(epsilon=1.0, max_iters=2000)).coupling
            assert best >= objective(M) - 1e-6

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            swav_codes(np.array([[np.inf, 0.0]]))
