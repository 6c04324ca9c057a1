import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmatch.data import EmbeddingSequence
from seqmatch.ot import (
    _SCAN_BATCH_CELLS,
    COSINE,
    SQEUCLIDEAN,
    CostMatrix,
    SinkhornConfig,
    cosine_similarity,
    cost_matrix,
    exact_ot_small,
    ot_distance,
    pairwise_sq_dists,
    sinkhorn,
    sinkhorn_scan,
    swav_code_plan,
    swav_codes,
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
