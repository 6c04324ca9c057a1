import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqmatch import ot
from seqmatch.ot import (
    COSINE, SQEUCLIDEAN, ScanResult, SinkhornConfig, sinkhorn_scan, sinkhorn_top2, transport_lower_bounds,
)
from seqmatch.retrieval import RetrievalConfig, segment
from seqmatch.synthgen import GenConfig, gen_benchmark


def only_row(result):
    """The one row of a scan of a single query."""
    assert all(field.shape[0] == 1 for field in result)
    return ScanResult(*(field[0] for field in result))


def top2_passes(queries, bank, cfg=None, metric=COSINE):
    """``sinkhorn_top2``'s result and the number of ``_solve_pairs`` passes it made."""
    passes = []
    solve = ot._solve_pairs

    def counted(*args):
        passes.append(len(args[2]))
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ot, "_solve_pairs", counted)
        return sinkhorn_top2(queries, bank, cfg, metric), len(passes)


def assert_top2_matches_scan(query, bank, cfg=None, metric=COSINE):
    """The pruned scan must solve every pair that can be the cheapest or the runner-up,
    exactly as the full scan does, in at most two passes whether or not its solves
    converge, and mark every other pair unsolved, each with a bound above the runner-up."""
    full = only_row(sinkhorn_scan([query], bank, cfg, metric))
    got, passes = top2_passes([query], bank, cfg, metric)
    assert passes <= 2
    got = only_row(got)
    solved = got.iterations > 0
    assert got.costs[solved].tolist() == full.costs[solved].tolist()
    assert got.iterations[solved].tolist() == full.iterations[solved].tolist()
    assert got.converged[solved].tolist() == full.converged[solved].tolist()
    assert np.isposinf(got.costs[~solved]).all() and not got.converged[~solved].any()
    if len(bank) >= 2:
        runner_up = np.sort(got.costs)[1]
        assert runner_up == np.sort(full.costs)[1] and solved[full.costs <= runner_up].all()
        assert (transport_lower_bounds([query], bank, cfg, metric)[0][~solved] > runner_up).all()
    return got


def near_copy_bank(seed, n_random, n_copies, m):
    """A random m x 3 query and a shuffled bank of ``n_random`` random snippets and
    ``n_copies`` noisy copies of some of the query's rows."""
    rng = np.random.default_rng(seed)
    query = rng.normal(size=(m, 3))
    bank = [rng.normal(size=(int(rng.integers(1, 9)), 3)) for _ in range(n_random)]
    for _ in range(n_copies):
        rows = np.sort(rng.integers(0, m, size=int(rng.integers(1, 9))))
        bank.append(query[rows] + rng.uniform(0.001, 0.2) * rng.normal(size=(len(rows), 3)))
    return query, [bank[j] for j in rng.permutation(len(bank))]


class TestSinkhornTop2:
    @pytest.mark.parametrize("metric", [COSINE, SQEUCLIDEAN])
    def test_prunes_ragged_bank(self, rng, metric):
        query = rng.normal(size=(12, 6))
        bank = [query[:n] + 0.1 * rng.normal(size=(n, 6)) for n in (4, 12, 7)]
        bank += [rng.normal(size=(n, 6)) for n in (4, 10, 16, 4, 7, 16, 10, 4) * 5]
        cfg = SinkhornConfig(epsilon={COSINE: 0.5, SQEUCLIDEAN: 5.0}[metric])
        got = assert_top2_matches_scan(query, bank, cfg, metric)
        assert got.converged[got.iterations > 0].all()
        assert 2 <= int((got.iterations > 0).sum()) < len(bank)

    @pytest.mark.parametrize("metric", [COSINE, SQEUCLIDEAN])
    def test_lower_bounds_hold(self, rng, metric):
        queries = [rng.normal(size=(m, 5)) for m in (9, 1, 14, 9)]
        bank = [rng.normal(size=(n, 5)) for n in (1, 3, 9, 14) * 6]
        for cfg in (SinkhornConfig(), SinkhornConfig(epsilon=0.01, max_iters=3)):
            bounds = transport_lower_bounds(queries, bank, cfg, metric)
            full = sinkhorn_scan(queries, bank, cfg, metric)
            assert bounds.shape == (len(queries), len(bank))
            assert (bounds <= full.costs).all()
            assert (bounds >= 0.0).all()
            for query, row in zip(queries, bounds):  # the grid's rows are the one-query bounds
                assert row.tolist() == transport_lower_bounds([query], bank, cfg, metric)[0].tolist()

    def test_lower_bounds_of_empty_grids(self, rng):
        queries = [rng.normal(size=(m, 2)) for m in (3, 1)]
        assert transport_lower_bounds(queries, []).shape == (2, 0)
        assert transport_lower_bounds([], [rng.normal(size=(4, 2))] * 3).shape == (0, 3)

    def test_lower_bounds_unknown_metric_rejected(self, rng):
        # The metric is checked after the empty-grid return: an empty grid has no cost to name.
        queries, bank = [rng.normal(size=(3, 2))], [rng.normal(size=(4, 2))]
        assert transport_lower_bounds([], bank, metric="bogus").shape == (0, 1)
        with pytest.raises(ValueError, match=r"^unknown metric 'bogus'$"):
            transport_lower_bounds(queries, bank, metric="bogus")

    def test_exact_ties_all_solved(self, rng):
        query = rng.normal(size=(6, 4))
        best, runner_up = query[:3] + 0.01, query + 0.2 * rng.normal(size=(6, 4))
        bank = [rng.normal(size=(5, 4)) for _ in range(30)] + [best, runner_up, best, runner_up, best]
        got = assert_top2_matches_scan(query, bank)
        assert (got.iterations[-5:] > 0).all()
        assert got.costs[-5] == got.costs[-3] == got.costs[-1]

    @pytest.mark.parametrize("round_size", [2, 3])
    def test_small_rounds_stop_at_the_runner_up(self, monkeypatch, round_size):
        # with rounds this small, stopping on the best cost instead of the
        # runner-up's, or on a bound equal to it, leaves a pick or a tie unsolved
        monkeypatch.setattr(ot, "_PRUNE_ROUND", round_size)
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=2, seed=8))
        bank = [s.sequence for s in db.snippets]
        cfg = RetrievalConfig(distance=None, segment_count=2)
        for robot in robot_set:
            for start, end in segment(robot.sequence, cfg):
                assert_top2_matches_scan(robot.sequence.frames[start:end], bank)
        e = np.eye(4)
        assert_top2_matches_scan(np.tile(e[0], (3, 1)), [np.tile(e[0], (2, 1))] * 5 + [e[1:]] * 4)
        # decoys whose bound is 0 but whose cost is 0.5, ahead of a runner-up bounded above the best
        query = e[[0, 0, 0, 1]]
        near = np.array([e[0] + 0.15 * e[2]] * 3 + [e[1]])
        got = assert_top2_matches_scan(query, [query] + [e[[0, 1, 1, 1]]] * 8 + [near])
        assert got.iterations[-1] > 0

    def test_desk_hard_bank_takes_two_passes(self):
        # the second pass solves every pair bounded at or below a runner-up,
        # so nothing is left for a third
        robot_set, db = gen_benchmark("hard", GenConfig(seed=0))
        cfg = RetrievalConfig(distance=None, segment_count=2)
        queries = [r.sequence.frames[a:b] for r in robot_set for a, b in segment(r.sequence, cfg)]
        got, passes = top2_passes(queries, [s.sequence for s in db.snippets])
        assert passes == 2
        assert got.converged[got.iterations > 0].all() and not (got.iterations > 0).all()

    @pytest.mark.parametrize("round_size", [10, 11, 40])
    def test_first_pass_as_wide_as_the_bank_solves_it(self, monkeypatch, rng, round_size):
        monkeypatch.setattr(ot, "_PRUNE_ROUND", round_size)
        queries = [rng.normal(size=(m, 3)) for m in (4, 7, 1)]
        bank = [rng.normal(size=(n, 3)) for n in (1, 5, 8, 5, 2) * 2]
        got, passes = top2_passes(queries, bank)
        assert passes == 1 and (got.iterations > 0).all()
        full = sinkhorn_scan(queries, bank)
        assert got.costs.tolist() == full.costs.tolist()
        assert got.iterations.tolist() == full.iterations.tolist()

    def test_failed_second_pass_needs_no_third(self):
        # every solve of the first pass converges, and one of the second pass does
        # not: its plan is rounded, so its bound holds and the rest stays pruned
        query, bank = near_copy_bank(71, 22, 1, 5)
        cfg = SinkhornConfig(epsilon=0.035, max_iters=264)
        _, passes = top2_passes([query], bank, cfg)
        assert passes == 2
        got = assert_top2_matches_scan(query, bank, cfg)
        first = np.argsort(transport_lower_bounds([query], bank, cfg)[0], kind="stable")[: ot._PRUNE_ROUND]
        solved = got.iterations > 0
        assert got.converged[first].all() and not got.converged[solved].all() and not solved.all()

    def test_nonconvergence_keeps_pruning_on(self, rng):
        bank = [rng.normal(size=(n, 6)) for n in (1, 9, 9, 1, 12, 9) * 4]
        got = assert_top2_matches_scan(rng.normal(size=(10, 6)), bank, SinkhornConfig(epsilon=0.01, max_iters=1))
        solved = got.iterations > 0
        assert not got.converged[solved].any() and not solved.all()

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([0.05, 0.01]),
        st.sampled_from([COSINE, SQEUCLIDEAN]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_bound_holds_for_unconverged_plans(self, query_lengths, bank_lengths, max_iters, epsilon, metric, seed):
        rng = np.random.default_rng(seed)
        queries = [rng.normal(size=(m, 4)) for m in query_lengths]
        bank = [rng.normal(size=(n, 4)) for n in bank_lengths]
        cfg = SinkhornConfig(epsilon=epsilon, max_iters=max_iters)
        full = sinkhorn_scan(queries, bank, cfg, metric)
        assert (transport_lower_bounds(queries, bank, cfg, metric) <= full.costs).all()

    def test_bound_holds_for_unconverged_desk_plans(self):
        # one iteration leaves every plan of desk hard (seed 1, K'=2) unconverged;
        # unrounded, 380 of them cost less than their bound
        robot_set, db = gen_benchmark("hard", GenConfig(seed=1))
        segmentation = RetrievalConfig(distance=None, segment_count=2)
        queries = [r.sequence.frames[a:b] for r in robot_set for a, b in segment(r.sequence, segmentation)]
        bank = [s.sequence for s in db.snippets]
        cfg = SinkhornConfig(max_iters=1)
        full = sinkhorn_scan(queries, bank, cfg)
        assert not full.converged.any()
        assert (transport_lower_bounds(queries, bank, cfg) <= full.costs).all()

    def test_single_snippet_and_empty_bank(self, rng):
        got = assert_top2_matches_scan(rng.normal(size=(3, 2)), [rng.normal(size=(4, 2))])
        assert got.iterations[0] > 0
        got = sinkhorn_top2([rng.normal(size=(3, 2)), rng.normal(size=(1, 2))], [])
        assert got.costs.shape == got.iterations.shape == got.converged.shape == (2, 0)
        got = sinkhorn_top2([], [rng.normal(size=(4, 2))] * 3)
        assert got.costs.shape == got.iterations.shape == got.converged.shape == (0, 3)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            sinkhorn_top2([[[1.0, 0.0]]], [np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]])])
        with pytest.raises(ValueError, match="dimension"):
            sinkhorn_top2([[[1.0, 0.0]]], [np.array([[1.0, 0.0, 0.0]])])
        with pytest.raises(ValueError, match=r"^expected a T x d matrix with T, d >= 1, got shape \(0, 2\)$"):
            sinkhorn_top2([np.zeros((0, 2))], [np.array([[1.0, 0.0]])])

    def test_invalid_second_query_rejected(self):
        bank = [np.array([[1.0, 1.0]]), np.array([[0.5, 1.0], [1.0, 0.0]])]
        with pytest.raises(ValueError, match="^zero-norm frame: cosine distance undefined$"):
            sinkhorn_top2([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], bank)
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
            sinkhorn_top2([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]], bank)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([COSINE, SQEUCLIDEAN]),
        st.one_of(st.integers(min_value=2, max_value=20), st.just(1000)),
    )
    @example([3, 1, 3], 0, 1, COSINE, 1000)  # empty bank
    @example([2, 5], 1, 2, SQEUCLIDEAN, 3)  # one-snippet bank
    def test_lockstep_equals_one_query_calls(self, lengths, n_random, seed, metric, max_iters):
        # queries of mixed lengths against a ragged bank holding exact duplicates
        # and near-copies of the queries, which converge first and set a low runner-up
        rng = np.random.default_rng(seed)
        queries = [rng.normal(size=(m, 3)) for m in lengths]
        bank = [rng.normal(size=(int(rng.integers(1, 9)), 3)) for _ in range(n_random)]
        bank += bank[: n_random // 3]
        if n_random > 1:
            bank += [q[: int(rng.integers(1, len(q) + 1))] + 0.05 * rng.normal(size=(1, 3)) for q in queries]
        bank = [bank[j] for j in rng.permutation(len(bank))]
        cfg = SinkhornConfig(epsilon=0.02 if max_iters < 1000 else 0.5, max_iters=max_iters)
        got, passes = top2_passes(queries, bank, cfg, metric)
        assert passes <= 2
        assert got.costs.shape == (len(queries), len(bank))
        for i, query in enumerate(queries):
            want = only_row(sinkhorn_top2([query], bank, cfg, metric))
            assert got.costs[i].tolist() == want.costs.tolist()
            assert got.iterations[i].tolist() == want.iterations.tolist()
            assert got.converged[i].tolist() == want.converged.tolist()

    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([COSINE, SQEUCLIDEAN]),
        st.sampled_from([0.2, 1.0]),
    )
    def test_random_ragged_banks(self, n_snippets, m, seed, metric, epsilon):
        rng = np.random.default_rng(seed)
        query = rng.normal(size=(m, 3))
        bank = [rng.normal(size=(int(rng.integers(1, 9)), 3)) for _ in range(n_snippets)]
        assert_top2_matches_scan(query, bank, SinkhornConfig(epsilon=epsilon), metric)

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=300),
        st.floats(min_value=0.003, max_value=0.05),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([COSINE, SQEUCLIDEAN]),
    )
    # random draws rarely prune a pair that does not converge; these prune 8 and 3 such pairs
    @example(26, 2, 2, 216, 0.018, 1812741671, COSINE)
    @example(13, 1, 3, 280, 0.0497, 737112299, SQEUCLIDEAN)
    def test_picks_match_scan_when_solves_do_not_converge(
        self, n_random, n_copies, m, max_iters, epsilon, seed, metric
    ):
        # near-copies of the query converge first and set a low runner-up, so
        # pruning skips random snippets that may not converge
        query, bank = near_copy_bank(seed, n_random, n_copies, m)
        cfg = SinkhornConfig(epsilon=epsilon, max_iters=max_iters)
        got = assert_top2_matches_scan(query, bank, cfg, metric)
        full = only_row(sinkhorn_scan([query], bank, cfg, metric))
        assert np.argmin(got.costs) == np.argmin(full.costs)
        assert np.partition(got.costs, 1)[1] == np.partition(full.costs, 1)[1]
