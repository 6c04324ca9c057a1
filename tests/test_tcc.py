import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqmatch import tcc
from seqmatch.data import EmbeddingSequence
from seqmatch.ot import _SCAN_BATCH_CELLS, pair_stacks
from seqmatch.tcc import (
    CycleTrace,
    TccConfig,
    soft_nearest_neighbor,
    tcc_distance,
    tcc_distance_symmetric,
    tcc_frame_loss,
    tcc_scan,
)


def oracle_tcc(A, B, temperature, squared=True):
    """Straight-line re-evaluation: scalar loops, plain exp softmax."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)

    def soft_nn(q, K):
        w = np.array([math.exp(-float(np.sum((q - k) ** 2)) / temperature) for k in K])
        w = w / w.sum()
        return w, sum(wi * ki for wi, ki in zip(w, K))

    total = 0.0
    for t in range(len(A)):
        _, zh = soft_nn(A[t], B)
        _, zr = soft_nn(zh, A)
        sq = float(np.sum((A[t] - zr) ** 2))
        total += sq if squared else math.sqrt(sq)
    return total


class TestSoftNearestNeighbor:
    def test_single_key(self):
        w, v = soft_nearest_neighbor(np.array([5.0, 5.0]), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(w, [1.0])
        np.testing.assert_allclose(v, [1.0, 2.0])

    def test_equidistant_keys_give_midpoint(self):
        keys = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w, v = soft_nearest_neighbor(np.array([0.0, 3.0]), keys)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(v, [0.0, 0.0], atol=1e-12)

    def test_softmax_of_negative_squared_distances(self):
        # distances 0 and 2 at temperature 1: weights = softmax(0, -2)
        keys = np.array([[1.0, 0.0], [0.0, 1.0]])
        w, v = soft_nearest_neighbor(np.array([1.0, 0.0]), keys, TccConfig(temperature=1.0))
        expect = 1.0 / (1.0 + math.exp(-2.0))
        np.testing.assert_allclose(w, [expect, 1.0 - expect], atol=1e-12)
        np.testing.assert_allclose(v, [expect, 1.0 - expect], atol=1e-12)

    def test_weights_scale_with_temperature(self):
        keys = np.array([[1.0, 0.0], [0.0, 1.0]])
        w_cold, _ = soft_nearest_neighbor(np.array([1.0, 0.0]), keys, TccConfig(temperature=0.01))
        assert w_cold[0] > 1.0 - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            soft_nearest_neighbor(np.array([1.0, 0.0, 0.0]), np.array([[1.0, 0.0]]))

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_weights_form_distribution(self, n_keys, seed, temperature):
        rng = np.random.default_rng(seed)
        w, _ = soft_nearest_neighbor(
            rng.normal(size=3), rng.normal(size=(n_keys, 3)), TccConfig(temperature=temperature)
        )
        assert abs(w.sum() - 1.0) <= 1e-9
        assert (w >= 0).all()


class TestFrameLoss:
    def test_single_identical_frame(self):
        a = EmbeddingSequence([[0.6, 0.8]])
        loss, trace = tcc_frame_loss(0, a, a)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert isinstance(trace, CycleTrace)
        np.testing.assert_allclose(trace.alpha, [1.0])
        np.testing.assert_allclose(trace.beta, [1.0])

    def test_hand_evaluated_cycle(self):
        # soft neighbor is forced to b's only frame; cycling back lands on
        # the mean of a's two symmetric frames, so the gap is (0.5, -0.5)
        a = EmbeddingSequence([[1.0, 0.0], [0.0, 1.0]])
        b = EmbeddingSequence([[math.sqrt(0.5), math.sqrt(0.5)]])
        loss, trace = tcc_frame_loss(0, a, b)
        np.testing.assert_allclose(trace.soft_neighbor, b.frames[0])
        np.testing.assert_allclose(trace.beta, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(trace.cycled_back, [0.5, 0.5], atol=1e-12)
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_antipodal_identity_hard_limit(self):
        a = EmbeddingSequence([[1.0, 0.0], [-1.0, 0.0]])
        for t in range(2):
            loss, _ = tcc_frame_loss(t, a, a, TccConfig(temperature=0.01))
            assert loss <= 1e-12

    def test_index_out_of_range(self):
        a = EmbeddingSequence([[1.0, 0.0]])
        with pytest.raises(IndexError):
            tcc_frame_loss(1, a, a)

    def test_losses_never_negative(self, rng):
        A = rng.normal(size=(5, 4))
        B = rng.normal(size=(3, 4))
        for t in range(5):
            loss, _ = tcc_frame_loss(t, A, B)
            assert loss >= 0.0


class TestTccDistance:
    def test_single_frame_identity(self):
        a = EmbeddingSequence([[0.0, 1.0]])
        assert tcc_distance(a, a) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_empty_frame_matrix_rejected(self, shape):
        message = rf"^expected a T x d matrix with T, d >= 1, got shape \({shape[0]}, {shape[1]}\)$"
        with pytest.raises(ValueError, match=message):
            tcc_distance(np.ones((2, 2)), np.zeros(shape))
        with pytest.raises(ValueError, match=message):
            tcc_distance(np.zeros(shape), np.ones((2, 2)))

    def test_identity_approaches_zero_monotonically(self, rng):
        frames = np.eye(8)  # well-separated unit anchors
        seq = EmbeddingSequence(frames)
        values = [
            tcc_distance(seq, seq, TccConfig(temperature=tau))
            for tau in (1.0, 0.3, 0.1, 0.03, 0.01)
        ]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))
        assert values[-1] <= 1e-6

    def test_merged_clip_losses_bounded_away_from_zero(self):
        # robot does A then B; the demo clip blends both tasks at once, so
        # every cycle lands between the two robot clusters
        A = np.array([1.0, 0.0])
        B = np.array([0.0, 1.0])
        robot = EmbeddingSequence(np.vstack([np.tile(A, (4, 1)), np.tile(B, (4, 1))]))
        merged = (A + B) / np.linalg.norm(A + B)
        demo = EmbeddingSequence(np.tile(merged, (4, 1)))
        for t in range(robot.n_frames):
            loss, _ = tcc_frame_loss(t, robot, demo)
            assert loss > 0.1

    def test_matches_frame_loss_sum(self, rng):
        A = rng.normal(size=(6, 5))
        B = rng.normal(size=(4, 5))
        total = sum(tcc_frame_loss(t, A, B)[0] for t in range(6))
        assert tcc_distance(A, B) == pytest.approx(total, abs=1e-12)

    def test_matches_straight_line_oracle(self, rng):
        for _ in range(10):
            A = rng.normal(size=(int(rng.integers(1, 7)), 4))
            B = rng.normal(size=(int(rng.integers(1, 7)), 4))
            assert tcc_distance(A, B, TccConfig(temperature=0.7)) == pytest.approx(
                oracle_tcc(A, B, 0.7), abs=1e-10
            )

    def test_asymmetric(self):
        a = EmbeddingSequence(np.vstack([np.eye(3), np.eye(3)[:1]]))
        b = EmbeddingSequence(np.eye(3)[:2] * 0.5)
        assert tcc_distance(a, b) != pytest.approx(tcc_distance(b, a), abs=1e-6)
        sym = tcc_distance_symmetric(a, b)
        assert sym == pytest.approx(0.5 * (tcc_distance(a, b) + tcc_distance(b, a)), abs=1e-12)

    def test_unsquared_variant(self, rng):
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(2, 4))
        cfg = TccConfig(temperature=0.5, squared=False)
        assert tcc_distance(A, B, cfg) == pytest.approx(
            oracle_tcc(A, B, 0.5, squared=False), abs=1e-10
        )

    def test_shuffle_leaves_distance_unchanged(self, rng):
        # the cycle distance only sees frame multisets, so reordering either
        # side cannot move it (OT shares this invariance)
        A = rng.normal(size=(8, 4))
        B = rng.normal(size=(5, 4))
        base = tcc_distance(A, B)
        for _ in range(5):
            assert tcc_distance(A[rng.permutation(8)], B) == pytest.approx(base, abs=1e-12)
            assert tcc_distance(A, B[rng.permutation(5)]) == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch(self):
        # One check, ot.scan_frames, and one message for every entry point.
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 4$"):
            tcc_distance(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="^dimension mismatch: 4 vs 3$"):
            tcc_distance_symmetric(np.zeros((2, 4)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 4$"):
            tcc_frame_loss(0, np.zeros((2, 3)), np.zeros((2, 4)))

    def test_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            TccConfig(temperature=0.0)

    @pytest.mark.parametrize("value", [True, "0.1"], ids=["bool", "str"])
    def test_non_real_temperature_rejected(self, value):
        with pytest.raises(ValueError, match=f"^temperature must be finite and > 0, got {value}$"):
            TccConfig(temperature=value)

    @pytest.mark.parametrize("value", ["no", 1, None], ids=["str", "int", "none"])
    def test_non_bool_squared_rejected(self, value):
        with pytest.raises(ValueError, match=f"^squared must be a bool, got {value!r}$"):
            TccConfig(squared=value)


CONFIGS = [
    TccConfig(),
    TccConfig(squared=False),
    TccConfig(temperature=0.01),
    TccConfig(temperature=0.5, squared=False),
    TccConfig(temperature=3.0),
]


def assert_scan_matches_per_pair(queries, bank, cfg):
    """Entry (i, j) of both directions of the bank scan must equal the per-pair functions exactly."""
    for symmetric, fn in ((False, tcc_distance), (True, tcc_distance_symmetric)):
        got = tcc_scan(queries, bank, cfg, symmetric)
        assert got.shape == (len(queries), len(bank))
        assert got.tolist() == [[fn(query, b, cfg) for b in bank] for query in queries]


class TestTccScan:
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_ragged_bank(self, rng, cfg):
        bank = [rng.normal(size=(n, 6)) for n in (4, 10, 16, 4, 7, 16, 10, 4)]
        queries = [rng.normal(size=(m, 6)) for m in (12, 3, 12, 16, 1)]
        assert_scan_matches_per_pair(queries, bank, cfg)

    def test_bucket_larger_than_one_batch(self, rng):
        m, n = 16, 16
        per_batch = _SCAN_BATCH_CELLS // (m * n)
        bank = [rng.normal(size=(n, 5)) for _ in range(2 * per_batch + 3)]
        assert_scan_matches_per_pair([rng.normal(size=(m, 5)) for _ in range(3)], bank, TccConfig())

    def test_pair_larger_than_batch_cap(self, rng):
        m = _SCAN_BATCH_CELLS // 32 + 1
        bank = [rng.normal(size=(32, 3)) for _ in range(3)] + [rng.normal(size=(2, 3))]
        assert_scan_matches_per_pair([rng.normal(size=(m, 3)), rng.normal(size=(2, 3))], bank, TccConfig())

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_length_one_queries_and_snippets(self, rng, cfg):
        bank = [rng.normal(size=(n, 4)) for n in (1, 1, 3, 1, 8)]
        assert_scan_matches_per_pair([rng.normal(size=(1, 4)), rng.normal(size=(1, 4))], bank, cfg)
        assert_scan_matches_per_pair([rng.normal(size=(6, 4)), rng.normal(size=(1, 4))], bank, cfg)

    def test_sequences_and_arrays_mixed(self, rng):
        bank = [EmbeddingSequence(rng.normal(size=(5, 3))), rng.normal(size=(2, 3))]
        queries = [EmbeddingSequence(rng.normal(size=(4, 3))), rng.normal(size=(2, 3))]
        assert_scan_matches_per_pair(queries, bank, TccConfig())

    def test_bank_stacked_once_per_query_length(self, rng, monkeypatch):
        bank = [rng.normal(size=(n, 6)) for n in (4, 10, 16, 4, 7, 16, 10, 4)]
        queries = [rng.normal(size=(m, 6)) for m in (12, 3, 12, 16, 3, 12)]
        calls = []

        def counted(query_side, frames, todo):
            calls.append([len(q) for q in query_side])
            return pair_stacks(query_side, frames, todo)

        monkeypatch.setattr(tcc, "pair_stacks", counted)
        assert_scan_matches_per_pair(queries, bank, TccConfig())
        assert calls == [[3], [12], [16]] * 2  # the directed scan, then the symmetric one

    def test_empty_bank(self, rng):
        queries = [rng.normal(size=(3, 2)), rng.normal(size=(5, 2))]
        assert tcc_scan(queries, []).shape == (2, 0)
        assert tcc_scan(queries, [], symmetric=True).shape == (2, 0)

    def test_no_queries(self, rng):
        bank = [rng.normal(size=(3, 2))] * 4
        assert tcc_scan([], bank).shape == (0, 4)
        assert tcc_scan([], bank, symmetric=True).shape == (0, 4)

    def test_zero_frame_snippet_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a T x d matrix with T, d >= 1, got shape \(0, 2\)$"):
            tcc_scan([[[1.0, 0.0]]], [np.array([[1.0, 0.0]]), np.zeros((0, 2))])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            tcc_scan([[[1.0, 0.0]]], [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])])
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
            tcc_scan([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]], [np.array([[1.0, 0.0]])])

    @given(
        query_lengths=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        lengths=st.lists(st.integers(1, 9), max_size=12),
        temperature=st.sampled_from([0.01, 0.1, 1.0, 3.0]),
        squared=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_random_banks(self, query_lengths, lengths, temperature, squared, seed):
        r = np.random.default_rng(seed)
        bank = [r.normal(size=(n, 3)) for n in lengths]
        queries = [r.normal(size=(m, 3)) for m in query_lengths]
        assert_scan_matches_per_pair(queries, bank, TccConfig(temperature, squared))
