import math

import numpy as np
import pytest

from seqmatch.data import EmbeddingSequence
from seqmatch.losses import (
    LossWeights,
    TimeContrastiveConfig,
    combined_loss,
    swav_assignment_loss,
    swav_two_view_loss,
    task_alignment_loss,
    task_alignment_loss_from_distances,
    time_contrastive_loss,
    time_contrastive_loss_from_similarity,
)
from seqmatch.ot import SinkhornConfig, swav_codes


def oracle_time_loss(frames, window, temperature, log_form=False):
    """Straight-line re-evaluation with raw exponentials."""
    frames = np.asarray(frames, dtype=np.float64)
    T = len(frames)
    norms = np.linalg.norm(frames, axis=1)
    total = 0.0
    for t in range(T):
        pos = [k for k in range(T) if k != t and abs(k - t) <= window]
        neg = [k for k in range(T) if abs(k - t) > window]
        if not pos:
            continue
        def sim(i, j):
            return float(frames[i] @ frames[j]) / (norms[i] * norms[j])
        denom_neg = sum(math.exp(sim(t, k) / temperature) for k in neg)
        for p in pos:
            e = math.exp(sim(t, p) / temperature)
            ratio = e / (e + denom_neg)
            total += -math.log(ratio) if log_form else -ratio
    return total


def oracle_task_loss(D, log_form=False):
    D = np.asarray(D, dtype=np.float64)
    total = 0.0
    for i in range(len(D)):
        num = math.exp(-D[i, i])
        denom = num + sum(math.exp(-D[i, j]) for j in range(len(D)) if j != i)
        total += -math.log(num / denom) if log_form else -(num / denom)
    return total


def oracle_swav_loss(scores, codes, temperature=1.0):
    scores = np.asarray(scores, dtype=np.float64) / temperature
    codes = np.asarray(codes, dtype=np.float64)
    total = 0.0
    for b in range(len(scores)):
        z = sum(math.exp(s) for s in scores[b])
        total += -sum(
            codes[b, k] * (scores[b, k] - math.log(z)) for k in range(scores.shape[1])
        )
    return total / len(scores)


def row_entropy(codes):
    codes = np.asarray(codes, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(codes > 0, np.log(np.where(codes > 0, codes, 1.0)), 0.0)
    return float(np.mean(-(codes * logs).sum(axis=1)))


class TestTimeContrastive:
    def test_identical_frames_ratio_counts(self):
        # all similarities equal, so each ratio is 1/(1 + #negatives)
        z = EmbeddingSequence(np.tile([0.3, 0.4], (3, 1)))
        # anchors: t0 one positive one negative (1/2), t1 two positives no
        # negatives (1 each), t2 mirror of t0
        assert time_contrastive_loss(z, TimeContrastiveConfig(window=1)) == pytest.approx(-3.0)

    def test_negative_free_anchor_ratio_is_one(self):
        z = EmbeddingSequence(np.tile([1.0, 0.0], (3, 1)))
        cfg = TimeContrastiveConfig(window=2)  # no frame is ever outside the window
        assert time_contrastive_loss(z, cfg) == pytest.approx(-6.0)  # 1 per positive pair

    def test_negative_free_log_form_is_exactly_zero(self):
        z = EmbeddingSequence(np.tile([1.0, 0.0], (3, 1)))
        cfg = TimeContrastiveConfig(window=2, log_form=True)
        assert time_contrastive_loss(z, cfg) == 0.0  # log 1 per positive pair

    def test_zero_norm_frame_rejected(self):
        frames = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^zero-norm frame: cosine distance undefined$"):
            time_contrastive_loss(frames)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("log_form", [False, True], ids=["ratio", "log"])
    def test_tiny_temperature_stays_finite(self, rng, log_form):
        # logits up to 1e3: exp(x) overflows to inf where the negatives lie far
        # above a positive, and the ratio's limit 0 is taken without a warning
        frames = rng.normal(size=(8, 5))
        cfg = TimeContrastiveConfig(window=2, temperature=1e-3, log_form=log_form)
        loss = time_contrastive_loss(frames, cfg)
        assert math.isfinite(loss)
        n_positive = sum(min(t, 2) + min(7 - t, 2) for t in range(8))
        if not log_form:
            assert -n_positive <= loss <= 0.0
        else:
            assert loss >= 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_similarity_rejected(self, bad):
        S = np.eye(4)
        S[1, 3] = bad
        with pytest.raises(ValueError, match="^similarities contain NaN or Inf$"):
            time_contrastive_loss_from_similarity(S, TimeContrastiveConfig())

    @pytest.mark.parametrize("temperature", [0.0, -0.1, math.inf, -math.inf, math.nan, True])
    def test_bad_temperature_rejected(self, temperature):
        # an infinite temperature flattens every logit to 0: the loss no longer sees the scores
        with pytest.raises(ValueError, match="^temperature must be finite and > 0"):
            TimeContrastiveConfig(temperature=temperature)

    @pytest.mark.parametrize("window", [1.5, True, math.inf], ids=["fraction", "bool", "inf"])
    def test_non_int_window_rejected(self, window):
        with pytest.raises(ValueError, match=f"^window must be an int, got {window!r}$"):
            TimeContrastiveConfig(window=window)

    @pytest.mark.parametrize("log_form", ["yes", 1, None], ids=["str", "int", "none"])
    def test_non_bool_log_form_rejected(self, log_form):
        with pytest.raises(ValueError, match=f"^log_form must be a bool, got {log_form!r}$"):
            TimeContrastiveConfig(log_form=log_form)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="T >= 2"):
            time_contrastive_loss(EmbeddingSequence([[1.0, 0.0]]))

    def test_matches_oracle_seeded(self, rng):
        for _ in range(20):
            T = int(rng.integers(3, 12))
            frames = rng.normal(size=(T, 6))
            cfg = TimeContrastiveConfig(window=int(rng.integers(1, 4)), temperature=0.5)
            got = time_contrastive_loss(frames, cfg)
            want = oracle_time_loss(frames, cfg.window, cfg.temperature)
            assert got == pytest.approx(want, abs=1e-12)

    def test_log_form_matches_oracle(self, rng):
        frames = rng.normal(size=(8, 5))
        cfg = TimeContrastiveConfig(window=2, temperature=0.5, log_form=True)
        assert time_contrastive_loss(frames, cfg) == pytest.approx(
            oracle_time_loss(frames, 2, 0.5, log_form=True), abs=1e-12
        )

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.3])
    def test_raising_positive_similarity_lowers_loss(self, rng, delta):
        T = 6
        S = np.clip(rng.uniform(-0.5, 0.5, size=(T, T)), -1, 1)
        S = (S + S.T) / 2
        np.fill_diagonal(S, 1.0)
        cfg = TimeContrastiveConfig(window=1, temperature=0.5)
        base = time_contrastive_loss_from_similarity(S, cfg)
        bumped = S.copy()
        bumped[2, 3] += delta
        bumped[3, 2] += delta
        assert time_contrastive_loss_from_similarity(bumped, cfg) < base


class TestTaskAlignment:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_equal_distances_give_exactly_minus_one(self, n):
        D = np.full((n, n), 0.737)
        assert task_alignment_loss_from_distances(D) == -1.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_identical_clips_through_transport_give_exactly_minus_one(self, n, rng):
        frames = rng.normal(size=(3, 6))
        clip = EmbeddingSequence(frames)
        clips = [clip] * n
        assert task_alignment_loss(clips, clips) == -1.0

    def test_perfect_separation_limit(self):
        D = np.full((4, 4), 800.0)
        np.fill_diagonal(D, 0.0)
        assert task_alignment_loss_from_distances(D) == pytest.approx(-4.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ratio_is_its_limit(self):
        # row 0's matched distance exceeds the other by 800: exp overflows to inf
        D = np.array([[800.0, 0.0], [0.0, 0.0]])
        assert task_alignment_loss_from_distances(D) == -0.5

    def test_two_pair_value(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        want = -2.0 / (1.0 + math.exp(-1.0))
        assert task_alignment_loss_from_distances(D) == pytest.approx(want, abs=1e-12)

    def test_bounded_in_open_interval(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            D = rng.uniform(0, 2, size=(n, n))
            loss = task_alignment_loss_from_distances(D)
            assert -n < loss < 0

    def test_matches_oracle_seeded(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            D = rng.uniform(0, 2, size=(n, n))
            assert task_alignment_loss_from_distances(D) == pytest.approx(
                oracle_task_loss(D), abs=1e-12
            )
            assert task_alignment_loss_from_distances(D, log_form=True) == pytest.approx(
                oracle_task_loss(D, log_form=True), abs=1e-12
            )

    def test_end_to_end_over_transport_distances(self, rng):
        robot = [EmbeddingSequence(rng.normal(size=(3, 5))) for _ in range(3)]
        demo = [EmbeddingSequence(r.frames + rng.normal(scale=0.01, size=(3, 5))) for r in robot]
        loss = task_alignment_loss(robot, demo, SinkhornConfig(max_iters=2000))
        assert -3 < loss < 0
        # matched pairs are nearly identical, so each ratio should dominate 1/N
        assert loss < -0.9

    def test_mismatched_lengths(self):
        a = [EmbeddingSequence([[1.0, 0.0]])]
        with pytest.raises(ValueError, match="pair"):
            task_alignment_loss(a, a * 2)


@pytest.mark.parametrize(
    "shape, message",
    [((), "square"), ((3,), "square"), ((2, 3), "square"), ((2, 2, 2), "square"), ((1, 1), "2")],
    ids=["0d", "1d", "non-square", "3d", "1x1"],
)
def test_malformed_matrix_rejected(shape, message):
    M = np.full(shape, 0.5)
    with pytest.raises(ValueError, match=message):
        time_contrastive_loss_from_similarity(M, TimeContrastiveConfig())
    with pytest.raises(ValueError, match=message):
        task_alignment_loss_from_distances(M)


class TestSwavLoss:
    def test_one_hot_limit(self):
        scores = np.array([[50.0, -50.0], [-50.0, 50.0]])
        codes = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert swav_assignment_loss(scores, codes) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_codes_uniform_scores(self):
        scores = np.zeros((3, 4))
        codes = np.full((3, 4), 0.25)
        assert swav_assignment_loss(scores, codes) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_oracle_seeded(self, rng):
        for _ in range(20):
            B, K = int(rng.integers(1, 7)), int(rng.integers(2, 6))
            scores = rng.normal(size=(B, K))
            codes = rng.uniform(0.01, 1.0, size=(B, K))
            codes /= codes.sum(axis=1, keepdims=True)
            assert swav_assignment_loss(scores, codes) == pytest.approx(
                oracle_swav_loss(scores, codes), abs=1e-12
            )

    def test_gibbs_inequality_with_sinkhorn_codes(self, rng):
        for _ in range(10):
            B, K = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            scores = rng.normal(size=(B, K))
            codes = swav_codes(
                scores, SinkhornConfig(epsilon=0.1, max_iters=20000, tol_marginal=1e-9)
            ) * B
            loss = swav_assignment_loss(scores, codes)
            assert loss >= row_entropy(codes) - 1e-9

    def test_gibbs_equality_iff_softmax_matches_codes(self):
        scores = np.log(np.array([[0.7, 0.2, 0.1]]))
        codes = np.array([[0.7, 0.2, 0.1]])
        assert swav_assignment_loss(scores, codes) == pytest.approx(
            row_entropy(codes), abs=1e-12
        )

    def test_two_view_sum(self, rng):
        s1, s2 = rng.normal(size=(2, 3, 4))
        q1 = np.full((3, 4), 0.25)
        q2 = np.full((3, 4), 0.25)
        assert swav_two_view_loss(s1, s2, q1, q2) == pytest.approx(
            swav_assignment_loss(s1, q2) + swav_assignment_loss(s2, q1), abs=1e-12
        )

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.inf, -math.inf, math.nan, True])
    def test_bad_temperature_rejected(self, temperature):
        codes = np.full((2, 3), 1.0 / 3.0)
        with pytest.raises(ValueError, match="^temperature must be finite and > 0"):
            swav_assignment_loss(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), codes, temperature)
        with pytest.raises(ValueError, match="^temperature must be finite and > 0"):
            swav_two_view_loss(np.zeros((2, 3)), np.zeros((2, 3)), codes, codes, temperature)

    def test_bad_code_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            swav_assignment_loss(np.zeros((1, 2)), np.array([[0.9, 0.5]]))
        with pytest.raises(ValueError, match="non-negative"):
            swav_assignment_loss(np.zeros((1, 2)), np.array([[1.5, -0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_codes_rejected(self, bad):
        with pytest.raises(ValueError, match="^codes contain NaN or Inf$"):
            swav_assignment_loss(np.zeros((1, 2)), np.array([[bad, bad]]))
        with pytest.raises(ValueError, match="^codes contain NaN or Inf$"):
            swav_assignment_loss(np.zeros((1, 2)), np.array([[1.0, bad]]))


class TestCombined:
    def test_single_component(self):
        assert combined_loss(2.0, 0.0, 0.0, LossWeights(1.0, 0.0, 0.0)) == 2.0

    def test_zero_weight_component_never_evaluated(self):
        def boom():
            raise AssertionError("must not be called")

        calls = []

        def counted():
            calls.append(1)
            return 3.0

        out = combined_loss(1.5, counted, boom, LossWeights(1.0, 1.0, 0.0))
        assert out == pytest.approx(4.5)
        assert calls == [1]

    def test_weighted_sum(self):
        assert combined_loss(1.0, 1.0, 1.0, LossWeights(0.5, 0.3, 0.2)) == pytest.approx(1.0)

    def test_task_term_defaults_off(self):
        def boom():
            raise AssertionError("must not be called")

        assert combined_loss(1.0, 2.0, boom) == pytest.approx(3.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            LossWeights(lambda_vis=-0.1)

    @pytest.mark.parametrize("field", ["lambda_vis", "lambda_temp", "lambda_task"])
    def test_bool_weight_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got True$"):
            LossWeights(**{field: True})

    def test_nonfinite_component_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            combined_loss(float("nan"), 0.0, 0.0)
