import re

import numpy as np
import pytest

from seqmatch.data import Embodiment, SnippetDatabase, dataset_content_hash
from seqmatch.synthgen import (
    _CHUNK_FRAMES,
    _ROBOT_STREAM,
    GenConfig,
    MismatchSpec,
    _sample_task_sequence,
    gen_anchors,
    gen_benchmark,
    gen_demo_snippets,
    gen_robot_trajectory,
)


def small_cfg(**kw):
    kw.setdefault("tasks_per_trajectory", min(kw.get("n_tasks", 7), 4))
    return GenConfig(**kw)


def robot_rng(cfg):
    return np.random.default_rng([cfg.seed, 1])


def mean_cross_embodiment_distance(robot_set, db):
    """Mean cosine distance between same-task robot and demonstrator frames."""
    by_task_robot: dict[int, list[np.ndarray]] = {}
    for traj in robot_set:
        for frame, label in zip(traj.sequence.frames, traj.labels):
            for t in label.tasks:
                by_task_robot.setdefault(t, []).append(frame)
    by_task_demo: dict[int, list[np.ndarray]] = {}
    for snip in db.snippets:
        for frame, label in zip(snip.sequence.frames, snip.labels):
            for t in label.tasks:
                by_task_demo.setdefault(t, []).append(frame)
    per_task = []
    for t, robo in by_task_robot.items():
        if t not in by_task_demo:
            continue
        R = np.array(robo)
        H = np.array(by_task_demo[t])
        sims = (R @ H.T) / np.outer(
            np.linalg.norm(R, axis=1), np.linalg.norm(H, axis=1)
        )
        per_task.append(float(np.mean(1.0 - sims)))
    return float(np.mean(per_task))


INT_FIELDS = (
    "n_tasks", "dim", "frames_per_task", "n_trajectories", "tasks_per_trajectory", "snippets_per_task", "seed"
)


class TestGenConfig:
    @pytest.mark.parametrize("field", INT_FIELDS)
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=["fraction", "float", "bool", "str"])
    def test_non_int_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$"):
            GenConfig(**{field: value})

    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_out_of_range_field_rejected(self, field):
        low = 0 if field == "seed" else 1
        with pytest.raises(ValueError, match=f"^{field} must be >= {low}, got {low - 1}$"):
            GenConfig(**{field: low - 1})

    def test_bool_noise_sigma_rejected(self):
        with pytest.raises(ValueError, match="^noise_sigma must be finite and >= 0, got True$"):
            GenConfig(noise_sigma=True)


class TestAnchors:
    def test_orthonormal_and_deterministic(self):
        cfg = small_cfg(n_tasks=2, dim=2, seed=0)
        a1 = gen_anchors(cfg)
        a2 = gen_anchors(cfg)
        assert a1.vectors.tobytes() == a2.vectors.tobytes()
        assert abs(float(a1.vectors[0] @ a1.vectors[1])) <= 1e-9

    def test_seven_tasks_in_256_dims(self):
        anchors = gen_anchors(GenConfig(n_tasks=7, dim=256, seed=3))
        gram = anchors.vectors @ anchors.vectors.T
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-9)

    def test_dim_too_small(self):
        with pytest.raises(ValueError, match="dim >= n_tasks"):
            gen_anchors(GenConfig(n_tasks=7, dim=4))


class TestRobotTrajectory:
    def test_zero_noise_frames_equal_anchor(self):
        cfg = small_cfg(n_tasks=2, dim=4, frames_per_task=3, noise_sigma=0.0, seed=0)
        anchors = gen_anchors(cfg)
        traj = gen_robot_trajectory([1], anchors, cfg, robot_rng(cfg))
        assert traj.n_frames == 3
        assert len({f.tobytes() for f in traj.sequence.frames}) == 1
        np.testing.assert_allclose(traj.sequence.frames[0], anchors.vectors[1], atol=1e-6)

    def test_label_runs_match_construction(self):
        cfg = small_cfg(n_tasks=5, dim=8, frames_per_task=8, seed=0)
        anchors = gen_anchors(cfg)
        traj = gen_robot_trajectory([3, 0, 4, 1], anchors, cfg, robot_rng(cfg))
        assert traj.n_frames == 32
        assert traj.embodiment is Embodiment.ROBOT
        got = [l.tasks[0] for l in traj.labels]
        assert got == [3] * 8 + [0] * 8 + [4] * 8 + [1] * 8

    def test_nearest_anchor_matches_label(self):
        cfg = GenConfig(n_tasks=6, dim=16, noise_sigma=0.1, seed=5)
        anchors = gen_anchors(cfg)
        traj = gen_robot_trajectory([0, 2, 4], anchors, cfg, robot_rng(cfg))
        sims = traj.sequence.frames @ anchors.vectors.T
        nearest = sims.argmax(axis=1)
        want = [l.tasks[0] for l in traj.labels]
        assert nearest.tolist() == want

    def test_invalid_task_id(self):
        cfg = small_cfg(n_tasks=2, dim=4)
        anchors = gen_anchors(cfg)
        with pytest.raises(ValueError, match="invalid task id"):
            gen_robot_trajectory([2], anchors, cfg, robot_rng(cfg))
        with pytest.raises(ValueError, match="^task id must be >= 0, got -1$"):
            gen_robot_trajectory([-1], anchors, cfg, robot_rng(cfg))

    @pytest.mark.parametrize("tasks", [[0.7, "1"], ["1"], [True], [1.0]], ids=["fraction", "str", "bool", "float"])
    def test_non_int_task_id_rejected(self, tasks):
        cfg = small_cfg(n_tasks=2, dim=4)
        with pytest.raises(ValueError, match=f"^task id must be an int, got {tasks[0]!r}$"):
            gen_robot_trajectory(tasks, gen_anchors(cfg), cfg, robot_rng(cfg))

    def test_empty_task_sequence_rejected(self):
        cfg = small_cfg(n_tasks=2, dim=4)
        with pytest.raises(ValueError, match="^empty task sequence"):
            gen_robot_trajectory([], gen_anchors(cfg), cfg, robot_rng(cfg))

    def test_frames_follow_one_noise_block_per_task_in_order(self):
        self._check_noise_blocks_in_order(0.3)

    @pytest.mark.parametrize("noise_sigma", [0.0, 2.5])
    def test_frames_follow_noise_blocks_at_other_sigmas(self, noise_sigma):
        self._check_noise_blocks_in_order(noise_sigma)

    @staticmethod
    def _check_noise_blocks_in_order(noise_sigma):
        # the noise stream is the one drawn block by block, task by task, with rng.normal
        cfg = small_cfg(n_tasks=3, dim=6, frames_per_task=4, noise_sigma=noise_sigma, seed=2)
        anchors = gen_anchors(cfg)
        traj = gen_robot_trajectory([2, 0, 2], anchors, cfg, robot_rng(cfg))
        rng = robot_rng(cfg)
        blocks = [anchors.vectors[t] + rng.normal(0.0, noise_sigma, size=(4, 6)) for t in (2, 0, 2)]
        want = np.vstack([b / np.linalg.norm(b, axis=1, keepdims=True) for b in blocks])
        assert traj.sequence._f32_bytes() == want.astype("<f4").tobytes()

    def test_frames_are_float32_clean_and_unit(self):
        cfg = small_cfg(n_tasks=3, dim=8, seed=1)
        anchors = gen_anchors(cfg)
        traj = gen_robot_trajectory([0, 1], anchors, cfg, robot_rng(cfg))
        frames = traj.sequence.frames
        assert frames.astype("<f4").astype(np.float64).tobytes() == frames.tobytes()
        np.testing.assert_allclose(np.linalg.norm(frames, axis=1), 1.0, atol=1e-6)


class TestDemoSnippets:
    def test_degenerate_easy_equals_robot_segments(self):
        cfg = small_cfg(n_tasks=3, dim=8, frames_per_task=4, snippets_per_task=1, noise_sigma=0.0, seed=2)
        anchors = gen_anchors(cfg)
        spec = MismatchSpec.for_level("easy", cfg.n_tasks, seed=cfg.seed, offset_magnitude=0.0, noise_sigma=0.0)
        db = gen_demo_snippets(anchors, spec, cfg)
        robot = gen_robot_trajectory([0], anchors, cfg, robot_rng(cfg))
        np.testing.assert_array_equal(db.snippets[0].sequence.frames, robot.sequence.frames)

    def test_easy_snippet_lengths_unwarped(self):
        cfg = small_cfg(n_tasks=2, dim=4, frames_per_task=8, snippets_per_task=2, seed=0)
        spec = MismatchSpec.for_level("easy", cfg.n_tasks, seed=cfg.seed)
        db = gen_demo_snippets(gen_anchors(cfg), spec, cfg)
        assert {s.n_frames for s in db.snippets} == {8}

    def test_medium_speed_resamples_length(self):
        cfg = small_cfg(n_tasks=2, dim=4, frames_per_task=8, snippets_per_task=1, seed=0)
        spec = MismatchSpec.for_level("medium", cfg.n_tasks, seed=cfg.seed)
        db = gen_demo_snippets(gen_anchors(cfg), spec, cfg)
        lengths = {s.seq_id: s.n_frames for s in db.snippets}
        assert lengths["demo-t00-s00"] == 4  # speed 0.5
        assert lengths["demo-t01-s00"] == 16  # speed 2.0

    def test_medium_rotation_preserves_unit_norm(self):
        cfg = small_cfg(n_tasks=2, dim=8, snippets_per_task=1, seed=0)
        spec = MismatchSpec.for_level("medium", cfg.n_tasks, seed=cfg.seed)
        db = gen_demo_snippets(gen_anchors(cfg), spec, cfg)
        for s in db.snippets:
            np.testing.assert_allclose(np.linalg.norm(s.sequence.frames, axis=1), 1.0, atol=1e-6)

    def test_hard_merged_frames_equidistant_from_both_anchors(self):
        cfg = small_cfg(n_tasks=4, dim=8, snippets_per_task=1, noise_sigma=0.0, seed=0)
        anchors = gen_anchors(cfg)
        spec = MismatchSpec.for_level(
            "hard", cfg.n_tasks, seed=cfg.seed,
            offset_magnitude=0.0, rotation_angle_deg=0.0, noise_sigma=0.0,
        )
        db = gen_demo_snippets(anchors, spec, cfg)
        merged = db.get("demo-m00-01-s00")
        assert merged.labels[0].task_set == frozenset({0, 1})
        frame = merged.sequence.frames[0]
        for t in (0, 1):
            cos_dist = 1.0 - float(frame @ anchors.vectors[t])
            assert cos_dist == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-6)

    def test_hard_keeps_single_task_snippets_for_all_tasks(self):
        cfg = small_cfg(n_tasks=5, dim=8, snippets_per_task=2, seed=0)
        spec = MismatchSpec.for_level("hard", cfg.n_tasks, seed=cfg.seed)
        db = gen_demo_snippets(gen_anchors(cfg), spec, cfg)
        singles = {s.labels[0].tasks[0] for s in db.snippets if len(s.labels[0].tasks) == 1}
        assert singles == set(range(5))
        assert spec.merge_pairs == ((0, 1), (2, 3))

    @pytest.mark.parametrize("n_tasks", range(2, 8))
    def test_hard_task_budget_is_one_task_per_merge_pair_plus_unmerged(self, n_tasks):
        budget = n_tasks - n_tasks // 2
        cfg = small_cfg(n_tasks=n_tasks, dim=8, frames_per_task=2, n_trajectories=3, snippets_per_task=1,
                        tasks_per_trajectory=budget)
        robot, _ = gen_benchmark("hard", cfg)
        assert all(len(traj.task_set) == budget for traj in robot.snippets)
        message = f"tasks_per_trajectory={budget + 1} exceeds {budget} (one task per merge pair plus unmerged tasks)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_benchmark("hard", small_cfg(n_tasks=n_tasks, dim=8, tasks_per_trajectory=budget + 1))

    def test_invalid_merge_pair_rejected(self):
        cfg = small_cfg(n_tasks=2, dim=4, seed=0)
        anchors = gen_anchors(cfg)
        spec = MismatchSpec(level="hard", merge_pairs=((0, 7),), seed=0)
        with pytest.raises(ValueError, match="merge pair"):
            gen_demo_snippets(anchors, spec, cfg)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("noise_sigma", float("nan"), "noise_sigma must be finite"),
            ("noise_sigma", -0.1, "noise_sigma must be finite and >= 0"),
            ("offset_magnitude", float("inf"), "offset_magnitude must be finite"),
            ("rotation_angle_deg", float("nan"), "rotation_angle_deg must be finite"),
            ("speed_factors", (float("nan"),), "speed factors must be finite"),
            ("speed_factors", (float("inf"),), "speed factors must be finite"),
            ("speed_factors", (1.0, 0.0), "speed factors must be finite and positive"),
            ("noise_sigma", True, "noise_sigma must be finite and >= 0, got True"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("seed", 1.5, "seed must be an int, got 1.5"),
            ("merge_pairs", [(0.7, 2)], r"merge pair task id must be an int, got 0\.7"),
            ("merge_pairs", [(True, 2)], "merge pair task id must be an int, got True"),
            ("speed_factors", ("2",), "speed factors must be finite and positive"),
            ("speed_factors", (True,), "speed factors must be finite and positive"),
        ],
        ids=["noise-nan", "noise-negative", "offset-inf", "rotation-nan", "speed-nan", "speed-inf", "speed-zero",
             "noise-bool", "seed-negative", "seed-fraction", "merge-fraction", "merge-bool", "speed-str",
             "speed-bool"],
    )
    def test_invalid_spec_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MismatchSpec(level="hard", **{field: value})

    def test_embodiment_tag(self):
        cfg = small_cfg(n_tasks=2, dim=4, snippets_per_task=1, seed=0)
        spec = MismatchSpec.for_level("easy", cfg.n_tasks, seed=cfg.seed)
        db = gen_demo_snippets(gen_anchors(cfg), spec, cfg)
        assert all(s.embodiment is Embodiment.DEMONSTRATOR for s in db.snippets)


class TestBenchmark:
    def test_deterministic_per_seed(self):
        cfg = GenConfig(n_trajectories=4, seed=11)
        r1, d1 = gen_benchmark("easy", cfg)
        r2, d2 = gen_benchmark("easy", cfg)
        assert dataset_content_hash(r1) == dataset_content_hash(r2)
        assert dataset_content_hash(d1) == dataset_content_hash(d2)
        r3, _ = gen_benchmark("easy", GenConfig(n_trajectories=4, seed=12))
        assert dataset_content_hash(r1) != dataset_content_hash(r3)

    def test_hard_contains_two_label_snippet(self):
        _, db = gen_benchmark("hard", GenConfig(n_trajectories=2))
        assert any(len(s.labels[0].tasks) == 2 for s in db.snippets)

    def test_hard_trajectories_avoid_merge_pairs(self):
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=10, seed=4))
        pairs = db.provenance["mismatch"]["merge_pairs"]
        for traj in robot_set:
            tasks = traj.task_set
            for a, b in pairs:
                assert not (a in tasks and b in tasks)

    def test_label_faithfulness_default_params(self):
        for level in ("easy", "medium", "hard"):
            robot_set, db = gen_benchmark(level, GenConfig(n_trajectories=3, seed=9))
            anchors = gen_anchors(GenConfig(n_trajectories=3, seed=9))
            for group in (robot_set, list(db.snippets)):
                for seq in group:
                    sims = seq.sequence.frames @ anchors.vectors.T
                    nearest = sims.argmax(axis=1)
                    for k, label in zip(nearest, seq.labels):
                        assert int(k) in label.task_set

    def test_ladder_monotone_cross_embodiment_distance(self):
        cfg = GenConfig(n_trajectories=6, seed=0)
        values = []
        for level in ("easy", "medium", "hard"):
            robot_set, db = gen_benchmark(level, cfg)
            values.append(mean_cross_embodiment_distance(robot_set, db))
        assert values[0] <= values[1] <= values[2]

    def test_level_gates_mismatch_transforms(self):
        cfg = GenConfig(n_trajectories=2, seed=0)
        _, easy = gen_benchmark("easy", cfg)
        _, hard = gen_benchmark("hard", cfg)
        assert {s.n_frames for s in easy.snippets} == {8}
        # singles warp by speed (0.5 or 2.0), merged clips by the pair mean
        assert {s.n_frames for s in hard.snippets} == {4, 10, 16}

    def test_tasks_per_trajectory_exceeding_merge_budget(self):
        with pytest.raises(ValueError, match="merge"):
            gen_benchmark("hard", small_cfg(n_tasks=4, tasks_per_trajectory=3, n_trajectories=1))

    def test_provenance_records_configs(self):
        cfg = GenConfig(n_trajectories=2, seed=6)
        _, db = gen_benchmark("medium", cfg)
        assert db.provenance["generator"]["seed"] == 6
        assert db.provenance["mismatch"]["level"] == "medium"


FRAMES_PER_TRAJECTORY = GenConfig().tasks_per_trajectory * GenConfig().frames_per_task
# ``dataset_content_hash`` of the robot and play sets, recorded from the
# trajectory-at-a-time generator that chunked generation replaced.
GOLDEN_HASHES = {
    ("easy", 0, 20): (
        "223d8a9c2d793f08d080676e62649a6013d80928d3b840ee5a97dd5747429227",
        "301f01c7638be8a6d09b9e454be835801cbb441b8db5f71353ff201cc45b6acc",
    ),
    ("hard", 3, 20): (
        "173bde4af553879040c8c309a35346ac7997374f69e8f39d6fb5a331ea10acc1",
        "c11a20315406814ae7c2e43aa67aaeb8c3baeb560d3b8cb54c5a84e9e8b88bf0",
    ),
    ("hard", 3, 300): (
        "5c2482fd20ec956f72002df10ba831a1d5a477b69a858ec5ac3fd19c931b7e0d",
        "c11a20315406814ae7c2e43aa67aaeb8c3baeb560d3b8cb54c5a84e9e8b88bf0",
    ),
}


class TestChunkedGeneration:
    """``gen_benchmark`` generates its robot set a chunk of trajectories at a time."""

    @pytest.mark.parametrize("level", ["easy", "medium", "hard"])
    def test_robot_set_equals_one_trajectory_at_a_time(self, level):
        per_chunk = _CHUNK_FRAMES // FRAMES_PER_TRAJECTORY
        cfg = GenConfig(n_trajectories=per_chunk + 1, seed=5)
        robot_db, _ = gen_benchmark(level, cfg)
        anchors = gen_anchors(cfg)
        spec = MismatchSpec.for_level(level, cfg.n_tasks, seed=cfg.seed, noise_sigma=cfg.noise_sigma)
        rng = np.random.default_rng([cfg.seed, _ROBOT_STREAM])
        want = [
            gen_robot_trajectory(_sample_task_sequence(rng, cfg, spec), anchors, cfg, rng, seq_id=f"robot-{i:03d}")
            for i in range(cfg.n_trajectories)
        ]
        want_db = SnippetDatabase(tuple(want), robot_db.task_names, robot_db.provenance)
        assert dataset_content_hash(robot_db) == dataset_content_hash(want_db)
        assert len(robot_db) == len(want) == per_chunk + 1
        for got, ref in zip(robot_db, want):
            assert got.seq_id == ref.seq_id
            assert got.sequence.frames.tobytes() == ref.sequence.frames.tobytes()
            assert got.labels == ref.labels
            assert got.seed_record == ref.seed_record

    @pytest.mark.parametrize("level, seed, n_trajectories", sorted(GOLDEN_HASHES))
    def test_hashes_are_the_recorded_ones(self, level, seed, n_trajectories):
        robot_db, play_db = gen_benchmark(level, GenConfig(n_trajectories=n_trajectories, seed=seed))
        got = (dataset_content_hash(robot_db), dataset_content_hash(play_db))
        assert got == GOLDEN_HASHES[level, seed, n_trajectories]

    def test_golden_sizes_cross_a_chunk_boundary(self):
        assert max(n for _, _, n in GOLDEN_HASHES) * FRAMES_PER_TRAJECTORY > 2 * _CHUNK_FRAMES
