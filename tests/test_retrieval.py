import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmatch import data, pairing
from seqmatch.data import (
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    SnippetDatabase,
    quantize_frames_f32,
)
from seqmatch.ot import SQEUCLIDEAN, SinkhornConfig, cost_matrix, sinkhorn
from seqmatch.pairing import _mean
from seqmatch.retrieval import (
    ImaginedDemo,
    OtSequenceDistance,
    PairedDataset,
    PairedEntry,
    RetrievalConfig,
    RetrievalError,
    SegmentRecord,
    TccSequenceDistance,
    build_paired_dataset,
    evaluate,
    imagine_demo,
    paired_from_json_dict,
    paired_to_json_dict,
    segment,
)
from seqmatch.synthgen import GenConfig, gen_anchors, gen_benchmark
from seqmatch.tcc import TccConfig, tcc_distance, tcc_distance_symmetric


def make_snippet(seq_id, frames, tasks):
    frames = quantize_frames_f32(np.atleast_2d(np.asarray(frames, dtype=np.float64)))
    labels = tuple(FrameLabel.of(tasks) for _ in range(frames.shape[0]))
    return LabeledSequence(
        seq_id=seq_id,
        sequence=EmbeddingSequence(frames),
        labels=labels,
        embodiment=Embodiment.DEMONSTRATOR,
    )


def anchor_db(n_tasks=4, dim=8, frames_per_snippet=4, seed=0, merged_pairs=()):
    anchors = gen_anchors(GenConfig(n_tasks=n_tasks, dim=dim, seed=seed))
    snippets = []
    for t in range(n_tasks):
        snippets.append(
            make_snippet(
                f"demo-t{t:02d}", np.tile(anchors.vectors[t], (frames_per_snippet, 1)), t
            )
        )
    for a, b in merged_pairs:
        merged = anchors.vectors[a] + anchors.vectors[b]
        merged /= np.linalg.norm(merged)
        snippets.append(
            make_snippet(
                f"demo-m{a}{b}", np.tile(merged, (frames_per_snippet, 1)), (a, b)
            )
        )
    db = SnippetDatabase(tuple(snippets), task_names={t: f"task-{t}" for t in range(n_tasks)})
    return anchors, db


def anchor_robot(anchors, task_seq, frames_per_task=4, seq_id="robot-000"):
    frames = np.vstack(
        [np.tile(anchors.vectors[t], (frames_per_task, 1)) for t in task_seq]
    )
    labels = tuple(FrameLabel.of(t) for t in task_seq for _ in range(frames_per_task))
    return LabeledSequence(
        seq_id=seq_id,
        sequence=EmbeddingSequence(quantize_frames_f32(frames)),
        labels=labels,
        embodiment=Embodiment.ROBOT,
    )


class PerPairDistance:
    """Ranks a bank one pair at a time with the per-pair reference functions."""

    def __init__(self, distance):
        self.distance = distance

    def scan(self, queries, bank):
        d = self.distance
        if isinstance(d, OtSequenceDistance):
            plans = [[sinkhorn(cost_matrix(a, b, d.metric), d.cfg) for b in bank] for a in queries]
            return (
                np.array([[p.cost for p in row] for row in plans]),
                np.array([[p.converged for p in row] for row in plans]),
            )
        fn = tcc_distance_symmetric if d.symmetric else tcc_distance
        values = np.array([[fn(a, b, d.cfg) for b in bank] for a in queries])
        return values, np.ones(values.shape, dtype=bool)


class GridDistance:
    """Ranks a bank by solving every pair: the transport distance's full ``grid``."""

    def __init__(self, distance):
        self.scan = distance.grid


class NanDistance(OtSequenceDistance):
    """A distance that is NaN for every snippet."""

    def scan(self, queries, bank):
        shape = (len(queries), len(bank))
        return np.full(shape, np.nan), np.ones(shape, dtype=bool)


class NanForQueryDistance(OtSequenceDistance):
    """OT with every distance of one query frame matrix turned into NaN."""

    def __init__(self, nan_query):
        super().__init__()
        self.nan_query = nan_query

    def scan(self, queries, bank):
        values, converged = super().scan(queries, bank)
        values[[np.array_equal(q, self.nan_query) for q in queries]] = np.nan
        return values, converged


class NanBelowDistance(OtSequenceDistance):
    """OT with every distance under 1e-6 turned into NaN."""

    def scan(self, queries, bank):
        values, converged = super().scan(queries, bank)
        return np.where(values < 1e-6, np.nan, values), converged


def ot_config(segment_len=None, segment_count=None):
    return RetrievalConfig(
        distance=OtSequenceDistance(SinkhornConfig(max_iters=5000)),
        segment_len=segment_len,
        segment_count=segment_count,
    )


class TestSegment:
    def test_even_split(self):
        assert segment(10, ot_config(segment_len=5)) == [(0, 5), (5, 10)]

    def test_segment_count_derives_k(self):
        assert segment(10, ot_config(segment_count=2)) == [(0, 5), (5, 10)]

    def test_remainder_kept_as_short_final_segment(self):
        assert segment(7, ot_config(segment_len=3)) == [(0, 3), (3, 6), (6, 7)]

    def test_k_larger_than_t_single_range(self):
        assert segment(4, ot_config(segment_len=9)) == [(0, 4)]

    def test_kprime_larger_than_t_clamps_to_frames(self):
        assert segment(3, ot_config(segment_count=10)) == [(0, 1), (1, 2), (2, 3)]

    def test_overlap_final_variant(self):
        cfg = RetrievalConfig(
            distance=OtSequenceDistance(), segment_len=3, overlap_final=True
        )
        assert segment(7, cfg) == [(0, 3), (3, 6), (4, 7)]

    @pytest.mark.parametrize("T", [7.9, True, "7"], ids=["fraction", "bool", "str"])
    def test_non_int_frame_count_rejected(self, T):
        with pytest.raises(ValueError, match=f"^T must be an int, got {T!r}$"):
            segment(T, ot_config(segment_len=3))

    def test_zero_frame_count_rejected(self):
        with pytest.raises(ValueError, match="^T must be >= 1, got 0$"):
            segment(0, ot_config(segment_len=3))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="^unknown metric 'euclid'$"):
            OtSequenceDistance(metric="euclid")
        assert OtSequenceDistance(metric=SQEUCLIDEAN).describe()["metric"] == SQEUCLIDEAN

    def test_exactly_one_segmentation_mode(self):
        with pytest.raises(ValueError, match="exactly one"):
            RetrievalConfig(distance=OtSequenceDistance())
        with pytest.raises(ValueError, match="exactly one"):
            RetrievalConfig(distance=OtSequenceDistance(), segment_len=2, segment_count=2)

    @pytest.mark.parametrize("field", ["segment_len", "segment_count"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=["fraction", "float", "bool", "str"])
    def test_non_int_segmentation_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$"):
            RetrievalConfig(distance=OtSequenceDistance(), **{field: value})

    @pytest.mark.parametrize(
        "field, make",
        [
            ("overlap_final", lambda v: RetrievalConfig(distance=None, segment_len=2, overlap_final=v)),
            ("symmetric", lambda v: TccSequenceDistance(symmetric=v)),
        ],
        ids=["overlap_final", "symmetric"],
    )
    @pytest.mark.parametrize("value", ["no", 1, None], ids=["str", "int", "none"])
    def test_non_bool_flag_rejected(self, field, make, value):
        with pytest.raises(ValueError, match=f"^{field} must be a bool, got {value!r}$"):
            make(value)

    def test_describe_without_distance(self):
        cfg = RetrievalConfig(distance=None, segment_count=2)
        assert cfg.describe() == {
            "segment_len": None, "segment_count": 2, "overlap_final": False, "distance": None
        }
        assert segment(7, cfg) == [(0, 3), (3, 6), (6, 7)]


class TestImagineDemo:
    def test_identity_retrieval(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [2])
        demo = imagine_demo(robot.sequence, db, ot_config(segment_len=4))
        assert demo.segments[0].snippet_id == "demo-t02"
        assert demo.segments[0].distance <= 1e-6

    def test_merged_clip_beats_single_task_distractors(self):
        # a robot doing two tasks back to back matches the blended two-task
        # clip (cost 1 - 1/sqrt(2) per frame) better than any one-task clip
        # (cost 0.5 on average), which in turn beats off-task clips
        anchors, db = anchor_db(merged_pairs=[(0, 1)])
        robot = anchor_robot(anchors, [0, 1])
        demo = imagine_demo(robot.sequence, db, ot_config(segment_len=8))
        assert demo.segments[0].snippet_id == "demo-m01"
        want = 1.0 - 1.0 / math.sqrt(2.0)
        assert demo.segments[0].distance == pytest.approx(want, abs=0.02)
        assert demo.segments[0].margin == pytest.approx(0.5 - want, abs=0.02)

    def test_single_segment_covers_at_most_one_task(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [0, 1, 2, 3])
        demo = imagine_demo(robot.sequence, db, ot_config(segment_count=1))
        assert demo.n_segments == 1
        retrieved_tasks = db.snippets[demo.segments[0].snippet_index].task_set
        assert len(retrieved_tasks & robot.task_set) <= 1

    def test_composed_concatenates_in_segment_order(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [3, 1])
        demo = imagine_demo(robot.sequence, db, ot_config(segment_len=4))
        ids = [r.snippet_id for r in demo.segments]
        assert ids == ["demo-t03", "demo-t01"]
        want = np.vstack([db.get(i).sequence.frames for i in ids])
        np.testing.assert_array_equal(demo.composed.frames, want)
        assert demo.composed.n_frames == sum(
            db.snippets[r.snippet_index].n_frames for r in demo.segments
        )

    def test_segments_tile_input(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [0, 1, 2], frames_per_task=3)
        demo = imagine_demo(robot.sequence, db, ot_config(segment_len=4))
        bounds = [(r.start, r.end) for r in demo.segments]
        assert bounds[0][0] == 0 and bounds[-1][1] == robot.n_frames
        for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
            assert e0 == s1

    def test_recorded_distance_is_db_minimum(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [1, 3])
        cfg = ot_config(segment_len=4)
        demo = imagine_demo(robot.sequence, db, cfg)
        for rec in demo.segments:
            sub = EmbeddingSequence(robot.sequence.frames[rec.start : rec.end])
            all_values = [
                sinkhorn(cost_matrix(sub, s.sequence), cfg.distance.cfg).cost for s in db.snippets
            ]
            assert rec.distance <= min(all_values) + 1e-12

    def test_tie_breaks_to_lowest_snippet_id(self):
        anchors, _ = anchor_db()
        frames = np.tile(anchors.vectors[0], (2, 1))
        db = SnippetDatabase(
            (make_snippet("zz", frames, 0), make_snippet("aa", frames, 0)),
            task_names={0: "t"},
        )
        robot = anchor_robot(anchors, [0], frames_per_task=2)
        demo = imagine_demo(robot.sequence, db, ot_config(segment_len=2))
        assert demo.segments[0].snippet_id == "aa"
        assert demo.segments[0].margin == 0.0  # the tied distances are bit-equal

    def test_empty_database_rejected(self):
        anchors, _ = anchor_db()
        db = SnippetDatabase((), task_names={})
        robot = anchor_robot(anchors, [0])
        with pytest.raises(RetrievalError, match="empty"):
            imagine_demo(robot.sequence, db, ot_config(segment_len=4))

    def test_dimension_mismatch(self):
        _, db = anchor_db(dim=8)
        bad = EmbeddingSequence(np.ones((4, 5)))
        with pytest.raises(ValueError, match="dimension"):
            imagine_demo(bad, db, ot_config(segment_len=2))

    def test_all_nan_distances_reported_with_segment(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [0])
        cfg = RetrievalConfig(distance=NanDistance(), segment_len=4)
        with pytest.raises(RetrievalError, match="segment 0"):
            imagine_demo(robot.sequence, db, cfg)

    def test_partial_nan_skipped(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [1])
        cfg = RetrievalConfig(distance=NanBelowDistance(), segment_len=4)
        demo = imagine_demo(robot.sequence, db, cfg)
        assert math.isfinite(demo.segments[0].distance)
        assert demo.segments[0].snippet_id != "demo-t01"  # its distance went NaN

    @staticmethod
    def assert_scan_matches_per_pair_loop(distance):
        """Retrieval with the bank scan equals retrieval with the per-pair reference;
        returns the number of non-converged solves the scan of the whole set counts."""
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=3, seed=4))
        scanned = RetrievalConfig(distance=distance, segment_count=2)
        looped = RetrievalConfig(distance=PerPairDistance(distance), segment_count=2)
        for robot in robot_set:
            got = imagine_demo(robot.sequence, db, scanned).segments
            assert got == imagine_demo(robot.sequence, db, looped).segments
        return build_paired_dataset(robot_set, db, scanned).solver["nonconverged"]

    @pytest.mark.parametrize("solver", [SinkhornConfig(), SinkhornConfig(epsilon=0.01, max_iters=4)])
    def test_bank_scan_matches_per_pair_loop(self, solver):
        nonconverged = self.assert_scan_matches_per_pair_loop(OtSequenceDistance(solver))
        assert (nonconverged > 0) == (solver.max_iters == 4)

    @pytest.mark.parametrize(
        "distance",
        [
            TccSequenceDistance(),
            TccSequenceDistance(symmetric=True),
            TccSequenceDistance(TccConfig(temperature=0.5, squared=False)),
            TccSequenceDistance(TccConfig(temperature=0.01), symmetric=True),
        ],
        ids=["tcc", "tcc-symmetric", "tcc-t0.5-unsquared", "tcc-t0.01-symmetric"],
    )
    def test_tcc_bank_scan_matches_per_pair_loop(self, distance):
        assert self.assert_scan_matches_per_pair_loop(distance) == 0

    def test_deterministic(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [2, 0])
        cfg = ot_config(segment_len=4)
        d1 = imagine_demo(robot.sequence, db, cfg)
        d2 = imagine_demo(robot.sequence, db, cfg)
        assert [r.distance for r in d1.segments] == [r.distance for r in d2.segments]
        assert d1.composed.frames.tobytes() == d2.composed.frames.tobytes()


def assert_pruned_matches_grid(robot_set, db, solver, **segmentation):
    """Retrieval with the pruned transport scan equals retrieval with the full grid,
    and so does ``build_paired_dataset(full_grid=True)``. Row by row, the scan's
    solved entries are the grid's, and its count of non-converged solves is the
    grid's less any pruned pairs that do not converge. Returns each segment's
    (pruned, non-converged solved) counts from its scan row."""
    distance = OtSequenceDistance(solver)
    pruned = RetrievalConfig(distance=distance, **segmentation)
    full = RetrievalConfig(distance=GridDistance(distance), **segmentation)
    for robot in robot_set:
        assert imagine_demo(robot.sequence, db, pruned).segments == imagine_demo(robot.sequence, db, full).segments
    robots = SnippetDatabase(tuple(robot_set), db.task_names)
    scanned = build_paired_dataset(robots, db, pruned)
    gridded = build_paired_dataset(robots, db, pruned, full_grid=True)
    assert [e.demo.segments for e in gridded.entries] == [e.demo.segments for e in scanned.entries]
    subs = [r.sequence.frames[a:b] for r in robot_set for a, b in segment(r.sequence, pruned)]
    bank = [s.sequence for s in db.snippets]
    values, converged = distance.scan(subs, bank)
    grid, grid_converged = distance.grid(subs, bank)
    skipped = np.isposinf(values)
    assert not np.isposinf(grid).any()
    assert values[~skipped].tolist() == grid[~skipped].tolist()
    assert converged[~skipped].tolist() == grid_converged[~skipped].tolist()
    n_pruned, n_nonconverged = skipped.sum(axis=1), (~converged & ~skipped).sum(axis=1)
    grid_nonconverged = (~grid_converged).sum(axis=1)
    assert (grid_nonconverged - n_pruned <= n_nonconverged).all() and (n_nonconverged <= grid_nonconverged).all()
    assert ((n_pruned > 0) | (n_nonconverged == grid_nonconverged)).all()
    solved = int((~skipped).sum())
    assert scanned.solver == {"pairs": values.size, "solved": solved, "nonconverged": int(n_nonconverged.sum())}
    assert gridded.solver == {"pairs": grid.size, "solved": grid.size, "nonconverged": int(grid_nonconverged.sum())}
    return list(zip(n_pruned.tolist(), n_nonconverged.tolist()))


class TestPrunedRetrieval:
    @pytest.mark.parametrize("level", ["easy", "medium", "hard"])
    @pytest.mark.parametrize(
        "solver",
        [SinkhornConfig(max_iters=1), SinkhornConfig(max_iters=3), SinkhornConfig(), SinkhornConfig(epsilon=0.01)],
        ids=["iters1", "iters3", "iters1000", "eps0.01"],
    )
    def test_matches_full_grid(self, level, solver):
        robot_set, db = gen_benchmark(level, GenConfig(n_trajectories=3, seed=5))
        counts = assert_pruned_matches_grid(robot_set, db, solver, segment_count=2)
        for n_pruned, n_nonconverged in counts:
            assert n_pruned == 0 or n_nonconverged == 0  # a non-converged solve stops pruning
        if solver.max_iters == 1:
            assert counts == [(0, len(db))] * len(counts)
        if solver == SinkhornConfig():
            assert all(n_pruned > 0 for n_pruned, _ in counts)

    def test_exact_ties_between_duplicate_snippets(self):
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=3, seed=6))
        copies = [
            LabeledSequence(f"{prefix}-{s.seq_id}", s.sequence, s.labels, s.embodiment)
            for prefix in ("a", "z")
            for s in db.snippets
        ]
        doubled = SnippetDatabase((*db.snippets, *copies), db.task_names)
        assert_pruned_matches_grid(robot_set, doubled, SinkhornConfig(), segment_count=2)
        picks = build_paired_dataset(
            robot_set, doubled, RetrievalConfig(distance=OtSequenceDistance(), segment_count=2)
        )
        for e in picks.entries:
            for r in e.demo.segments:
                assert r.snippet_id.startswith("a-") and r.margin == 0.0

    def test_bank_of_one_snippet(self):
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=2, seed=7))
        one = SnippetDatabase(db.snippets[:1], db.task_names)
        counts = assert_pruned_matches_grid(robot_set, one, SinkhornConfig(), segment_count=2)
        assert counts == [(0, 0)] * len(counts)

    @settings(max_examples=25)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_ragged_banks(self, n_snippets, segment_len, seed):
        rng = np.random.default_rng(seed)
        snippets = tuple(
            make_snippet(f"s{j:02d}", rng.normal(size=(int(rng.integers(1, 9)), 4)), 0)
            for j in range(n_snippets)
        )
        db = SnippetDatabase(snippets, task_names={0: "t"})
        robot = make_snippet("robot", rng.normal(size=(int(rng.integers(1, 13)), 4)), 0)
        assert_pruned_matches_grid([robot], db, SinkhornConfig(epsilon=0.2), segment_len=segment_len)


class TestBuildPairedDataset:
    def test_single_pair(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [1])
        paired = build_paired_dataset(SnippetDatabase((robot,), db.task_names), db, ot_config(segment_len=4))
        assert len(paired) == 1
        assert paired.entries[0].demo.segments[0].snippet_id == "demo-t01"

    def test_every_robot_sequence_exactly_once(self):
        robot_set, db = gen_benchmark("easy", GenConfig(n_trajectories=6, seed=1))
        paired = build_paired_dataset(robot_set, db, ot_config(segment_len=8))
        assert [e.robot.seq_id for e in paired.entries] == [r.seq_id for r in robot_set]
        for e in paired.entries:
            assert e.demo.composed.n_frames > 0
            assert all(r.distance >= 0 or math.isfinite(r.distance) for r in e.demo.segments)

    def test_empty_robot_set_rejected(self):
        _, db = anchor_db()
        with pytest.raises(RetrievalError, match="robot set"):
            build_paired_dataset(SnippetDatabase((), db.task_names), db, ot_config(segment_len=4))

    def test_provenance_hashes_inputs(self):
        robot_set, db = gen_benchmark("easy", GenConfig(n_trajectories=2, seed=2))
        paired = build_paired_dataset(robot_set, db, ot_config(segment_len=8))
        assert set(paired.provenance) >= {"retrieval", "robot_hash", "play_hash"}

    @pytest.mark.parametrize(
        "distance, segmentation, pruned, nonconverged",
        [
            (OtSequenceDistance(), {"segment_count": 2}, True, False),
            (OtSequenceDistance(), {"segment_len": 8}, True, False),
            (OtSequenceDistance(SinkhornConfig(epsilon=0.01, max_iters=4)), {"segment_count": 2}, False, True),
            (OtSequenceDistance(SinkhornConfig(epsilon=0.01, max_iters=60)), {"segment_len": 5}, True, True),
            (TccSequenceDistance(), {"segment_count": 2}, False, False),
        ],
        ids=["ot-kprime2", "ot-k8", "ot-iters4", "ot-iters60-k5", "tcc-kprime2"],
    )
    def test_equals_per_trajectory_imagine_demo(self, distance, segmentation, pruned, nonconverged):
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=4, seed=9))
        cfg = RetrievalConfig(distance=distance, **segmentation)
        paired = build_paired_dataset(robot_set, db, cfg)
        for robot, entry in zip(robot_set, paired.entries):
            demo = imagine_demo(robot.sequence, db, cfg, source_id=robot.seq_id)
            assert entry.demo.source_id == demo.source_id == robot.seq_id
            assert [dataclasses.astuple(r) for r in entry.demo.segments] == [
                dataclasses.astuple(r) for r in demo.segments
            ]
            assert entry.demo.composed == demo.composed
        n_segments = sum(e.demo.n_segments for e in paired.entries)
        assert paired.solver["pairs"] == n_segments * len(db)
        assert (paired.solver["solved"] < paired.solver["pairs"]) == pruned
        assert (paired.solver["nonconverged"] > 0) == nonconverged

    def test_all_nan_segment_of_second_trajectory_keeps_its_index(self):
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=3, seed=9))
        second = robot_set.snippets[1].sequence
        cfg = RetrievalConfig(distance=None, segment_len=5)
        (start, end) = segment(second, cfg)[1]
        distance = NanForQueryDistance(second.frames[start:end])
        cfg = RetrievalConfig(distance=distance, segment_len=5)
        with pytest.raises(RetrievalError, match="^segment 1: all snippet distances are NaN$") as exc:
            build_paired_dataset(robot_set, db, cfg)
        assert exc.value.segment_index == 1

    def test_dimension_mismatch_rejected(self):
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=2, dim=12, seed=9))
        _, narrow = gen_benchmark("hard", GenConfig(n_trajectories=1, dim=8, seed=9))
        with pytest.raises(ValueError, match="^dimension mismatch: sequence d=12, database d=8$"):
            build_paired_dataset(robot_set, narrow, ot_config(segment_count=2))

    def test_duplicate_robot_ids_rejected(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [0])
        with pytest.raises(ValueError, match="duplicate|twice"):
            build_paired_dataset(SnippetDatabase((robot, robot), db.task_names), db, ot_config(segment_len=4))


def crafted_paired(robot, records):
    demo = ImaginedDemo(source_id=robot.seq_id, segments=tuple(records), composed=None)
    return PairedDataset(entries=(PairedEntry(robot=robot, demo=demo),), provenance={})


def seg(idx, sid, start, end):
    return SegmentRecord(
        start=start, end=end, snippet_index=idx, snippet_id=sid,
        distance=0.0, margin=None, converged=True,
    )


class TestEvaluate:
    def test_exact_retrievals_score_perfectly(self):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [0, 1, 2, 3])
        paired = build_paired_dataset(SnippetDatabase((robot,), db.task_names), db, ot_config(segment_len=4))
        report = evaluate(paired, db)
        assert report.task_recall == 1.0
        assert report.task_imprecision == 0.0
        assert report.top1_accuracy == 1.0
        assert "retrieval-level" in report.note

    def test_definition_arithmetic(self):
        # 4-task robot; retrieved demos cover tasks {0, 1} plus off-task 9
        anchors, _ = anchor_db()
        snippets = (
            make_snippet("s0", np.tile(anchors.vectors[0], (2, 1)), 0),
            make_snippet("s1", np.tile(anchors.vectors[1], (2, 1)), 1),
            make_snippet("s9", np.tile(anchors.vectors[2], (2, 1)), 9),
        )
        db = SnippetDatabase(snippets, task_names={0: "a", 1: "b", 9: "x"})
        robot = anchor_robot(anchors, [0, 1, 2, 3], frames_per_task=1)
        paired = crafted_paired(
            robot, [seg(0, "s0", 0, 1), seg(1, "s1", 1, 2), seg(2, "s9", 2, 4)]
        )
        report = evaluate(paired, db)
        assert report.task_recall == pytest.approx(0.5)
        assert report.task_imprecision == pytest.approx(1 / 3)

    def test_top1_needs_exact_task_set_match(self):
        anchors, db = anchor_db(merged_pairs=[(0, 1)])
        robot = anchor_robot(anchors, [0, 1], frames_per_task=2)
        # one segment spanning both tasks, retrieved the merged clip: top-1 hit
        paired = crafted_paired(robot, [seg(4, "demo-m01", 0, 4)])
        assert evaluate(paired, db).top1_accuracy == 1.0
        # retrieved a single-task clip instead: recall credit, but no top-1 hit
        paired = crafted_paired(robot, [seg(0, "demo-t00", 0, 4)])
        report = evaluate(paired, db)
        assert report.top1_accuracy == 0.0
        assert report.task_recall == 0.5

    def test_label_tasks_once_per_segment(self, monkeypatch):
        """The robot's and the snippets' task sets are stored: scoring the desk
        easy run (K=8) gathers labels only for each segment's frames."""
        robot_set, db = gen_benchmark("easy", GenConfig(seed=0))
        paired = build_paired_dataset(robot_set, db, ot_config(segment_len=8))
        want = evaluate(paired, db).to_json_dict()
        calls, label_tasks = [], pairing.label_tasks

        def counted(labels):
            calls.append(len(labels))
            return label_tasks(labels)

        monkeypatch.setattr(pairing, "label_tasks", counted)
        monkeypatch.setattr(data, "label_tasks", counted)  # where a derived task set would come from
        n_segments = sum(e.demo.n_segments for e in paired.entries)
        assert pairing.evaluate(paired, db).to_json_dict() == want
        assert len(calls) == n_segments == 80 and set(calls) == {8}

    @pytest.mark.parametrize("idx", [-1, 4])
    def test_snippet_index_outside_database_rejected(self, idx):
        anchors, db = anchor_db()
        robot = anchor_robot(anchors, [0])
        paired = crafted_paired(robot, [seg(idx, db.snippets[-1].seq_id, 0, 4)])
        with pytest.raises(RetrievalError, match="outside database"):
            evaluate(paired, db)

    def test_ot_beats_tcc_on_hard_benchmark(self):
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=5, seed=0))
        ot_rep = evaluate(
            build_paired_dataset(robot_set, db, ot_config(segment_count=2)), db
        )
        tcc_rep = evaluate(
            build_paired_dataset(
                robot_set,
                db,
                RetrievalConfig(distance=TccSequenceDistance(), segment_count=2),
            ),
            db,
        )
        assert ot_rep.task_recall >= tcc_rep.task_recall

    def test_report_fractions_bounded(self):
        robot_set, db = gen_benchmark("medium", GenConfig(n_trajectories=4, seed=7))
        report = evaluate(
            build_paired_dataset(robot_set, db, ot_config(segment_len=8)), db
        )
        assert 0.0 <= report.task_recall <= 1.0
        assert 0.0 <= report.task_imprecision <= 1.0
        assert 0.0 <= report.top1_accuracy <= 1.0


class TestMean:
    """``evaluate``'s averages: ``_mean`` must equal ``float(np.mean(v))`` to the bit."""

    LENGTHS = [*range(1, 301), 3000, 8191, 8192, 8193]

    @pytest.mark.parametrize("kind", ["floats", "fractions"])
    def test_equals_numpy_mean_bit_for_bit(self, kind):
        rng = np.random.default_rng(11)
        for n in self.LENGTHS:
            if kind == "floats":  # spread over magnitudes, so the summation order shows
                v = (rng.random(n) * 10.0 ** rng.uniform(-6, 6, n)).tolist()
            else:  # recall-like: k / m with small m
                m = rng.integers(1, 8, n)
                v = (rng.integers(0, m + 1) / m).tolist()
            want = float(np.mean(v))
            got = _mean(v)
            assert got.hex() == want.hex(), (n, got, want)

    def test_constant_and_zero_runs(self):
        for n in (1, 7, 8, 129, 3000):
            assert _mean([0.0] * n) == 0.0 and _mean([1 / 3] * n) == float(np.mean([1 / 3] * n))


def paired_doc():
    """A one-trajectory paired document, its robot dataset and its play dataset."""
    robot_set, db = gen_benchmark("easy", GenConfig(n_trajectories=1, seed=4))
    doc = paired_to_json_dict(build_paired_dataset(robot_set, db, ot_config(segment_len=8)))
    return doc, SnippetDatabase(tuple(robot_set), task_names=db.task_names), db


def from_json_dict_per_field(doc):
    """``SegmentRecord.from_json_dict`` as a loop over the fields: the reference rule."""
    required = ("start", "end", "snippet_index", "snippet_id", "distance", "converged")
    fields = {name: doc[name] for name in required}
    fields["margin"] = doc.get("margin")
    types = dict.fromkeys(("start", "end", "snippet_index"), (int,)) | {
        "snippet_id": (str,), "distance": (int, float), "margin": (int, float, type(None)), "converged": (bool,)
    }
    for name, value in fields.items():
        if type(value) not in types[name]:
            raise TypeError(f"segment field {name!r} has type {type(value).__name__}")
    return SegmentRecord(**fields)


def _record_outcome(parse, doc):
    """The record's field values with their types, or the exception's type and message."""
    try:
        rec = parse(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return type(rec), [(type(v), repr(v)) for v in (getattr(rec, f.name) for f in dataclasses.fields(rec))]


# Any JSON value: numbers (NaN and infinities included), strings, null, arrays, objects.
json_scalars = (st.integers(-3, 40), st.booleans(), st.floats(), st.text(max_size=3), st.none())
json_values = st.one_of(
    *json_scalars, st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
segment_fields = {
    "start": st.integers(0, 40), "end": st.integers(0, 40), "snippet_index": st.integers(-1, 40),
    "snippet_id": st.text(max_size=4), "distance": st.one_of(st.floats(), st.integers(0, 9)),
    "margin": st.one_of(st.none(), st.floats(), st.integers(0, 9)), "converged": st.booleans(),
}


@st.composite
def segment_docs(draw):
    """Segment documents: each field of its type or any JSON value, some keys
    missing, extra keys, and documents that are not objects at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(*json_scalars, st.lists(json_values, max_size=3)))
    doc = {name: draw(valid) for name, valid in segment_fields.items()}
    for name in draw(st.lists(st.sampled_from(list(segment_fields)), max_size=3, unique=True)):
        if draw(st.booleans()):
            doc[name] = draw(json_values)
        else:
            del doc[name]
    doc.update(draw(st.dictionaries(st.sampled_from(["pairs", "solved", "x", ""]), json_values, max_size=2)))
    return doc


class TestPairedJson:
    @settings(max_examples=1000)
    @given(segment_docs())
    def test_segment_record_matches_per_field_rule(self, doc):
        """The one-expression type test gives the record, or the exception type
        and message naming the first bad field, of the loop over the fields."""
        want = _record_outcome(from_json_dict_per_field, doc)
        assert _record_outcome(SegmentRecord.from_json_dict, doc) == want

    def test_segment_record_each_field_of_each_json_type(self):
        """Every field set to a value of each JSON type, alone or beside another bad field."""
        valid = {"start": 0, "end": 4, "snippet_index": 1, "snippet_id": "s", "distance": 0.5, "margin": None, "converged": True}
        values = [7, True, False, 1.5, math.nan, -math.inf, "7", None, [1], {"a": 1}]
        for name in valid:
            for value in values:
                for earlier in [None, *list(valid)[: list(valid).index(name)]]:
                    doc = dict(valid, **{name: value})
                    if earlier is not None:
                        doc[earlier] = "bad" if earlier != "snippet_id" else 0
                    want = _record_outcome(from_json_dict_per_field, doc)
                    assert _record_outcome(SegmentRecord.from_json_dict, doc) == want, doc

    def test_round_trip_via_json(self):
        robot_set, db = gen_benchmark("easy", GenConfig(n_trajectories=3, seed=4))
        paired = build_paired_dataset(robot_set, db, ot_config(segment_len=8))
        doc = paired_to_json_dict(paired)
        robot_db = SnippetDatabase(
            tuple(robot_set), task_names=db.task_names
        )
        back = paired_from_json_dict(doc, robot_db, db)
        assert evaluate(back, db).to_json_dict() == evaluate(paired, db).to_json_dict()
        assert paired_to_json_dict(back) == doc
        # the scan pruned, and its counts stay out of the document
        assert paired.solver["solved"] < paired.solver["pairs"] and back.solver is None
        assert {key for e in doc["entries"] for s in e["segments"] for key in s} == {
            f.name for f in dataclasses.fields(SegmentRecord)
        }

    def test_missing_robot_sequence_rejected(self):
        robot_set, db = gen_benchmark("easy", GenConfig(n_trajectories=2, seed=4))
        paired = build_paired_dataset(robot_set, db, ot_config(segment_len=8))
        doc = paired_to_json_dict(paired)
        robot_db = SnippetDatabase((robot_set.snippets[0],), task_names=db.task_names)
        with pytest.raises(RetrievalError, match="missing from robot dataset"):
            paired_from_json_dict(doc, robot_db, db)

    def test_snippet_id_index_mismatch_rejected(self):
        robot_set, db = gen_benchmark("easy", GenConfig(n_trajectories=1, seed=4))
        paired = build_paired_dataset(robot_set, db, ot_config(segment_len=8))
        doc = paired_to_json_dict(paired)
        doc["entries"][0]["segments"][0]["snippet_id"] = "bogus"
        robot_db = SnippetDatabase(tuple(robot_set), task_names=db.task_names)
        with pytest.raises(RetrievalError, match="bogus"):
            paired_from_json_dict(doc, robot_db, db)

    @pytest.mark.parametrize("drop", ["distance", "segments", "robot_id", "entries"])
    def test_missing_field_rejected(self, drop):
        doc, robot_db, db = paired_doc()
        entry = doc["entries"][0]
        owner = {"entries": doc, "robot_id": entry, "segments": entry}.get(drop, entry["segments"][0])
        del owner[drop]
        with pytest.raises(RetrievalError, match=f"malformed paired record: KeyError\\('{drop}'\\)"):
            paired_from_json_dict(doc, robot_db, db)

    @pytest.mark.parametrize("index", [-1, 35])
    def test_snippet_index_outside_play_dataset_rejected(self, index):
        doc, robot_db, db = paired_doc()
        assert len(db) == 35
        seg = doc["entries"][0]["segments"][0]
        # the id of the snippet that index -1 would wrap around to
        seg["snippet_index"], seg["snippet_id"] = index, db.snippets[-1].seq_id
        with pytest.raises(RetrievalError, match=f"not at index {index}"):
            paired_from_json_dict(doc, robot_db, db)

    @pytest.mark.parametrize(
        "provenance", [5, 0.5, "robot", [["a", 1]], True], ids=["int", "float", "string", "list", "bool"]
    )
    def test_provenance_not_an_object_rejected(self, provenance):
        doc, robot_db, db = paired_doc()
        doc["provenance"] = provenance
        with pytest.raises(ValueError, match="provenance must be a mapping or None"):
            paired_from_json_dict(doc, robot_db, db)

    @pytest.mark.parametrize("provenance", [None, {}, {"robot_dataset": "r"}], ids=["null", "empty", "object"])
    def test_provenance_object_or_null_read(self, provenance):
        doc, robot_db, db = paired_doc()
        doc["provenance"] = provenance
        assert paired_from_json_dict(doc, robot_db, db).provenance == (provenance or {})
        del doc["provenance"]
        assert paired_from_json_dict(doc, robot_db, db).provenance == {}

    @pytest.mark.parametrize(
        "start, end", [(-1, 4), (5, 5), (6, 2), (0, 33)], ids=["negative", "empty", "reversed", "past_end"]
    )
    def test_segment_range_outside_robot_sequence_rejected(self, start, end):
        doc, robot_db, db = paired_doc()
        assert robot_db.snippets[0].n_frames == 32
        seg = doc["entries"][0]["segments"][0]
        seg["start"], seg["end"] = start, end
        with pytest.raises(RetrievalError, match="outside robot sequence"):
            paired_from_json_dict(doc, robot_db, db)
