import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmatch.data import (
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    SnippetDatabase,
    quantize_frames_f32,
)
from seqmatch.ot import SinkhornConfig, cost_matrix, sinkhorn
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
        returns the number of non-converged solves seen."""
        robot_set, db = gen_benchmark("hard", GenConfig(n_trajectories=3, seed=4))
        scanned = RetrievalConfig(distance=distance, segment_count=2)
        looped = RetrievalConfig(distance=PerPairDistance(distance), segment_count=2)
        nonconverged = 0
        for robot in robot_set:
            got = imagine_demo(robot.sequence, db, scanned).segments
            assert got == imagine_demo(robot.sequence, db, looped).segments
            nonconverged += sum(r.n_nonconverged for r in got)
        return nonconverged

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


def decision(record):
    """A segment record's JSON fields without its two solver counts."""
    return {**record.to_json_dict(), "n_pruned": None, "n_nonconverged": None}


def assert_pruned_matches_grid(robot_set, db, solver, **segmentation):
    """Retrieval with the pruned transport scan equals retrieval with the full grid
    field by field, apart from the counts: ``n_nonconverged`` counts solved pairs only,
    so it is the grid's less any pruned pairs that do not converge. Returns each
    segment's (n_pruned, n_nonconverged)."""
    distance = OtSequenceDistance(solver)
    pruned = RetrievalConfig(distance=distance, **segmentation)
    full = RetrievalConfig(distance=GridDistance(distance), **segmentation)
    counts = []
    for robot in robot_set:
        got = imagine_demo(robot.sequence, db, pruned).segments
        want = imagine_demo(robot.sequence, db, full).segments
        assert [decision(r) for r in got] == [decision(r) for r in want]
        for g, w in zip(got, want):
            assert w.n_pruned == 0
            assert w.n_nonconverged - g.n_pruned <= g.n_nonconverged <= w.n_nonconverged
            assert g.n_pruned > 0 or g.n_nonconverged == w.n_nonconverged
        counts += [(r.n_pruned, r.n_nonconverged) for r in got]
    return counts


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
        counts = []
        for robot, entry in zip(robot_set, paired.entries):
            demo = imagine_demo(robot.sequence, db, cfg, source_id=robot.seq_id)
            assert entry.demo.source_id == demo.source_id == robot.seq_id
            assert [dataclasses.astuple(r) for r in entry.demo.segments] == [
                dataclasses.astuple(r) for r in demo.segments
            ]
            assert entry.demo.composed == demo.composed
            counts += [(r.n_pruned, r.n_nonconverged) for r in demo.segments]
        assert any(n_pruned for n_pruned, _ in counts) == pruned
        assert any(n_nonconverged for _, n_nonconverged in counts) == nonconverged

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


def paired_doc():
    """A one-trajectory paired document, its robot dataset and its play dataset."""
    robot_set, db = gen_benchmark("easy", GenConfig(n_trajectories=1, seed=4))
    doc = paired_to_json_dict(build_paired_dataset(robot_set, db, ot_config(segment_len=8)))
    return doc, SnippetDatabase(tuple(robot_set), task_names=db.task_names), db


class TestPairedJson:
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
        assert any(s["n_pruned"] > 0 for e in doc["entries"] for s in e["segments"])

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
        "start, end", [(-1, 4), (5, 5), (6, 2), (0, 33)], ids=["negative", "empty", "reversed", "past_end"]
    )
    def test_segment_range_outside_robot_sequence_rejected(self, start, end):
        doc, robot_db, db = paired_doc()
        assert robot_db.snippets[0].n_frames == 32
        seg = doc["entries"][0]["segments"][0]
        seg["start"], seg["end"] = start, end
        with pytest.raises(RetrievalError, match="outside robot sequence"):
            paired_from_json_dict(doc, robot_db, db)
