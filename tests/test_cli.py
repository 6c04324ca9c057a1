import argparse
import csv
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import seqmatch.cli
import seqmatch.data
from seqmatch import ot
from seqmatch.cli import main
from seqmatch.data import (
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    SnippetDatabase,
    dataset_content_hash,
    quantize_frames_f32,
    read_dataset,
    write_dataset,
)
from seqmatch.ot import SinkhornConfig, cost_matrix, sinkhorn
from seqmatch.retrieval import (
    OtSequenceDistance,
    RetrievalConfig,
    TccSequenceDistance,
    evaluate,
    paired_from_json_dict,
    segment,
)
from seqmatch.synthgen import GenConfig, gen_anchors
from seqmatch.tcc import TccConfig, tcc_distance, tcc_distance_symmetric

VOLATILE = ("run_manifest.json",)
SRC = Path(__file__).resolve().parents[1] / "src"
# numpy 2.4's dispatch targets above its x86-64-v2 baseline: disabling them
# all leaves numpy on its baseline kernels, as on a host without AVX2.
DISPATCH_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
PORTABLE_KERNELS = {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": " ".join(DISPATCH_TARGETS)}


def tree_digest(root: Path, exclude=VOLATILE) -> dict:
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def solver_block(run: Path):
    """The ``solver`` counts of a run's ``run_manifest.json``."""
    return json.loads((run / "run_manifest.json").read_text())["solver"]


def segment_frames(
    robot_db: SnippetDatabase, segment_count: int | None = None, segment_len: int | None = None
) -> list[np.ndarray]:
    """The frames of every K' (or K-frame) segment of every robot sequence, in retrieval order."""
    cfg = RetrievalConfig(distance=None, segment_count=segment_count, segment_len=segment_len)
    return [r.sequence.frames[a:b] for r in robot_db.snippets for a, b in segment(r.sequence, cfg)]


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def labeled(seq_id, frames, task, embodiment):
    frames = quantize_frames_f32(np.atleast_2d(frames))
    return LabeledSequence(
        seq_id=seq_id,
        sequence=EmbeddingSequence(frames),
        labels=tuple(FrameLabel.of(task) for _ in range(frames.shape[0])),
        embodiment=embodiment,
    )


@pytest.fixture
def mirror_bench(tmp_path):
    """Benchmark where robot clip i and snippet i hold identical frames."""
    anchors = gen_anchors(GenConfig(n_tasks=3, dim=8, tasks_per_trajectory=1, seed=0))
    robot, play = [], []
    for t in range(3):
        frames = np.tile(anchors.vectors[t], (4, 1))
        robot.append(labeled(f"clip-{t}", frames, t, Embodiment.ROBOT))
        play.append(labeled(f"snip-{t}", frames, t, Embodiment.DEMONSTRATOR))
    # clip-3 is a frame-permuted copy of clip-0's segment pattern
    mixed = np.vstack([np.tile(anchors.vectors[0], (2, 1)), np.tile(anchors.vectors[1], (2, 1))])
    robot.append(labeled("clip-3a", mixed, 0, Embodiment.ROBOT))
    robot.append(labeled("clip-3b", mixed[::-1], 0, Embodiment.ROBOT))
    bench = tmp_path / "bench"
    tasks = {t: f"task-{t}" for t in range(3)}
    write_dataset(SnippetDatabase(robot, tasks), bench / "robot")
    write_dataset(SnippetDatabase(play, tasks), bench / "play")
    return bench


class TestGen:
    def test_writes_datasets_and_manifest(self, tmp_path):
        out = tmp_path / "b"
        code = main(
            ["gen", "--level", "hard", "--seed", "0", "--trajectories", "3", "--out", str(out)]
        )
        assert code == 0
        assert (out / "robot" / "manifest.json").is_file()
        assert (out / "play" / "manifest.json").is_file()
        assert (out / "run_manifest.json").is_file()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 0
        assert "tool_version" in manifest and "wall_clock_sec" in manifest

    def test_rerun_identical_hashes(self, tmp_path):
        args = ["gen", "--level", "medium", "--seed", "5", "--trajectories", "3"]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_dim_below_tasks_is_usage_error(self, tmp_path):
        code = main(
            ["gen", "--level", "easy", "--d", "4", "--n-tasks", "7", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_unknown_level_usage_error(self, tmp_path):
        assert main(["gen", "--level", "insane", "--out", str(tmp_path / "x")]) == 2


class TestDist:
    def test_diagonal_is_row_minimum(self, mirror_bench, tmp_path):
        out = tmp_path / "d"
        assert main(["dist", str(mirror_bench), "--method", "ot", "--out", str(out)]) == 0
        rows = read_csv(out / "distances.csv")
        header, body = rows[0], rows[1:]
        assert header[0] == "robot_id" and header[1:] == ["snip-0", "snip-1", "snip-2"]
        for t in range(3):
            values = [float(x) for x in body[t][1:]]
            assert min(values) == values[t]
        manifest = json.loads((out / "dist_manifest.json").read_text())
        assert manifest["shape"] == [5, 3]
        assert manifest["nonconverged"] == []

    def test_permuted_clip_rows_identical(self, mirror_bench, tmp_path):
        out = tmp_path / "d"
        main(["dist", str(mirror_bench), "--method", "ot", "--out", str(out)])
        rows = {r[0]: [float(x) for x in r[1:]] for r in read_csv(out / "distances.csv")[1:]}
        np.testing.assert_allclose(rows["clip-3a"], rows["clip-3b"], atol=1e-9)

    def test_tcc_single_frame_zero_diagonal(self, tmp_path):
        anchors = gen_anchors(GenConfig(n_tasks=3, dim=8, tasks_per_trajectory=1, seed=0))
        bench = tmp_path / "bench"
        tasks = {t: f"task-{t}" for t in range(3)}
        robot = [labeled(f"clip-{t}", anchors.vectors[t], t, Embodiment.ROBOT) for t in range(3)]
        play = [labeled(f"snip-{t}", anchors.vectors[t], t, Embodiment.DEMONSTRATOR) for t in range(3)]
        write_dataset(SnippetDatabase(robot, tasks), bench / "robot")
        write_dataset(SnippetDatabase(play, tasks), bench / "play")
        out = tmp_path / "d"
        assert main(["dist", str(bench), "--method", "tcc", "--out", str(out)]) == 0
        body = read_csv(out / "distances.csv")[1:]
        for t in range(3):
            assert float(body[t][1 + t]) == pytest.approx(0.0, abs=1e-9)

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert main(["dist", str(tmp_path / "nope"), "--out", str(tmp_path / "d")]) == 3

    def test_strict_flags_nonconvergence(self, tmp_path):
        bench = tmp_path / "b"
        main(["gen", "--level", "easy", "--seed", "2", "--trajectories", "2",
              "--snippets-per-task", "1", "--out", str(bench)])
        code = main(
            [
                "dist", str(bench), "--method", "ot",
                "--max-iters", "1", "--tol", "1e-12",
                "--strict", "--out", str(tmp_path / "d"),
            ]
        )
        assert code == 4
        manifest = json.loads((tmp_path / "d" / "dist_manifest.json").read_text())
        assert manifest["nonconverged"]  # flagged per cell
        # every output is written before the exit code
        assert (tmp_path / "d" / "distances.csv").is_file()
        assert (tmp_path / "d" / "run_manifest.json").is_file()
        # same command without --strict succeeds with the flags recorded
        assert main(
            ["dist", str(bench), "--method", "ot", "--max-iters", "1",
             "--tol", "1e-12", "--out", str(tmp_path / "d2")]
        ) == 0

    @pytest.mark.parametrize("max_iters", [1000, 3])
    def test_grid_matches_per_pair_distance(self, tmp_path, max_iters):
        bench = tmp_path / "b"
        main(["gen", "--level", "hard", "--seed", "3", "--trajectories", "3",
              "--snippets-per-task", "2", "--out", str(bench)])
        out = tmp_path / "d"
        assert main(["dist", str(bench), "--max-iters", str(max_iters), "--out", str(out)]) == 0
        robot_db, play_db = read_dataset(bench / "robot"), read_dataset(bench / "play")
        solver = SinkhornConfig(max_iters=max_iters)
        want_rows, want_flags = [], []
        for clip in robot_db.snippets:
            plans = [sinkhorn(cost_matrix(clip.sequence, s.sequence), solver) for s in play_db.snippets]
            want_rows.append([clip.seq_id, *[repr(p.cost) for p in plans]])
            want_flags += [
                [clip.seq_id, s.seq_id] for s, p in zip(play_db.snippets, plans) if not p.converged
            ]
        assert read_csv(out / "distances.csv")[1:] == want_rows
        manifest = json.loads((out / "dist_manifest.json").read_text())
        assert manifest["nonconverged"] == want_flags
        assert bool(want_flags) == (max_iters == 3)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_tcc_grid_matches_per_pair_distance(self, tmp_path, symmetric):
        bench = tmp_path / "b"
        main(["gen", "--level", "hard", "--seed", "3", "--trajectories", "3",
              "--snippets-per-task", "2", "--out", str(bench)])
        out = tmp_path / "d"
        flags = ["--tcc-symmetric"] if symmetric else []
        assert main(["dist", str(bench), "--method", "tcc", "--temperature", "0.5", *flags,
                     "--out", str(out)]) == 0
        robot_db, play_db = read_dataset(bench / "robot"), read_dataset(bench / "play")
        fn = tcc_distance_symmetric if symmetric else tcc_distance
        cfg = TccConfig(temperature=0.5)
        want_rows = [
            [clip.seq_id, *[repr(fn(clip.sequence, s.sequence, cfg)) for s in play_db.snippets]]
            for clip in robot_db.snippets
        ]
        assert read_csv(out / "distances.csv")[1:] == want_rows
        assert json.loads((out / "dist_manifest.json").read_text())["nonconverged"] == []


class TestImagine:
    @pytest.fixture
    def easy_bench(self, tmp_path):
        out = tmp_path / "easy"
        main(
            ["gen", "--level", "easy", "--seed", "0", "--trajectories", "4",
             "--snippets-per-task", "2", "--out", str(out)]
        )
        return out

    def test_easy_recall_is_one(self, easy_bench, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["imagine", "--robot", str(easy_bench / "robot"), "--play",
             str(easy_bench / "play"), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["task_recall"] == 1.0
        assert report["task_imprecision"] == 0.0
        assert "retrieval-level" in report["note"]
        assert (out / "imagined" / "manifest.json").is_file()
        assert (out / "paired.json").is_file()
        assert "recall=1.0000" in capsys.readouterr().out

    def test_missing_play_path_is_data_error(self, easy_bench, tmp_path):
        code = main(
            ["imagine", "--robot", str(easy_bench / "robot"), "--play",
             str(tmp_path / "missing"), "--out", str(tmp_path / "run")]
        )
        assert code == 3

    def test_threads_identical_outputs(self, easy_bench, tmp_path):
        runs = {}
        for threads in ("1", "4"):
            out = tmp_path / f"run{threads}"
            assert main(
                ["imagine", "--robot", str(easy_bench / "robot"), "--play",
                 str(easy_bench / "play"), "--threads", threads, "--out", str(out)]
            ) == 0
            runs[threads] = tree_digest(out)
        assert runs["1"] == runs["4"]

    def test_conflicting_segmentation_flags(self, easy_bench, tmp_path):
        code = main(
            ["imagine", "--robot", str(easy_bench / "robot"), "--play",
             str(easy_bench / "play"), "--segment-k", "8", "--segment-kprime", "2",
             "--out", str(tmp_path / "run")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, effective",
        [([], {"segment_len": 8, "segment_count": None}),
         (["--segment-kprime", "2"], {"segment_len": None, "segment_count": 2})],
    )
    def test_run_manifest_records_effective_config(self, easy_bench, tmp_path, flags, effective):
        out = tmp_path / "run"
        assert main(
            ["imagine", "--robot", str(easy_bench / "robot"), "--play",
             str(easy_bench / "play"), *flags, "--out", str(out)]
        ) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert {k: manifest["config"][k] for k in effective} == effective
        provenance = json.loads((out / "paired.json").read_text())["provenance"]
        assert manifest["input_hashes"] == {
            "robot": provenance["robot_hash"], "play": provenance["play_hash"]
        }

    @pytest.mark.parametrize(
        "flags, distance",
        [([], OtSequenceDistance()),
         (["--method", "tcc", "--temperature", "0.5", "--tcc-symmetric"],
          TccSequenceDistance(TccConfig(temperature=0.5), symmetric=True))],
        ids=["ot", "tcc"],
    )
    def test_manifest_config_is_describe(self, easy_bench, tmp_path, flags, distance):
        """Every manifest records a config as its own ``describe()``."""
        robot, play = str(easy_bench / "robot"), str(easy_bench / "play")
        runs = {
            "imagine": ["imagine", "--robot", robot, "--play", play, "--segment-kprime", "2"],
            "dist": ["dist", str(easy_bench)],
            "ablate": ["ablate", "--robot", robot, "--play", play, "--kprime", "1", "2"],
        }
        docs = {}
        for command, argv in runs.items():
            assert main([*argv, *flags, "--out", str(tmp_path / command)]) == 0
            docs[command] = json.loads((tmp_path / command / "run_manifest.json").read_text())["config"]
        paired = json.loads((tmp_path / "imagine" / "paired.json").read_text())
        assert docs["imagine"] == paired["provenance"]["retrieval"]
        assert docs["imagine"] == RetrievalConfig(distance, segment_count=2).describe()
        dist_manifest = json.loads((tmp_path / "dist" / "dist_manifest.json").read_text())
        assert docs["dist"] == dist_manifest["config"] == distance.describe()
        assert docs["ablate"] == [RetrievalConfig(distance, segment_count=k).describe() for k in (1, 2)]


    @pytest.fixture
    def hard_bench(self, tmp_path):
        out = tmp_path / "hard"
        main(["gen", "--level", "hard", "--seed", "2", "--trajectories", "2",
              "--snippets-per-task", "3", "--out", str(out)])
        return out

    def imagine_segments(self, bench, out, flags):
        code = main(["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                     "--segment-kprime", "2", *flags, "--out", str(out)])
        doc = json.loads((out / "paired.json").read_text())
        return code, [s for e in doc["entries"] for s in e["segments"]]

    def test_strict_flags_nonconvergence(self, hard_bench, tmp_path):
        flags = ["--max-iters", "1", "--tol", "1e-12"]
        code, segments = self.imagine_segments(hard_bench, tmp_path / "run", [*flags, "--strict"])
        assert code == 4
        # every output is written before the exit code
        for name in ("imagined/manifest.json", "report.json", "report.csv", "run_manifest.json"):
            assert (tmp_path / "run" / name).is_file(), name
        # with and without --strict the scan prunes alike, and every pair it solves fails
        code, loose = self.imagine_segments(hard_bench, tmp_path / "loose", flags)
        assert code == 0 and loose == segments
        assert tree_digest(tmp_path / "run") == tree_digest(tmp_path / "loose")
        pairs = len(segments) * len(read_dataset(hard_bench / "play"))
        block = solver_block(tmp_path / "run")
        assert block == solver_block(tmp_path / "loose")
        assert block["pairs"] == pairs and 0 < block["nonconverged"] == block["solved"] < pairs

    def test_strict_default_solver_prunes(self, hard_bench, tmp_path):
        """The default solver converges on every pair: ``--strict`` passes, and the
        runs with and without it prune alike in every segment's scan row."""
        code, segments = self.imagine_segments(hard_bench, tmp_path / "strict", ["--strict"])
        assert code == 0
        code, loose = self.imagine_segments(hard_bench, tmp_path / "loose", [])
        assert code == 0 and loose == segments
        subs = segment_frames(read_dataset(hard_bench / "robot"), 2)
        values, converged = OtSequenceDistance().scan(subs, [s.sequence for s in read_dataset(hard_bench / "play")])
        solved, pairs = ~np.isposinf(values), values.size
        assert (~solved).any(axis=1).all() and converged[solved].all()
        for run in ("strict", "loose"):
            assert solver_block(tmp_path / run) == {"pairs": pairs, "solved": int(solved.sum()), "nonconverged": 0}

    @pytest.mark.parametrize("level, flags", [("easy", []), ("hard", ["--segment-kprime", "2"])], ids=["easy", "hard"])
    def test_prune_round_changes_only_the_manifest(self, tmp_path, monkeypatch, level, flags):
        """How much of the bank the pruned scan solves moves with its round size;
        only ``run_manifest.json``'s ``solver`` counts may show it."""
        bench = tmp_path / "bench"
        assert main(["gen", "--level", level, "--seed", "0", "--out", str(bench)]) == 0
        digests, solved = [], set()
        for round_size in (4, 8, 16):
            monkeypatch.setattr(ot, "_PRUNE_ROUND", round_size)
            out = tmp_path / f"round{round_size}"
            assert main(["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                         *flags, "--out", str(out)]) == 0
            digests.append(tree_digest(out))
            solved.add(solver_block(out)["solved"])
        assert "paired.json" in digests[0]
        assert digests[1] == digests[0] and digests[2] == digests[0]
        assert len(solved) >= 2

    def test_strict_judges_the_solved_pairs(self, tmp_path, capsys):
        """``--strict`` counts the non-converged solves of the pruned scan, not the grid's.
        On the hard desk bench at K'=2 and ``--max-iters 12`` no pair it solves fails,
        though pruned ones would, and it passes; on the easy one at K=8 and
        ``--max-iters 4`` 6 of them fail and it exits 4. A pruned pair's bound lies
        above its segment's runner-up whether or not its solve would converge, so it
        cannot change a pick, and ``--strict`` changes no output but the exit code."""
        cases = [
            ("hard", ["--segment-kprime", "2"], {"segment_count": 2}, 12, 0),
            ("easy", ["--segment-k", "8"], {"segment_len": 8}, 4, 6),
        ]
        for level, flags, segmenting, max_iters, nonconverged in cases:
            bench, runs = tmp_path / level / "bench", tmp_path / level
            assert main(["gen", "--level", level, "--seed", "0", "--out", str(bench)]) == 0
            argv = ["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                    *flags, "--max-iters", str(max_iters)]
            assert main([*argv, "--out", str(runs / "loose")]) == 0
            capsys.readouterr()
            assert main([*argv, "--strict", "--out", str(runs / "strict")]) == (4 if nonconverged else 0)
            subs = segment_frames(read_dataset(bench / "robot"), **segmenting)
            bank = [s.sequence for s in read_dataset(bench / "play")]
            _, converged = OtSequenceDistance(SinkhornConfig(max_iters=max_iters)).grid(subs, bank)
            loose = solver_block(runs / "loose")
            assert loose["nonconverged"] == nonconverged < int((~converged).sum())
            assert loose["nonconverged"] < loose["solved"] < loose["pairs"] == converged.size
            assert solver_block(runs / "strict") == loose
            error = f"error: {nonconverged} candidate distances did not converge\n" if nonconverged else ""
            assert capsys.readouterr().err == error
            assert tree_digest(runs / "strict") == tree_digest(runs / "loose")

    def test_non_object_dataset_provenance_is_data_error(self, paired_run, tmp_path, capsys):
        recorded, robot = json.loads(paired_run[1])["provenance"], tmp_path / "robot"
        write_dataset(read_dataset(recorded["robot_dataset"]), robot)
        doc = json.loads((robot / "manifest.json").read_text())
        (robot / "manifest.json").write_text(json.dumps({**doc, "provenance": 5}))
        assert main(["imagine", "--robot", str(robot), "--play", recorded["play_dataset"],
                     "--out", str(tmp_path / "i")]) == 3
        assert "'provenance' must be an object or null" in capsys.readouterr().err


SEGMENT_FIELDS = (
    "start", "end", "snippet_index", "snippet_id", "distance", "margin", "converged",
)
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.just(2**70),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _mutate(doc, target, index, value):
    """Set ``target`` of a ``paired.json`` document to ``value``; entry and segment
    targets pick their entry and segment by ``index``, if there is one to pick."""
    if target in ("robot_dataset", "play_dataset"):
        doc["provenance"][target] = value
        return
    if target == "entries":
        doc["entries"] = value
        return
    entries = doc["entries"]
    if not isinstance(entries, list) or not entries:
        return
    if target == "entry":
        entries[index % len(entries)] = value
        return
    entry = entries[index % len(entries)]
    if not isinstance(entry, dict):
        return
    if target in ("segments", "robot_id"):
        entry[target] = value
        return
    segments = entry.get("segments")
    if isinstance(segments, list) and segments and isinstance(segments[index % len(segments)], dict):
        segments[index % len(segments)][target] = value


@pytest.fixture(scope="module")
def paired_run(tmp_path_factory):
    """A small ``imagine`` run: its directory and the text of its ``paired.json``."""
    root = tmp_path_factory.mktemp("paired")
    bench, run = root / "b", root / "run"
    main(["gen", "--level", "hard", "--seed", "0", "--trajectories", "2",
          "--snippets-per-task", "1", "--out", str(bench)])
    assert main(["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                 "--segment-kprime", "2", "--out", str(run)]) == 0
    (run / "fuzz").mkdir()
    return run, (run / "paired.json").read_text()


class TestEval:
    def test_recomputes_same_metrics(self, tmp_path):
        bench = tmp_path / "b"
        main(["gen", "--level", "hard", "--seed", "1", "--trajectories", "4",
              "--snippets-per-task", "2", "--out", str(bench)])
        run = tmp_path / "run"
        main(["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
              "--segment-kprime", "2", "--out", str(run)])
        evaldir = tmp_path / "eval"
        assert main(["eval", "--paired", str(run), "--out", str(evaldir)]) == 0
        original = json.loads((run / "report.json").read_text())
        recomputed = json.loads((evaldir / "report.json").read_text())
        assert recomputed == original
        assert (evaldir / "report.csv").is_file()

    def test_negative_snippet_index_is_data_error(self, tmp_path):
        bench = tmp_path / "b"
        main(["gen", "--level", "hard", "--seed", "0", "--trajectories", "2",
              "--snippets-per-task", "2", "--out", str(bench)])
        run = tmp_path / "run"
        main(["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
              "--segment-kprime", "2", "--out", str(run)])
        doc = json.loads((run / "paired.json").read_text())
        seg = doc["entries"][0]["segments"][0]
        # index -1 would wrap around to the last snippet, whose id this is
        seg["snippet_index"], seg["snippet_id"] = -1, read_dataset(bench / "play").ids[-1]
        (run / "paired.json").write_text(json.dumps(doc))
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 3

    def test_invalid_paired_json_is_data_error(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "paired.json").write_text("{not json")
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 3

    def test_non_utf8_paired_json_is_data_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "paired.json").write_bytes(b"\xff\xfe{}")
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 3
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["1" + "0" * 5000, "[" * 100_000 + "]" * 100_000], ids=["int-digits", "nesting"]
    )
    def test_json_past_parser_limits_is_data_error(self, tmp_path, capsys, value):
        run = tmp_path / "run"
        run.mkdir()
        (run / "paired.json").write_text('{"entries": [{"segments": [{"start": ' + value + "}]}]}")
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 3
        assert f"unparsable {run / 'paired.json'}" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("start", 0.0),
            ("end", "16"),
            ("snippet_index", True),
            ("distance", "0.5"),
            ("distance", False),
            ("margin", True),
            ("converged", 1),
            ("snippet_id", 3),
            ("robot_id", ["robot-000"]),
        ],
    )
    def test_mistyped_segment_field_is_data_error(self, tmp_path, capsys, field, value):
        bench = tmp_path / "b"
        main(["gen", "--level", "easy", "--seed", "0", "--trajectories", "2",
              "--snippets-per-task", "2", "--out", str(bench)])
        run = tmp_path / "run"
        main(["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
              "--out", str(run)])
        doc = json.loads((run / "paired.json").read_text())
        owner = doc["entries"][0] if field == "robot_id" else doc["entries"][0]["segments"][0]
        assert type(owner[field]) is not type(value)
        owner[field] = value
        (run / "paired.json").write_text(json.dumps(doc))
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts", [{"n_nonconverged": 0, "n_pruned": 33}, {"n_nonconverged": 0.5, "n_pruned": True}],
        ids=["typed", "mistyped"],
    )
    def test_solver_counts_of_older_paired_json_are_ignored(self, paired_run, tmp_path, counts):
        """A ``paired.json`` whose records still carry the solver counts that older
        versions wrote, well typed or not, evaluates to the same report bytes."""
        run, text = paired_run
        doc = json.loads(text)
        for entry in doc["entries"]:
            for seg in entry["segments"]:
                assert not seg.keys() & counts.keys()
                seg.update(counts)
        old = tmp_path / "old"
        old.mkdir()
        (old / "paired.json").write_text(json.dumps(doc))
        assert main(["eval", "--paired", str(old), "--out", str(tmp_path / "e")]) == 0
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "e" / name).read_bytes() == (run / name).read_bytes()

    def test_non_object_paired_json_is_data_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "paired.json").write_text("[]")
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 3
        assert "JSON object" in capsys.readouterr().err

    def test_non_object_provenance_is_data_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "paired.json").write_text(json.dumps({"provenance": [], "entries": []}))
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 3
        assert "provenance" in capsys.readouterr().err

    @pytest.mark.parametrize("drop", [False, True], ids=["null", "missing"])
    def test_null_or_missing_provenance_reads_as_empty(self, paired_run, tmp_path, capsys, drop):
        run, text = paired_run
        doc = json.loads(text)
        recorded = doc.pop("provenance")
        if not drop:
            doc["provenance"] = None
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "paired.json").write_text(json.dumps(doc))
        assert main(["eval", "--paired", str(bare), "--robot", recorded["robot_dataset"],
                     "--play", recorded["play_dataset"], "--out", str(tmp_path / "e")]) == 0
        assert (tmp_path / "e" / "report.json").read_bytes() == (run / "report.json").read_bytes()
        assert main(["eval", "--paired", str(bare), "--out", str(tmp_path / "f")]) == 3
        assert "robot/play dataset paths neither given nor recorded" in capsys.readouterr().err

    def test_robot_hash_agrees_across_commands(self, tmp_path):
        # two trajectories visit 4 of the 7 declared tasks: every command must
        # still hash the robot set with the task table the dataset declares
        bench, run = tmp_path / "b", tmp_path / "run"
        assert main(["gen", "--level", "hard", "--snippets-per-task", "50", "--trajectories", "2",
                     "--seed", "0", "--out", str(bench)]) == 0
        robot_db = read_dataset(bench / "robot")
        assert set().union(*(s.task_set for s in robot_db)) == {1, 3, 4, 6}
        assert len(robot_db.task_names) == 7
        assert main(["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                     "--segment-kprime", "2", "--out", str(run)]) == 0
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 0
        hashes = {
            json.loads((d / "run_manifest.json").read_text())["input_hashes"]["robot"]
            for d in (bench, run, tmp_path / "e")
        }
        hashes.add(json.loads((run / "paired.json").read_text())["provenance"]["robot_hash"])
        assert len(hashes) == 1

    def test_library_path_decodes_no_frame(self, paired_run):
        doc = json.loads(paired_run[1])
        recorded = doc["provenance"]
        robot_db, play_db = read_dataset(recorded["robot_dataset"]), read_dataset(recorded["play_dataset"])
        evaluate(paired_from_json_dict(doc, robot_db, play_db), play_db)
        assert dataset_content_hash(robot_db) == recorded["robot_hash"]
        assert dataset_content_hash(play_db) == recorded["play_hash"]
        assert not any("frames" in vars(s.sequence) for db in (robot_db, play_db) for s in db)

    def test_command_decodes_no_frame(self, paired_run, tmp_path, monkeypatch):
        read = []

        def recording_read(path):
            read.append(read_dataset(path))
            return read[-1]

        monkeypatch.setattr(seqmatch.cli, "read_dataset", recording_read)
        out = tmp_path / "e"
        assert main(["eval", "--paired", str(paired_run[0]), "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == (paired_run[0] / "report.json").read_bytes()
        assert len(read) == 2
        assert not any("frames" in vars(s.sequence) for db in read for s in db)

    def test_missing_paired_run(self, tmp_path):
        assert main(["eval", "--paired", str(tmp_path / "void"), "--out", str(tmp_path / "e")]) == 3

    @pytest.mark.parametrize("entries", [[], "", {}])
    def test_no_entries_is_data_error(self, paired_run, tmp_path, capsys, entries):
        run, text = paired_run
        doc = json.loads(text)
        doc["entries"] = entries
        fuzz = tmp_path / "fuzz"
        fuzz.mkdir()
        (fuzz / "paired.json").write_text(json.dumps(doc))
        assert main(["eval", "--paired", str(fuzz), "--out", str(tmp_path / "e")]) == 3
        assert "no entries" in capsys.readouterr().err

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["robot_dataset", "play_dataset", "entries", "entry", "segments", "robot_id",
                                 *SEGMENT_FIELDS]),
                st.integers(0, 7),
                json_values,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_mutated_paired_json_exits_0_or_3(self, paired_run, mutations):
        """A ``paired.json`` with mutated provenance paths, entries, segments or
        segment fields is evaluated or rejected as a data error, never raised."""
        run, text = paired_run
        doc = json.loads(text)
        for target, index, value in mutations:
            _mutate(doc, target, index, value)
        (run / "fuzz" / "paired.json").write_text(json.dumps(doc))
        assert main(["eval", "--paired", str(run / "fuzz"), "--out", str(run / "e")]) in (0, 3)


class TestAblate:
    def test_kprime_sweep_on_hard(self, tmp_path):
        bench = tmp_path / "b"
        main(["gen", "--level", "hard", "--seed", "0", "--trajectories", "4",
              "--snippets-per-task", "2", "--out", str(bench)])
        out = tmp_path / "abl"
        code = main(
            ["ablate", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
             "--kprime", "1", "2", "4", "32", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["kprime", "recall", "imprecision", "top1_accuracy"]
        recalls = {int(r[0]): float(r[1]) for r in rows[1:]}
        assert recalls[1] == min(recalls.values())
        assert recalls[2] > recalls[1]
        assert set(recalls) == {1, 2, 4, 32}  # kprime = T runs with K clamped to 1

    def test_hashes_each_input_once(self, tmp_path, monkeypatch):
        bench = tmp_path / "b"
        main(["gen", "--level", "hard", "--seed", "0", "--trajectories", "2",
              "--snippets-per-task", "1", "--out", str(bench)])
        digests = []

        def counting_sha256():
            digests.append(hashlib.sha256())
            return digests[-1]

        monkeypatch.setattr(seqmatch.data, "hashlib", SimpleNamespace(sha256=counting_sha256))
        out = tmp_path / "abl"
        assert main(["ablate", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                     "--kprime", "1", "2", "4", "--out", str(out)]) == 0
        assert len(digests) == 2
        recorded = json.loads((out / "run_manifest.json").read_text())["input_hashes"]
        assert recorded == {"robot": digests[0].hexdigest(), "play": digests[1].hexdigest()}

    def test_strict_flags_nonconvergence(self, tmp_path, capsys):
        bench = tmp_path / "b"
        main(["gen", "--level", "hard", "--seed", "1", "--trajectories", "2",
              "--snippets-per-task", "1", "--out", str(bench)])
        argv = ["ablate", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                "--kprime", "1", "2", "--max-iters", "1", "--tol", "1e-12"]
        assert main([*argv, "--out", str(tmp_path / "loose")]) == 0
        capsys.readouterr()
        out = tmp_path / "abl"
        assert main([*argv, "--strict", "--out", str(out)]) == 4
        assert "candidate distances did not converge" in capsys.readouterr().err
        # every output is written before the exit code, and matches the run without --strict
        for name in ("ablation.csv", "ablation.json"):
            assert (out / name).read_bytes() == (tmp_path / "loose" / name).read_bytes()
        # one solver block per K', the same with --strict and without: the pruned
        # scan's counts, where no solve converges
        robot_db, play_db = read_dataset(bench / "robot"), read_dataset(bench / "play")
        distance = OtSequenceDistance(SinkhornConfig(max_iters=1, tol_marginal=1e-12))
        blocks = []
        for kprime in (1, 2):
            values, converged = distance.scan(segment_frames(robot_db, kprime), [s.sequence for s in play_db])
            solved = int(np.isfinite(values).sum())
            assert not converged.any()
            blocks.append({"pairs": values.size, "solved": solved, "nonconverged": solved})
        assert solver_block(out) == solver_block(tmp_path / "loose") == blocks

    def test_missing_kprime_values_usage_error(self, tmp_path):
        assert main(["ablate", "--robot", "x", "--play", "y", "--kprime", "--out", "z"]) == 2

    def test_zero_kprime_usage_error(self, tmp_path, capsys):
        bench = tmp_path / "b"
        main(["gen", "--level", "easy", "--seed", "0", "--trajectories", "2",
              "--snippets-per-task", "1", "--out", str(bench)])
        code = main(
            ["ablate", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
             "--kprime", "2", "0", "--out", str(tmp_path / "a")]
        )
        assert code == 2
        assert "segment_count must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()


class TestExitCodes:
    """A bad flag is a usage error (2) before any input is read; a ``ValueError``
    that the inputs cause is a data error (3)."""

    def test_every_command_has_config_and_run_step(self):
        parser = seqmatch.cli._build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == {"gen", "dist", "imagine", "eval", "ablate"}
        for name, p in commands.choices.items():
            assert callable(p.get_default("config")) and callable(p.get_default("run")), name

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--level", "easy", "--d", "4", "--n-tasks", "7"],
            ["dist", "nope", "--epsilon", "0"],
            ["dist", "nope", "--method", "tcc", "--temperature", "0"],
            ["imagine", "--robot", "nope", "--play", "nope", "--segment-k", "0"],
            ["imagine", "--robot", "nope", "--play", "nope", "--segment-kprime", "0"],
            ["ablate", "--robot", "nope", "--play", "nope", "--kprime", "2", "--max-iters", "0"],
            ["ablate", "--robot", "nope", "--play", "nope", "--kprime", "0"],
            ["eval", "--paired", "nope", "--robot"],
            ["imagine", "--robot", "nope", "--play", "nope", "--epsilon", "inf"],
            ["dist", "nope", "--tol", "inf"],
            ["dist", "nope", "--method", "tcc", "--temperature", "inf"],
            ["gen", "--level", "easy", "--noise-sigma", "inf"],
        ],
        ids=["gen", "dist-ot", "dist-tcc", "imagine-k", "imagine-kprime", "ablate-ot", "ablate-kprime",
             "eval", "imagine-epsilon-inf", "dist-tol-inf", "dist-temperature-inf", "gen-noise-inf"],
    )
    def test_bad_flag_wins_over_missing_input(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "out"]) == 2
        assert not (tmp_path / "out").exists()

    def test_negative_seed_names_the_field(self, tmp_path, capsys):
        assert main(["gen", "--level", "easy", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.fixture(params=["dimension mismatch", "zero-norm frame", "zero-norm robot frame"])
    def bad_bench(self, request, tmp_path):
        anchors = gen_anchors(GenConfig(n_tasks=3, dim=8, tasks_per_trajectory=1, seed=0))
        robot = np.repeat(anchors.vectors[:, None], 4, axis=1)  # one 4-frame clip per task
        play = robot.copy()
        if request.param == "dimension mismatch":
            play = robot[..., :4]
        elif request.param == "zero-norm frame":
            play[1, 2] = 0.0
        else:  # in the second robot trajectory, after a first one that retrieves fine
            robot = robot.copy()
            robot[1, 2] = 0.0
        bench = tmp_path / "bench"
        tasks = {t: f"task-{t}" for t in range(3)}
        sides = (("robot", robot, Embodiment.ROBOT), ("play", play, Embodiment.DEMONSTRATOR))
        for name, clips, embodiment in sides:
            db = [labeled(f"{name}-{t}", clips[t], t, embodiment) for t in range(3)]
            write_dataset(SnippetDatabase(db, tasks), bench / name)
        return bench, request.param

    @pytest.mark.parametrize("command", ["imagine", "dist", "ablate"])
    def test_value_error_from_data_is_data_error(self, bad_bench, tmp_path, capsys, command):
        bench, message = bad_bench
        argv = {
            "imagine": ["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play")],
            "dist": ["dist", str(bench)],
            "ablate": ["ablate", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                       "--kprime", "1"],
        }[command]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3
        if message == "dimension mismatch":
            detail = "8 vs 4" if command == "dist" else "sequence d=8, database d=4"
            assert capsys.readouterr().err == f"error: dimension mismatch: {detail}\n"
        else:
            assert capsys.readouterr().err == "error: zero-norm frame: cosine distance undefined\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad_bench", ["zero-norm frame", "zero-norm robot frame"], indirect=True)
    def test_zero_norm_frame_is_valid_tcc_data(self, bad_bench, tmp_path):
        # The cycle distance needs no frame norm, so a zero-norm frame is not
        # rejected when a dataset is read: it is an error only for the cosine cost.
        bench, _ = bad_bench
        robot, play, run = str(bench / "robot"), str(bench / "play"), str(tmp_path / "run")
        assert main(["imagine", "--robot", robot, "--play", play, "--method", "tcc", "--out", run]) == 0
        assert main(["dist", str(bench), "--method", "tcc", "--out", str(tmp_path / "d")]) == 0
        assert main(["eval", "--paired", run, "--out", str(tmp_path / "e")]) == 0


class TestGarbageCollector:
    """``main`` pauses the cyclic collector for the command, restores the caller's
    setting and freezes nothing."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_before(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["gen", "--level", "easy", "--trajectories", "2", "--snippets-per-task", "1"], 0),
            (["eval", "--paired", "void"], 3),
            (["gen", "--level", "easy", "--d", "4", "--n-tasks", "7"], 2),
            (["gen", "--level", "insane"], 2),
        ],
        ids=["success", "data-error", "config-error", "parse-error"],
    )
    def test_state_restored(self, gc_before, tmp_path, argv, code):
        frozen = gc.get_freeze_count()
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
        assert gc.isenabled() is gc_before
        assert gc.get_freeze_count() == frozen

    def test_paused_during_command(self, gc_before, tmp_path, monkeypatch):
        seen = []
        gen = seqmatch.cli.gen_benchmark
        monkeypatch.setattr(seqmatch.cli, "gen_benchmark", lambda *a: seen.append(gc.isenabled()) or gen(*a))
        argv = ["gen", "--level", "easy", "--trajectories", "2", "--snippets-per-task", "1"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert seen == [False] and gc.isenabled() is gc_before


class TestPipelineReproducibility:
    def test_gen_imagine_eval_hash_identical(self, tmp_path, monkeypatch):
        # relative paths keep recorded provenance identical across run roots
        digests = []
        for name in ("one", "two"):
            root = tmp_path / name
            root.mkdir()
            monkeypatch.chdir(root)
            main(["gen", "--level", "easy", "--seed", "3", "--trajectories", "3",
                  "--snippets-per-task", "2", "--out", "bench"])
            main(["imagine", "--robot", "bench/robot", "--play", "bench/play",
                  "--out", "run"])
            main(["eval", "--paired", "run", "--out", "eval"])
            digests.append(tree_digest(root))
        assert digests[0] == digests[1]

    def test_portable_kernels_keep_picks_and_report(self, tmp_path):
        """Across CPUs, picks and reports are equal and distances agree to a few ulp:
        ``imagine`` under numpy's baseline kernels and OpenBLAS's Prescott kernels
        against the same command under this host's defaults."""
        reason = portable_kernels_unavailable()
        if reason:
            pytest.skip(reason)
        run_cli(tmp_path, "gen", "--level", "medium", "--seed", "3", "--out", "bench")
        imagine = ("imagine", "--robot", "bench/robot", "--play", "bench/play", "--segment-k", "8")
        run_cli(tmp_path, *imagine, "--out", "native")
        run_cli(tmp_path, *imagine, "--out", "portable", **PORTABLE_KERNELS)
        native, portable = tmp_path / "native", tmp_path / "portable"
        assert (native / "report.json").read_bytes() == (portable / "report.json").read_bytes()
        assert tree_digest(native / "imagined") == tree_digest(portable / "imagined")
        want = json.loads((native / "paired.json").read_text())
        got = json.loads((portable / "paired.json").read_text())
        assert got["provenance"] == want["provenance"]
        assert [e["robot_id"] for e in got["entries"]] == [e["robot_id"] for e in want["entries"]]
        close = ("distance", "margin")
        for g_entry, w_entry in zip(got["entries"], want["entries"]):
            assert len(g_entry["segments"]) == len(w_entry["segments"])
            for g, w in zip(g_entry["segments"], w_entry["segments"]):
                assert {k: v for k, v in g.items() if k not in close} == {
                    k: v for k, v in w.items() if k not in close
                }
                for key in close:
                    assert abs(g[key] - w[key]) <= 1e-15, (w_entry["robot_id"], g["start"], key)

    def test_portable_kernels_keep_gen_bytes(self, tmp_path):
        """``gen`` of several generation chunks writes the same bytes under numpy's
        baseline kernels and OpenBLAS's Prescott kernels as under this host's defaults."""
        reason = portable_kernels_unavailable()
        if reason:
            pytest.skip(reason)
        gen = ("gen", "--level", "hard", "--seed", "3", "--trajectories", "300")
        run_cli(tmp_path, *gen, "--out", "native")
        run_cli(tmp_path, *gen, "--out", "portable", **PORTABLE_KERNELS)
        native = tree_digest(tmp_path / "native")
        assert sum(name.startswith("robot/robot-") for name in native) == 300
        assert tree_digest(tmp_path / "portable") == native


class TestRewrite:
    """Every output file is rewritten in place, through one writer."""

    SMALL = ("--trajectories", "2", "--snippets-per-task", "1")
    LARGE = ("--trajectories", "5", "--snippets-per-task", "3")

    @staticmethod
    def run_commands(root: Path, monkeypatch, sizes) -> None:
        # relative paths keep recorded provenance identical across run roots
        root.mkdir(exist_ok=True)
        monkeypatch.chdir(root)
        assert main(["gen", "--level", "hard", "--seed", "0", *sizes, "--out", "bench"]) == 0
        assert main(["imagine", "--robot", "bench/robot", "--play", "bench/play",
                     "--segment-kprime", "2", "--out", "run"]) == 0
        assert main(["dist", "bench", "--out", "grid"]) == 0

    @pytest.mark.parametrize("first, second", [(LARGE, SMALL), (SMALL, LARGE)], ids=["over-longer", "over-shorter"])
    def test_rewrite_matches_fresh_write(self, tmp_path, monkeypatch, first, second):
        """gen's datasets, imagine's and dist's outputs written over those of a
        larger or a smaller bench hold the bytes of a fresh write. A smaller
        rewrite leaves the larger one's extra blobs (stale files), so only
        the files of the fresh write are compared."""
        self.run_commands(tmp_path / "fresh", monkeypatch, second)
        self.run_commands(tmp_path / "again", monkeypatch, first)
        self.run_commands(tmp_path / "again", monkeypatch, second)
        fresh, again = tree_digest(tmp_path / "fresh"), tree_digest(tmp_path / "again")
        assert {"run/paired.json", "run/report.csv", "grid/distances.csv", "bench/robot/manifest.json"} <= set(fresh)
        assert {name: again.get(name) for name in fresh} == fresh

    def test_rewrite_opens_every_file_once_without_truncation(self, tmp_path, monkeypatch):
        argv = ["gen", "--level", "easy", "--seed", "0", "--out", str(tmp_path / "bench")]
        assert main(argv) == 0
        opened, write_modes = [], []
        real_open, real_io_open = os.open, io.open

        def spy_os_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        def spy_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                write_modes.append((file, mode))
            return real_io_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr("builtins.open", spy_open)
        monkeypatch.setattr(io, "open", spy_open)
        monkeypatch.setattr(Path, "write_text", lambda *a, **k: write_modes.append(a))
        monkeypatch.setattr(Path, "write_bytes", lambda *a, **k: write_modes.append(a))
        assert main(argv) == 0
        assert write_modes == []
        assert not [path for path, flags in opened if flags & os.O_TRUNC]
        written = sorted(path for path, flags in opened if flags & os.O_WRONLY)
        assert written == sorted(str(p) for p in (tmp_path / "bench").rglob("*") if p.is_file())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("command, fifo", [("gen", "robot/robot-000.f32"), ("imagine", "paired.json")])
    def test_fifo_output_fails_at_once(self, tmp_path, command, fifo):
        """A FIFO where an output goes is a data error, not a write that waits for a reader."""
        bench, out = tmp_path / "bench", tmp_path / "out"
        gen = ["gen", "--level", "easy", "--seed", "0"]
        assert main([*gen, "--out", str(bench)]) == 0
        argv = {"gen": gen, "imagine": ["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play")]}
        (out / fifo).parent.mkdir(parents=True)
        os.mkfifo(out / fifo)
        proc = subprocess.run(
            [sys.executable, "-m", "seqmatch.cli", *argv[command], "--out", str(out)],
            env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert f"cannot write {out / fifo}: not a regular file" in proc.stderr


def cli_env(**extra: str) -> dict:
    """This environment without the kernel-selection variables, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if k not in PORTABLE_KERNELS}
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**env, **extra, "PYTHONPATH": path}


def run_cli(cwd: Path, *args: str, **env: str) -> None:
    """``python -m seqmatch.cli *args`` in a child process in ``cwd``."""
    proc = subprocess.run(
        [sys.executable, "-m", "seqmatch.cli", *args], cwd=cwd, env=cli_env(**env),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def portable_kernels_unavailable() -> str | None:
    """Why ``PORTABLE_KERNELS`` would change nothing here, or None."""
    probe = (
        "import sys\n"
        "try:\n"
        "    from numpy._core._multiarray_umath import __cpu_features__\n"
        "except Exception as exc:\n"
        "    sys.exit(' '.join(str(exc).split()))\n"
        "print(' '.join(n for n in sys.argv[1:] if __cpu_features__.get(n)))\n"
    )
    command = [sys.executable, "-W", "error::ImportWarning", "-c", probe, *DISPATCH_TARGETS]
    native = subprocess.run(command, env=cli_env(), capture_output=True, text=True)
    if native.returncode != 0:
        return f"numpy does not report its CPU features: {native.stderr.strip()}"
    if not native.stdout.split():
        return f"this host has none of numpy's dispatch targets {' '.join(DISPATCH_TARGETS)}"
    portable = subprocess.run(command, env=cli_env(**PORTABLE_KERNELS), capture_output=True, text=True)
    if portable.returncode != 0:
        return f"numpy rejects NPY_DISABLE_CPU_FEATURES: {portable.stderr.strip()}"
    return None


def test_benchmark_trace_layers_resolve():
    """The traced benchmark run wraps each (module, name) of its ``LAYERS``
    at the name the caller looks up; every one must exist."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for _, module, attr, _ in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
