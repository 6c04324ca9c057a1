import csv
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from seqmatch.cli import main
from seqmatch.data import (
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    SnippetDatabase,
    quantize_frames_f32,
    read_dataset,
    write_dataset,
)
from seqmatch.ot import SinkhornConfig, cost_matrix, sinkhorn
from seqmatch.synthgen import GenConfig, gen_anchors
from seqmatch.tcc import TccConfig, tcc_distance, tcc_distance_symmetric

VOLATILE = ("run_manifest.json",)


def tree_digest(root: Path, exclude=VOLATILE) -> dict:
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


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
        [([], {"segment_k": 8, "segment_kprime": None}),
         (["--segment-kprime", "2"], {"segment_k": None, "segment_kprime": 2})],
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
        "field, value",
        [
            ("start", 0.0),
            ("end", "16"),
            ("snippet_index", True),
            ("n_nonconverged", 0.0),
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

    def test_missing_paired_run(self, tmp_path):
        assert main(["eval", "--paired", str(tmp_path / "void"), "--out", str(tmp_path / "e")]) == 3


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

    def test_missing_kprime_values_usage_error(self, tmp_path):
        assert main(["ablate", "--robot", "x", "--play", "y", "--kprime", "--out", "z"]) == 2

    def test_zero_kprime_usage_error(self, tmp_path):
        bench = tmp_path / "b"
        main(["gen", "--level", "easy", "--seed", "0", "--trajectories", "2",
              "--snippets-per-task", "1", "--out", str(bench)])
        code = main(
            ["ablate", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
             "--kprime", "0", "--out", str(tmp_path / "a")]
        )
        assert code == 2


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
