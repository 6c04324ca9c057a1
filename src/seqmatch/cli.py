"""Command-line experiment harness.

Commands: ``gen`` (synthetic benchmark to disk), ``dist`` (robot-clip x
snippet distance grid as CSV), ``imagine`` (paired dataset + report),
``eval`` (recompute metrics from a paired run), ``ablate`` (segment-count
sweep). Every command drops a ``run_manifest.json`` beside its outputs
with the full config, input hashes, tool version, wall clock and seed;
that file is the only non-deterministic output, everything else is
byte-stable for fixed flags and inputs. Every command runs in one
thread: ``--threads`` is still accepted but has no effect.

``main`` pauses Python's cyclic garbage collector while a command runs
and restores the caller's setting when it returns, however it returns.
A command keeps hundreds of thousands of small containers alive (a
manifest's parsed records, labels, segment records), and each collector
pass would rescan them all for cycles that are not there. Pausing is
safe because a command builds no cyclic garbage in bulk: what it drops is
freed by reference counting as before, and the few cycles it leaves (the
argument parser, a caught exception's traceback) are collected once the
collector is back on, or at exit.

Every command runs in two steps, both registered on its subparser. The
config step (``config``) turns the flags into what the command runs on
(a distance, retrieval configs or, for ``gen``, the generated datasets)
and reads and writes nothing. The run step (``run``) reads the inputs,
computes and writes the outputs. ``main`` alone maps exceptions to exit
codes. A ``ValueError`` from the config step is a usage error, so a bad
flag is reported before any input is read. Every config is validated
before the run step starts, so a ``ValueError`` there can only come from
the inputs (a robot set and bank of different dimension, a zero-norm
frame) and is a data error.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure (OT non-convergence under --strict). Set SEQMATCH_LOG=debug for
verbose logging.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DatasetError,
    LabeledSequence,
    SnippetDatabase,
    canonical_json,
    dataset_content_hash,
    read_dataset,
    write_dataset,
)
from .ot import SinkhornConfig
from .retrieval import (
    OtSequenceDistance,
    RetrievalConfig,
    RetrievalError,
    SequenceDistance,
    TccSequenceDistance,
    build_paired_dataset,
    evaluate,
    paired_from_json_dict,
    paired_to_json_dict,
)
from .synthgen import GenConfig, gen_benchmark
from .tcc import TccConfig

log = logging.getLogger("seqmatch")


class StrictNonConvergence(Exception):
    """OT failed to converge and --strict was set (exit code 4)."""


def _configure_logging() -> None:
    level_name = os.environ.get("SEQMATCH_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write_json(path: Path, doc) -> None:
    path.write_text(canonical_json(doc), encoding="utf-8")


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _write_run_manifest(
    out: Path, command: str, config: dict, input_hashes: dict, seed: int | None, t0: float
) -> None:
    doc = {
        "command": command,
        "config": config,
        "input_hashes": input_hashes,
        "tool_version": __version__,
        "seed": seed,
        "wall_clock_sec": time.perf_counter() - t0,
    }
    _write_json(out / "run_manifest.json", doc)


def _read_required(path: str, what: str) -> SnippetDatabase:
    p = Path(path)
    if not p.exists():
        raise DatasetError(f"{what} dataset not found: {p}")
    return read_dataset(p)


def _input_hashes(robot_db: SnippetDatabase, play_db: SnippetDatabase) -> dict:
    return {"robot": dataset_content_hash(robot_db), "play": dataset_content_hash(play_db)}


def _method_config_doc(args) -> dict:
    doc = {"method": args.method}
    if args.method == "ot":
        doc.update(epsilon=args.epsilon, max_iters=args.max_iters, tol=args.tol)
    else:
        doc.update(temperature=args.temperature, tcc_symmetric=args.tcc_symmetric)
    return doc


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- config step


def _gen_config(args) -> tuple[GenConfig, tuple[SnippetDatabase, SnippetDatabase]]:
    # Generating is part of the config step because the generator is what
    # checks dim >= n_tasks and the hard level's task budget.
    cfg = GenConfig(
        n_tasks=args.n_tasks,
        dim=args.d,
        frames_per_task=args.frames_per_task,
        n_trajectories=args.trajectories,
        tasks_per_trajectory=args.tasks_per_trajectory,
        snippets_per_task=args.snippets_per_task,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    return cfg, gen_benchmark(args.level, cfg)


def _distance_config(args) -> SequenceDistance:
    if args.method == "ot":
        return OtSequenceDistance(
            SinkhornConfig(epsilon=args.epsilon, max_iters=args.max_iters, tol_marginal=args.tol)
        )
    return TccSequenceDistance(TccConfig(temperature=args.temperature), symmetric=args.tcc_symmetric)


def _imagine_config(args) -> RetrievalConfig:
    return RetrievalConfig(
        distance=_distance_config(args),
        segment_len=args.segment_k if args.segment_kprime is None else None,
        segment_count=args.segment_kprime,
    )


def _ablate_config(args) -> list[RetrievalConfig]:
    distance = _distance_config(args)
    return [RetrievalConfig(distance=distance, segment_count=kprime) for kprime in args.kprime]


def _no_config(args) -> None:
    return None


# ---------------------------------------------------------------- run step


def _cmd_gen(args, config, t0: float) -> int:
    cfg, (robot_db, play_db) = config
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(robot_db, out / "robot")
    write_dataset(play_db, out / "play")
    _write_run_manifest(
        out, "gen", {"level": args.level, **cfg.__dict__}, _input_hashes(robot_db, play_db), args.seed, t0
    )
    print(
        f"wrote {len(robot_db)} robot trajectories and {len(play_db)} snippets under {out}"
    )
    return 0


def _cmd_dist(args, distance: SequenceDistance, t0: float) -> int:
    bench = Path(args.dataset)
    robot_db = _read_required(bench / "robot", "robot")
    play_db = _read_required(bench / "play", "play")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bank = [s.sequence for s in play_db.snippets]
    play_ids = play_db.ids
    nonconverged = []
    with (out / "distances.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["robot_id", *play_ids])
        for clip in robot_db.snippets:
            values, converged = distance.grid(clip.sequence, bank)
            writer.writerow([clip.seq_id, *[_fmt(v) for v in values]])
            nonconverged += [[clip.seq_id, play_ids[j]] for j in np.flatnonzero(~converged)]
    _write_json(
        out / "dist_manifest.json",
        {
            "config": _method_config_doc(args),
            "shape": [len(robot_db), len(play_db)],
            "nonconverged": nonconverged,
        },
    )
    _write_run_manifest(out, "dist", _method_config_doc(args), _input_hashes(robot_db, play_db), None, t0)
    print(f"wrote {len(robot_db)}x{len(play_db)} distance grid under {out}")
    if nonconverged and args.strict:
        raise StrictNonConvergence(f"{len(nonconverged)} cells did not converge")
    return 0


def _write_report(out: Path, report) -> None:
    _write_json(out / "report.json", report.to_json_dict())
    _write_csv(
        out / "report.csv",
        [
            ["robot_id", "recall", "imprecision", "top1_hits", "n_segments"],
            *(
                [t.robot_id, _fmt(t.recall), _fmt(t.imprecision), t.top1_hits, t.n_segments]
                for t in report.per_trajectory
            ),
            ["overall", _fmt(report.task_recall), _fmt(report.task_imprecision), "", ""],
        ],
    )


def _cmd_imagine(args, cfg: RetrievalConfig, t0: float) -> int:
    robot_db = _read_required(args.robot, "robot")
    play_db = _read_required(args.play, "play")
    paired = build_paired_dataset(
        robot_db,
        play_db,
        cfg,
        extra_provenance={
            "robot_dataset": str(args.robot),
            "play_dataset": str(args.play),
        },
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    imagined = [
        LabeledSequence(
            seq_id=f"{e.robot.seq_id}-imagined",
            sequence=e.demo.composed,
            labels=tuple(
                label
                for rec in e.demo.segments
                for label in play_db.snippets[rec.snippet_index].labels
            ),
            embodiment="demonstrator",
            seed_record={
                "source_robot": e.robot.seq_id,
                "snippets": [rec.snippet_id for rec in e.demo.segments],
            },
        )
        for e in paired.entries
    ]
    write_dataset(
        SnippetDatabase(imagined, play_db.task_names, {"kind": "imagined", "retrieval": cfg.describe()}),
        out / "imagined",
    )
    _write_json(out / "paired.json", paired_to_json_dict(paired))
    report = evaluate(paired, play_db)
    _write_report(out, report)
    _write_run_manifest(
        out,
        "imagine",
        {**_method_config_doc(args), "segment_k": cfg.segment_len, "segment_kprime": cfg.segment_count},
        {"robot": paired.provenance["robot_hash"], "play": paired.provenance["play_hash"]},
        None,
        t0,
    )
    print(
        f"imagined {len(paired)} demos; recall={report.task_recall:.4f} "
        f"imprecision={report.task_imprecision:.4f} top1={report.top1_accuracy:.4f}"
    )
    nonconverged = sum(r.n_nonconverged for e in paired.entries for r in e.demo.segments)
    if nonconverged and args.strict:
        raise StrictNonConvergence(f"{nonconverged} candidate distances did not converge")
    return 0


def _cmd_eval(args, config: None, t0: float) -> int:
    run_dir = Path(args.paired)
    paired_path = run_dir / "paired.json"
    if not paired_path.is_file():
        raise DatasetError(f"no paired.json under {run_dir}")
    try:
        doc = json.loads(paired_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetError(f"{paired_path} is not valid UTF-8 JSON: {exc}")
    if not isinstance(doc, dict):
        raise DatasetError(f"{paired_path} does not hold a JSON object")
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise DatasetError(f"{paired_path}: provenance is not a JSON object")
    robot_path = args.robot or provenance.get("robot_dataset")
    play_path = args.play or provenance.get("play_dataset")
    if not robot_path or not play_path:
        raise DatasetError("robot/play dataset paths neither given nor recorded in paired.json")
    if type(robot_path) is not str or type(play_path) is not str:
        raise DatasetError(f"{paired_path}: recorded dataset paths must be strings")
    robot_db = _read_required(robot_path, "robot")
    play_db = _read_required(play_path, "play")
    paired = paired_from_json_dict(doc, robot_db, play_db)
    report = evaluate(paired, play_db)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, report)
    _write_run_manifest(out, "eval", {"paired": str(run_dir)}, _input_hashes(robot_db, play_db), None, t0)
    print(
        f"recall={report.task_recall:.4f} imprecision={report.task_imprecision:.4f} "
        f"top1={report.top1_accuracy:.4f}"
    )
    return 0


def _cmd_ablate(args, configs: list[RetrievalConfig], t0: float) -> int:
    robot_db = _read_required(args.robot, "robot")
    play_db = _read_required(args.play, "play")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for kprime, cfg in zip(args.kprime, configs):
        paired = build_paired_dataset(robot_db, play_db, cfg)
        report = evaluate(paired, play_db)
        rows.append(
            {
                "kprime": kprime,
                "recall": report.task_recall,
                "imprecision": report.task_imprecision,
                "top1_accuracy": report.top1_accuracy,
            }
        )
        log.info("kprime=%d recall=%.4f", kprime, report.task_recall)
    _write_csv(
        out / "ablation.csv",
        [
            ["kprime", "recall", "imprecision", "top1_accuracy"],
            *(
                [row["kprime"], _fmt(row["recall"]), _fmt(row["imprecision"]), _fmt(row["top1_accuracy"])]
                for row in rows
            ),
        ],
    )
    _write_json(out / "ablation.json", {"rows": rows})
    _write_run_manifest(
        out,
        "ablate",
        {**_method_config_doc(args), "kprime": list(args.kprime)},
        _input_hashes(robot_db, play_db),
        None,
        t0,
    )
    for row in rows:
        print(
            f"kprime={row['kprime']}: recall={row['recall']:.4f} "
            f"imprecision={row['imprecision']:.4f} top1={row['top1_accuracy']:.4f}"
        )
    return 0


# ---------------------------------------------------------------- parser


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=["ot", "tcc"], default="ot")
    p.add_argument("--epsilon", type=float, default=0.05, help="entropic regularization")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-6, help="marginal tolerance")
    p.add_argument("--temperature", type=float, default=0.1, help="tcc softmax temperature")
    p.add_argument("--tcc-symmetric", action="store_true", help="average both tcc directions")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--strict", action="store_true", help="fail on OT non-convergence")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmatch",
        description="Sequence-level similarity and snippet retrieval experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic benchmark")
    p.add_argument("--level", choices=["easy", "medium", "hard"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=32, help="embedding dimension")
    p.add_argument("--n-tasks", type=int, default=7)
    p.add_argument("--frames-per-task", type=int, default=8)
    p.add_argument("--trajectories", type=int, default=20)
    p.add_argument("--tasks-per-trajectory", type=int, default=4)
    p.add_argument("--snippets-per-task", type=int, default=5)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(config=_gen_config, run=_cmd_gen)

    p = sub.add_parser("dist", help="robot-clip x snippet distance grid")
    p.add_argument("dataset", help="benchmark dir containing robot/ and play/")
    _add_method_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(config=_distance_config, run=_cmd_dist)

    p = sub.add_parser("imagine", help="build a paired dataset by retrieval")
    p.add_argument("--robot", required=True)
    p.add_argument("--play", required=True)
    _add_method_flags(p)
    seg = p.add_mutually_exclusive_group()
    # A string default is converted by ``type``, so an explicit "--segment-k 8"
    # is not mistaken for the default and still conflicts with --segment-kprime.
    seg.add_argument("--segment-k", type=int, default="8", help="segment length in frames")
    seg.add_argument("--segment-kprime", type=int, default=None, help="segment count (K = T // K')")
    p.add_argument("--out", required=True)
    p.set_defaults(config=_imagine_config, run=_cmd_imagine)

    p = sub.add_parser("eval", help="recompute metrics for a paired run")
    p.add_argument("--paired", required=True, help="directory written by imagine")
    p.add_argument("--robot", default=None)
    p.add_argument("--play", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(config=_no_config, run=_cmd_eval)

    p = sub.add_parser("ablate", help="sweep the segment count K'")
    p.add_argument("--robot", required=True)
    p.add_argument("--play", required=True)
    p.add_argument("--kprime", type=int, nargs="+", required=True)
    _add_method_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(config=_ablate_config, run=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            config = args.config(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return args.run(args, config, t0)
    except (DatasetError, RetrievalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StrictNonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
