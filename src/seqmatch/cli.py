"""Command-line experiment harness.

Commands: ``gen`` (synthetic benchmark to disk), ``dist`` (robot-clip x
snippet distance grid as CSV), ``imagine`` (paired dataset + report),
``eval`` (recompute metrics from a paired run), ``ablate`` (segment-count
sweep). Every command drops a ``run_manifest.json`` beside its outputs
with the full config, input hashes, tool version, wall clock and seed;
that file is the only non-deterministic output, everything else is
byte-stable for fixed flags and inputs. A manifest's config is the
config's own ``describe()``: the distance's for ``dist``, the
``RetrievalConfig``'s for ``imagine`` (as in ``paired.json``) and one per
K' for ``ablate``. The method and ``gen`` flags default to ``None`` and
each config is built from the flags given, so the config dataclasses
hold the only defaults. Every command runs in one thread: ``--threads``
is still accepted but has no effect.

Each command imports only the modules it runs. This module loads
``seqmatch.data`` and ``seqmatch.pairing``, neither of which imports
numpy, and the config step of ``gen``, ``dist``, ``imagine`` and
``ablate`` imports the generator or the distances it needs. So ``eval``
and ``--version`` never load numpy or compile the numeric modules: at
desk scale a child process's start-up is most of a command's time. The
functions a tracer may replace (``gen_benchmark``, ``build_paired_dataset``,
``evaluate``, ``read_dataset``, ...) stay attributes of this module that
each command looks up when it runs.

Importing this module pins OpenBLAS to one thread
(``OPENBLAS_NUM_THREADS=1``), unless the variable is already set, in
which case the user's value stands; numpy loads later, in the commands
that compute. numpy's OpenBLAS otherwise starts a pool of worker threads
when it loads, and no matrix a command multiplies is large enough for
OpenBLAS to use the pool: starting it costs 40-80 ms of a command's
start-up on a 2-vCPU host. The pin lives here, not in the package, so
that importing ``seqmatch`` as a library changes no environment variable.

The ``seqmatch`` process runs no cyclic garbage collection from its
first import to its exit. Run as ``python -m seqmatch.cli``, this module
turns the collector off before its own imports; ``run()``, the process
entry, keeps it off through ``main``, where a command imports numpy and
the numeric modules (those imports would otherwise run 37 collections,
9-16 ms on a 2-vCPU host), and then freezes every live object, so the
collections of interpreter teardown skip them (teardown takes 32-36 ms
after a ``gen``, ``imagine`` or ``eval``, about 10 ms frozen). The
collector is never turned back on: that would start a collection over
everything the imports allocated. The installed ``seqmatch`` script
imports this module before it calls ``run()``, so on that path only this
module's own imports (``data`` and ``pairing``) run with the collector
on. Skipping the cycle scan is safe because objects
are still freed by reference counting, every output file is closed by
the writer that opened it, and stdout is flushed before teardown
collects anything.

Importing this module leaves the collector as it was. ``main`` alone,
as library callers and tests use it, pauses the collector while a
command runs and restores the caller's setting however it returns; it
freezes nothing. A command keeps hundreds of thousands of small
containers alive (a manifest's parsed records, labels, segment records),
and each collector pass would rescan them all for cycles that are not
there. The few cycles it leaves (the argument parser, a caught
exception's traceback) are collected once the collector is back on.

Every command runs in three steps. The config step (``config``) turns
the flags into what the command runs on (a distance, retrieval configs
or, for ``gen``, the generated datasets) and reads and writes nothing.
The run step (``run``) reads the inputs, computes and returns a
``RunOutput``; it writes nothing either, and it reads no method flag
(``--method``, ``--epsilon``, ``--kprime``, ...), only the configs and
``--strict``. The write step, in ``main`` alone, creates ``--out``,
writes the files and ``run_manifest.json`` and prints the summary. So
nothing is written unless the run step returns, and under ``--strict``
the outputs are written before the exit code 4. ``main`` alone maps
exceptions to exit codes. A ``ValueError`` from the config step is a
usage error, so a bad flag is reported before any input is read. Every
config is validated before the run step starts, so a ``ValueError``
there can only come from the inputs (a robot set and bank of different
dimension, a zero-norm frame under the cosine cost) and is a data error.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure (OT non-convergence under --strict: ``imagine`` and ``ablate`` then
solve every pair, as ``dist`` does, and write the same bytes but for
``run_manifest.json``, whose ``solver`` block, one per K' for ``ablate``,
counts the pairs, solved and non-converged). Set SEQMATCH_LOG=debug for
verbose logging; while it is unset, no command but ``ablate`` imports
``logging`` (8-12 ms of start-up).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple

# Before any command loads numpy: a pool OpenBLAS never uses costs start-up,
# and so do collections in a process that will not run the collector (see above).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if __name__ == "__main__":
    gc.disable()

from . import __version__
from .data import (
    DatasetError,
    LabeledSequence,
    SnippetDatabase,
    canonical_json,
    dataset_content_hash,
    read_dataset,
    read_json_object,
    write_dataset,
    write_file,
)
from .pairing import RetrievalError, evaluate, paired_from_json_dict, paired_to_json_dict

if TYPE_CHECKING:
    from .retrieval import RetrievalConfig, SequenceDistance
    from .synthgen import GenConfig


# The numeric modules' entry points, imported on first call (see above).
def gen_benchmark(level, cfg):
    from .synthgen import gen_benchmark

    return gen_benchmark(level, cfg)


def build_paired_dataset(*args, **kwargs):
    from .retrieval import build_paired_dataset

    return build_paired_dataset(*args, **kwargs)


class RunOutput(NamedTuple):
    """A run step's result. ``files`` are written in order: a ``SnippetDatabase``
    as a dataset, a ``.json`` name as its document, any other name as CSV rows."""

    files: list[tuple[str, object]]
    config: dict
    input_hashes: dict
    summary: str
    seed: int | None = None
    nonconverged: str | None = None  # the message --strict fails on
    solver: dict | list | None = None  # the scans' counts, for run_manifest.json


def _configure_logging() -> None:
    """Configure ``logging`` at the level ``SEQMATCH_LOG`` names (an unknown name
    means warning). Unset, ``logging`` is not even imported: only ``ablate``
    logs, and it takes its logger itself."""
    level_name = os.environ.get("SEQMATCH_LOG")
    if level_name is None:
        return
    import logging

    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_required(path: str, what: str) -> SnippetDatabase:
    p = Path(path)
    if not p.exists():
        raise DatasetError(f"{what} dataset not found: {p}")
    return read_dataset(p)


def _input_hashes(robot_db: SnippetDatabase, play_db: SnippetDatabase) -> dict:
    return {"robot": dataset_content_hash(robot_db), "play": dataset_content_hash(play_db)}


def _fmt(x: float) -> str:
    return repr(float(x))


def _nonconverged_message(count: int) -> str | None:
    return f"{count} candidate distances did not converge" if count else None


def _report_files(report) -> list[tuple[str, object]]:
    rows = [
        ["robot_id", "recall", "imprecision", "top1_hits", "n_segments"],
        *(
            [t.robot_id, _fmt(t.recall), _fmt(t.imprecision), t.top1_hits, t.n_segments]
            for t in report.per_trajectory
        ),
        ["overall", _fmt(report.task_recall), _fmt(report.task_imprecision), "", ""],
    ]
    return [("report.json", report.to_json_dict()), ("report.csv", rows)]


# ---------------------------------------------------------------- config step


def _given(args, config_class):
    """``config_class`` built from the flags given: each flag's ``dest`` is a
    field's name, and a flag left out (``None``) keeps the field's default."""
    given = {f.name: getattr(args, f.name, None) for f in fields(config_class)}
    return config_class(**{name: value for name, value in given.items() if value is not None})


def _gen_config(args) -> tuple[GenConfig, tuple[SnippetDatabase, SnippetDatabase]]:
    # Generating is part of the config step because the generator is what
    # checks dim >= n_tasks and the hard level's task budget.
    from .synthgen import GenConfig

    cfg = _given(args, GenConfig)
    return cfg, gen_benchmark(args.level, cfg)


def _distance_config(args) -> SequenceDistance:
    from .retrieval import OtSequenceDistance, TccSequenceDistance

    if args.method == "ot":
        from .ot import SinkhornConfig

        return OtSequenceDistance(_given(args, SinkhornConfig))
    from .tcc import TccConfig

    return TccSequenceDistance(_given(args, TccConfig), symmetric=args.tcc_symmetric)


def _imagine_config(args) -> RetrievalConfig:
    from .retrieval import RetrievalConfig

    return RetrievalConfig(
        distance=_distance_config(args),
        segment_len=args.segment_k if args.segment_kprime is None else None,
        segment_count=args.segment_kprime,
    )


def _ablate_config(args) -> list[RetrievalConfig]:
    from .retrieval import RetrievalConfig

    distance = _distance_config(args)
    return [RetrievalConfig(distance=distance, segment_count=kprime) for kprime in args.kprime]


def _no_config(args) -> None:
    return None


# ---------------------------------------------------------------- run step


def _cmd_gen(args, config) -> RunOutput:
    cfg, (robot_db, play_db) = config
    return RunOutput(
        files=[("robot", robot_db), ("play", play_db)],
        config={"level": args.level, **cfg.__dict__},
        input_hashes=_input_hashes(robot_db, play_db),
        summary=f"wrote {len(robot_db)} robot trajectories and {len(play_db)} snippets under {Path(args.out)}",
        seed=cfg.seed,
    )


def _cmd_dist(args, distance: SequenceDistance) -> RunOutput:
    bench = Path(args.dataset)
    robot_db = _read_required(bench / "robot", "robot")
    play_db = _read_required(bench / "play", "play")
    robot_ids, play_ids = robot_db.ids, play_db.ids
    grid, converged = distance.grid(
        [clip.sequence for clip in robot_db.snippets], [s.sequence for s in play_db.snippets]
    )
    nonconverged = [[robot_ids[i], play_ids[j]] for i, j in zip(*(~converged).nonzero())]
    # Rows are rendered as the writer consumes them, not held as strings.
    rows = itertools.chain(
        [["robot_id", *play_ids]],
        ([robot_id, *map(_fmt, values)] for robot_id, values in zip(robot_ids, grid)),
    )
    manifest = {"config": distance.describe(), "shape": grid.shape, "nonconverged": nonconverged}
    return RunOutput(
        files=[("distances.csv", rows), ("dist_manifest.json", manifest)],
        config=distance.describe(),
        input_hashes=_input_hashes(robot_db, play_db),
        summary=f"wrote {len(robot_db)}x{len(play_db)} distance grid under {Path(args.out)}",
        nonconverged=f"{len(nonconverged)} cells did not converge" if nonconverged else None,
    )


def _cmd_imagine(args, cfg: RetrievalConfig) -> RunOutput:
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
        full_grid=args.strict,
    )
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
    imagined_db = SnippetDatabase(
        imagined, play_db.task_names, {"kind": "imagined", "retrieval": cfg.describe()}
    )
    report = evaluate(paired, play_db)
    return RunOutput(
        files=[
            ("imagined", imagined_db),
            ("paired.json", paired_to_json_dict(paired)),
            *_report_files(report),
        ],
        config=cfg.describe(),
        input_hashes={"robot": paired.provenance["robot_hash"], "play": paired.provenance["play_hash"]},
        summary=(
            f"imagined {len(paired)} demos; recall={report.task_recall:.4f} "
            f"imprecision={report.task_imprecision:.4f} top1={report.top1_accuracy:.4f}"
        ),
        nonconverged=_nonconverged_message(paired.solver["nonconverged"]),
        solver=paired.solver,
    )


def _cmd_eval(args, config: None) -> RunOutput:
    run_dir = Path(args.paired)
    paired_path = run_dir / "paired.json"
    doc = read_json_object(paired_path, DatasetError)
    provenance = doc.get("provenance")
    if provenance is None:  # as paired_from_json_dict reads it
        provenance = {}
    elif not isinstance(provenance, dict):
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
    del doc, provenance  # the records are built: free the parsed document before evaluating
    report = evaluate(paired, play_db)
    return RunOutput(
        files=_report_files(report),
        config={"paired": str(run_dir)},
        input_hashes=_input_hashes(robot_db, play_db),
        summary=(
            f"recall={report.task_recall:.4f} imprecision={report.task_imprecision:.4f} "
            f"top1={report.top1_accuracy:.4f}"
        ),
    )


def _cmd_ablate(args, configs: list[RetrievalConfig]) -> RunOutput:
    import logging

    log = logging.getLogger("seqmatch")
    robot_db = _read_required(args.robot, "robot")
    play_db = _read_required(args.play, "play")
    rows, solver = [], []
    for cfg in configs:
        kprime = cfg.segment_count
        paired = build_paired_dataset(robot_db, play_db, cfg, full_grid=args.strict)
        if not rows:  # build_paired_dataset has hashed both inputs
            provenance = paired.provenance
        solver.append(paired.solver)
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
    csv_rows = [
        ["kprime", "recall", "imprecision", "top1_accuracy"],
        *(
            [row["kprime"], _fmt(row["recall"]), _fmt(row["imprecision"]), _fmt(row["top1_accuracy"])]
            for row in rows
        ),
    ]
    return RunOutput(
        files=[("ablation.csv", csv_rows), ("ablation.json", {"rows": rows})],
        config=[cfg.describe() for cfg in configs],
        input_hashes={"robot": provenance["robot_hash"], "play": provenance["play_hash"]},
        summary="\n".join(
            f"kprime={row['kprime']}: recall={row['recall']:.4f} "
            f"imprecision={row['imprecision']:.4f} top1={row['top1_accuracy']:.4f}"
            for row in rows
        ),
        nonconverged=_nonconverged_message(sum(block["nonconverged"] for block in solver)),
        solver=solver,
    )


# ---------------------------------------------------------------- write step


def _csv_chunks(rows) -> Iterator[bytes]:
    """``rows`` as UTF-8 CSV in chunks of about 64 KiB, rendered as the writer consumes them."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
        if buf.tell() >= 1 << 16:
            yield buf.getvalue().encode()
            buf.seek(0)
            buf.truncate()
    yield buf.getvalue().encode()


def _write_outputs(out: Path, command: str, result: RunOutput, t0: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, content in result.files:
        path = out / name
        if isinstance(content, SnippetDatabase):
            write_dataset(content, path)
        elif path.suffix == ".json":
            write_file(path, canonical_json(content).encode())
        else:
            write_file(path, _csv_chunks(content))
    manifest = dict(
        command=command, config=result.config, input_hashes=result.input_hashes,
        tool_version=__version__, seed=result.seed, wall_clock_sec=time.perf_counter() - t0,
    )
    if result.solver is not None:
        manifest["solver"] = result.solver
    write_file(out / "run_manifest.json", canonical_json(manifest).encode())


# ---------------------------------------------------------------- parser


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    # Config flags default to None: _given leaves them to the config's defaults.
    p.add_argument("--method", choices=["ot", "tcc"], default="ot")
    p.add_argument("--epsilon", type=float, help="entropic regularization")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float, dest="tol_marginal", help="marginal tolerance")
    p.add_argument("--temperature", type=float, help="tcc softmax temperature")
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
    p.add_argument("--seed", type=int)
    p.add_argument("--d", type=int, dest="dim", help="embedding dimension")
    p.add_argument("--n-tasks", type=int)
    p.add_argument("--frames-per-task", type=int)
    p.add_argument("--trajectories", type=int, dest="n_trajectories")
    p.add_argument("--tasks-per-trajectory", type=int)
    p.add_argument("--snippets-per-task", type=int)
    p.add_argument("--noise-sigma", type=float)
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
        result = args.run(args, config)
        _write_outputs(Path(args.out), args.command, result, t0)
        print(result.summary)
        if result.nonconverged and args.strict:
            print(f"error: {result.nonconverged}", file=sys.stderr)
            return 4
        return 0
    except (DatasetError, RetrievalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if gc_was_enabled:
            gc.enable()


def run(argv=None) -> int:
    """The process entry: ``main`` with the collector off, then every live
    object frozen so that interpreter teardown does not scan them. The
    installed script imports this module before calling it, so there this
    module's own imports run with the collector on; a command's numeric
    imports run inside ``main``, with it off."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
