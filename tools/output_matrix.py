"""List the hash of every deterministic CLI output over a fixed matrix of runs.

Usage: python tools/output_matrix.py WORK_DIR > listing.txt

Runs ``seqmatch.cli.main`` of this checkout (its ``src/``) inside WORK_DIR:
``gen`` of the easy and hard benchmarks at seeds 0 and 3 and of the
500-snippet hard bank (2 trajectories), then on each of them ``dist``,
``imagine`` (K=8 and K'=2), ``eval`` of each ``imagine`` run and ``ablate``
(K' = 1, 2, 4), in four configurations: OT, TCC, symmetric TCC and OT with
``--max-iters 3 --strict``. It prints ``sha256  path`` for every output
file except ``run_manifest.json`` (the one output that records wall clock),
and ``exit N  path`` for every command, sorted by path. All paths are
relative to WORK_DIR, so the listings of two checkouts compare with one
``diff``.

Then it reruns the easy seed-0 ``gen``, ``imagine`` (K=8, OT) and ``eval``
as child processes, ``python -m seqmatch.cli`` as users and the benchmark
run it, under WORK_DIR/process. That path also runs ``cli.py``'s
module-level start-up and ``run()``, which ``main`` skips. The script exits
1, naming each difference on stderr, if a child exits non-zero or any of
its outputs other than ``run_manifest.json`` differs from the in-process
bytes. The listing on stdout is the same either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from seqmatch.cli import main  # noqa: E402

BENCHES = {
    **{
        f"{level}-seed{seed}": ["--level", level, "--seed", str(seed)]
        for level in ("easy", "hard")
        for seed in (0, 3)
    },
    "bank500": ["--level", "hard", "--snippets-per-task", "50", "--trajectories", "2"],
}
CONFIGS = {
    "ot": [],
    "tcc": ["--method", "tcc"],
    "tcc-symmetric": ["--method", "tcc", "--tcc-symmetric"],
    "ot-max-iters3": ["--max-iters", "3", "--strict"],
}


# The in-process runs that are repeated as child processes: (argv, --out).
PROCESS_RUNS = [
    (["gen", *BENCHES["easy-seed0"]], "bench/easy-seed0"),
    (["imagine", "--robot", "bench/easy-seed0/robot", "--play", "bench/easy-seed0/play"], "runs/easy-seed0/ot/imagine-k8"),
    (["eval", "--paired", "runs/easy-seed0/ot/imagine-k8"], "runs/easy-seed0/ot/eval-k8"),
]


def run(argv: list[str], out: str) -> str:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", out])
    return f"exit {code}  {out}"


def commands(bench: str, flags: list[str], out: str) -> list[tuple[list[str], str]]:
    robot_play = ["--robot", f"{bench}/robot", "--play", f"{bench}/play"]
    return [
        (["dist", bench, *flags], f"{out}/dist"),
        (["imagine", *robot_play, *flags], f"{out}/imagine-k8"),
        (["imagine", *robot_play, "--segment-kprime", "2", *flags], f"{out}/imagine-kprime2"),
        (["eval", "--paired", f"{out}/imagine-k8"], f"{out}/eval-k8"),
        (["eval", "--paired", f"{out}/imagine-kprime2"], f"{out}/eval-kprime2"),
        (["ablate", *robot_play, "--kprime", "1", "2", "4", *flags], f"{out}/ablate"),
    ]


def listing(root: Path) -> list[str]:
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root)}"
        for p in root.rglob("*")
        if p.is_file() and p.name != "run_manifest.json"
    ]


def run_matrix(work: Path) -> list[str]:
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)  # relative paths keep recorded provenance the same in every WORK_DIR
    lines = []
    for name, gen_flags in BENCHES.items():
        bench = f"bench/{name}"
        lines.append(run(["gen", *gen_flags], bench))
        for config, flags in CONFIGS.items():
            lines += [run(argv, out) for argv, out in commands(bench, flags, f"runs/{name}/{config}")]
    return sorted([*lines, *listing(Path("."))], key=lambda line: line.split("  ", 1)[1])


def process_mismatches(work: Path) -> list[str]:
    """Run ``PROCESS_RUNS`` as ``python -m seqmatch.cli`` children under
    ``work/process`` and name each exit code or output that differs from
    the in-process run's under ``work``."""
    root = work / "process"
    root.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    mismatches = []
    for argv, out in PROCESS_RUNS:
        cmd = [sys.executable, "-m", "seqmatch.cli", *argv, "--out", out]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            mismatches.append(f"exit {proc.returncode}  process/{out}: {proc.stderr.strip()}")
        differing = set(listing(root / out)) ^ set(listing(work / out))
        mismatches += sorted({f"differs  process/{out}/{line.split('  ', 1)[1]}" for line in differing})
    return mismatches


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    work = Path(sys.argv[1]).resolve()
    print("\n".join(run_matrix(work)), flush=True)
    mismatches = process_mismatches(work)
    if mismatches:
        print("process path differs from in-process main:", *mismatches, sep="\n", file=sys.stderr)
        sys.exit(1)
