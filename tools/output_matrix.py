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
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print("\n".join(run_matrix(Path(sys.argv[1]))))
