#!/usr/bin/env python3
"""seqmatch benchmark: CLI gen -> imagine -> eval on four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk_ladder_ot --seed 0 --seconds 25 --trace 0

``--trace 0`` runs the real CLI as child processes (closed loop, one
command at a time) and reports the end-to-end metrics. ``--trace 1``
runs ``seqmatch.cli.main`` in-process, alternating untraced and traced
passes, and reports the per-layer metrics. Every run checks its outputs
(see README.md); the last line of standard output is one JSON object,
and the exit code is 1 when any check failed. Metric names and units
come from BENCHMARK.json at the repository root. Work files go under
``.perfbench_work/`` there.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import tracing
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = ROOT / "benchmarks" / "expected_metrics.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

SETUP_ROUNDS = 5  # gen repeats per run; setup_s is their median
MIN_PASSES = 2  # timed passes per run (per mode when tracing), however short --seconds is
IMPORT_SAMPLES = 5  # `seqmatch --version` runs behind cli.import_s

# A fixed interpreter + numpy workload that does not import seqmatch. Run as
# a child process between passes, it measures how fast the machine is at
# that moment, so that pass times can be stated relative to it.
CALIBRATION = """\
import numpy as np
x = np.linspace(0.0, 1.0, 128).reshape(16, 8)
for _ in range(8000):
    m = x.max(axis=1, keepdims=True)
    x = x - (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))) * 1e-3
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Run:
    """One benchmark run: its working directory, invocation counts and failures."""

    def __init__(self, workload: workloads.Workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = _env()
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.reference: dict[str, list] = {}
        self.invocations: list[tuple[str, float, float]] = []  # (command, start offset s, wall s)
        self.t0 = time.perf_counter()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def cli(self, argv: list[str]) -> tuple[float, float]:
        """Run one CLI command as a child process; return (wall s, peak RSS MiB)."""
        self.attempted += 1
        with open(self.dir / "cli.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "seqmatch.cli", *argv],
                cwd=self.dir, env=self.env, stdout=log, stderr=log,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        self.invocations.append((argv[0], start - self.t0, wall))
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.fail(f"`seqmatch {' '.join(argv)}` exited {proc.returncode} (see {self.dir / 'cli.log'})")
        return wall, usage.ru_maxrss / 1024

    def calibrate(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CALIBRATION], cwd=self.dir, check=True)
        return time.perf_counter() - start

    def inprocess(self, argv: list[str], tracer: tracing.Tracer | None = None) -> float:
        """Run ``seqmatch.cli.main(argv)`` in this process; return its wall time."""
        import seqmatch.cli

        main = seqmatch.cli.main
        if tracer is not None:
            main = tracer.wrap(f"cli.{argv[0]}", main)
        self.attempted += 1
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            with redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                rc = main(argv)
                wall = time.perf_counter() - start
        except Exception as exc:  # a crash is one failed invocation, not the end of the run
            self.fail(f"`seqmatch {' '.join(argv)}` raised {exc!r}")
            return 0.0
        finally:
            os.chdir(cwd)
        if rc != 0:
            self.fail(f"`seqmatch {' '.join(argv)}` returned {rc}")
        return wall

    def record_digest(self, key: str, path: str) -> None:
        """Outputs of one command must be byte-identical in every pass of the run."""
        try:
            digest = workloads.tree_digest(self.dir / path)
        except OSError as exc:
            self.fail(f"{key}: cannot read outputs: {exc}")
            return
        if self.digests.setdefault(key, digest) != digest:
            self.fail(f"{key}: outputs differ between passes of one run")

    def prepare(self) -> None:
        """Reference scans and the oracle paired file, outside every timed region."""
        try:
            for r in self.w.retrievals:
                self.reference[r.name] = workloads.reference_picks(self.dir, r)
            if not self.w.retrievals:
                workloads.write_oracle_paired(self.dir, self.w.gens[0][0])
        except Exception as exc:
            self.fail(f"reference preparation failed: {exc!r}")

    def check_outputs(self) -> None:
        """Picks against the reference scan, frozen seed-0 metrics, eval == imagine."""
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["benchmark"]
        try:
            for r in self.w.retrievals:
                out = self.dir / r.out
                if r.name in self.reference:
                    for e in workloads.check_picks(out / "paired.json", self.reference[r.name]):
                        self.fail(e)
                if self.seed == 0 and r.frozen:
                    for e in workloads.check_report(out / "report.json", expected[r.frozen], workloads.FROZEN_TOL):
                        self.fail(e)
                if (out / "report.json").read_bytes() != (self.dir / f"{r.out}.eval" / "report.json").read_bytes():
                    self.fail(f"{r.name}: eval report differs from imagine report")
            if not self.w.retrievals:
                oracle = {"recall": 1.0, "imprecision": 0.0, "top1": 1.0}
                for e in workloads.check_report(self.dir / "run/oracle.eval/report.json", oracle, 0.0):
                    self.fail(e)
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"output check failed: {exc!r}")

    def check_across_runs(self) -> None:
        """Outputs (and traced counts) must also match earlier runs of the same workload and seed."""
        store = WORK / "digests" / f"{self.w.name}-{self.w.fingerprint()}-seed{self.seed}.json"
        store.parent.mkdir(parents=True, exist_ok=True)
        known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
        for key, digest in self.digests.items():
            if known.setdefault(key, digest) != digest:
                self.fail(f"{key}: outputs differ from an earlier run of seed {self.seed} ({store})")
        store.write_text(json.dumps(known, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def run_pass(self, timed, after_step=None) -> float:
        """One pass of the workload's timed commands; ``timed(key, argv)`` returns wall seconds.

        ``after_step(i, wall)`` is called after step ``i`` with that step's wall time.
        """
        shutil.rmtree(self.dir / "run", ignore_errors=True)
        total = 0.0
        for i, step in enumerate(self.w.pass_steps()):
            wall = 0.0
            for key, argv in step:
                wall += timed(key, argv)
                self.record_digest(key, argv[argv.index("--out") + 1])
            if after_step:
                after_step(i, wall)
            total += wall
        return total


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    def setup_round() -> float:
        wall = 0.0
        for label, flags in run.w.gens:
            wall += run.cli(run.w.gen_args(label, flags, run.seed))[0]
            run.record_digest(f"gen:{label}", f"data/{label}")
        return wall

    # The first gen writes into an empty directory and is not timed: creating
    # thousands of new files costs 1.5-2.5x as much as rewriting them, and
    # varies as much, on a shared virtual disk (see README.md).
    setup_round()
    run.prepare()
    setup: list[float] = []
    walls: dict[str, list[float]] = {key: [] for step in run.w.pass_steps() for key, _ in step}
    rss: list[float] = []

    def timed(key, argv):
        wall, peak = run.cli(argv)
        walls[key].append(wall)
        rss[-1] = max(rss[-1], peak)
        return wall

    # The machine's speed drifts by up to 1.5x over seconds to minutes. A
    # step divided by the calibration runs on either side of it cancels most
    # of that drift (see README.md). Raw seconds stay in result.json.
    calibration = [run.calibrate()]
    relative: list[list[float]] = [[] for _ in run.w.pass_steps()]

    def after_step(i, wall):
        calibration.append(run.calibrate())
        relative[i].append(wall / ((calibration[-2] + calibration[-1]) / 2))

    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds or len(setup) < SETUP_ROUNDS:
        rss.append(0.0)
        passes.append(run.run_pass(timed, after_step))
        if len(passes) == 1:
            run.check_outputs()
        # Set-up rounds are spread over the run, so that their median does
        # not rest on one stretch of the machine's speed.
        if len(setup) < SETUP_ROUNDS and time.perf_counter() - start >= len(setup) * seconds / SETUP_ROUNDS:
            setup.append(setup_round())
            calibration.append(run.calibrate())
    values = {
        "setup_s": statistics.median(setup),
        "pass_rel": sum(statistics.median(r) for r in relative),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"setup_s": setup, "pass_s": passes, "calibration_s": calibration, **walls, "peak_rss_mb": rss}
    return values, samples


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    imports = [run.cli(["--version"])[0] for _ in range(IMPORT_SAMPLES)]

    # Untimed first gen (imports, first-touch allocations), then the reference scans.
    for label, flags in run.w.gens:
        run.inprocess(run.w.gen_args(label, flags, run.seed))
    run.prepare()

    plain, traced, layers = [], [], []
    tracer = None

    def timed(key, argv):
        return run.inprocess(argv, tracer)

    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        for walls in (plain, traced):
            tracer = tracing.Tracer() if walls is traced else None
            wall = 0.0
            with tracer.installed() if tracer else nullcontext():
                for label, flags in run.w.gens:
                    wall += timed(label, run.w.gen_args(label, flags, run.seed))
                    run.record_digest(f"gen:{label}", f"data/{label}")
                wall += run.run_pass(timed)
            walls.append(wall)
            if tracer:
                layers.append(tracing.layer_metrics(tracer.spans))
                last_spans = tracer.spans
            elif len(plain) == 1:
                run.check_outputs()

    for name in tracing.COUNT_METRICS:
        seen = {m[name] for m in layers}
        if len(seen) != 1:
            run.fail(f"count {name} differs between traced passes: {sorted(seen)}")
    # Stored beside the output digests, so counts must also repeat across runs.
    run.digests["layer_counts"] = json.dumps({name: layers[0][name] for name in tracing.COUNT_METRICS}, sort_keys=True)
    spans = [s._asdict() for s in sorted(last_spans, key=lambda s: s.start)]
    (run.dir / "trace.json").write_text(json.dumps({"passes": layers, "spans": spans}) + "\n", encoding="utf-8")
    values = {
        name: layers[0][name] if name in tracing.COUNT_METRICS else statistics.median(m[name] for m in layers)
        for name in layers[0]
    }
    values["cli.import_s"] = statistics.median(imports)
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return values, {"cli.import_s": imports, "untraced_pass_s": plain, "traced_pass_s": traced, "layers": layers}


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, as found (never set here)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas_threads_runtime": _openblas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "seqmatch" / "cli.py", EXPECTED, SPEC) if not p.is_file()]
    if missing:
        print(f"error: not a seqmatch checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    values, samples = (per_layer if args.trace else end_to_end)(run, args.seconds)
    if set(values) != {m["name"] for m in wanted}:
        run.fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(m['name'] for m in wanted)}")
    run.check_across_runs()
    for data_dir in ("data", "run", workloads.ORACLE_DIR):
        shutil.rmtree(run.dir / data_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    facts = machine_facts()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]['value']:>16.6g} {m['unit']:<6} ({m['better']} is better)")
    if "pass_s" in samples:
        print(f"  (pass wall time: median {statistics.median(samples['pass_s']):.4f} s; "
              f"calibration: median {statistics.median(samples['calibration_s']):.4f} s)")
    print("  samples: " + ", ".join(f"{k} n={len(v)}" for k, v in samples.items()))
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    failed = min(run.attempted, len(run.failures))
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    (run.dir / "result.json").write_text(
        json.dumps(
            {**result, "samples": samples, "invocations": run.invocations, "machine": facts, "failures": run.failures},
            indent=1,
        ) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
