"""The four benchmark workloads and the correctness checks every run applies.

A workload is a list of ``seqmatch gen`` calls (its set-up) and a pass of
timed commands that the run repeats: ``imagine`` then ``eval`` for each
retrieval step, or one ``eval`` of a label-derived ``paired.json`` when
the workload has no retrieval step. All paths are relative to the run's
working directory, so outputs (which record their input paths) are
byte-comparable across runs and checkouts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Per-segment distances from the program must equal the per-pair
# reference scan within this absolute tolerance.
DIST_TOL = 1e-9
# Seed-0 reports must reproduce benchmarks/expected_metrics.json within this.
FROZEN_TOL = 1e-12

ORACLE_DIR = "oracle"


@dataclass(frozen=True)
class Retrieval:
    """One ``imagine`` -> ``eval`` step over one generated dataset."""

    name: str
    data: str
    method: str
    threads: int
    segment_len: int | None = None
    segment_count: int | None = None
    frozen: str | None = None  # key checked against expected_metrics.json on seed 0

    @property
    def out(self) -> str:
        return f"run/{self.name}"

    def imagine_args(self) -> list[str]:
        if self.segment_len is not None:
            seg = ["--segment-k", str(self.segment_len)]
        else:
            seg = ["--segment-kprime", str(self.segment_count)]
        return [
            "imagine",
            "--robot", f"data/{self.data}/robot",
            "--play", f"data/{self.data}/play",
            "--method", self.method,
            *seg,
            "--threads", str(self.threads),
            "--out", self.out,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gens: tuple[tuple[str, tuple[str, ...]], ...]  # (dataset label, gen flags)
    retrievals: tuple[Retrieval, ...] = ()

    def fingerprint(self) -> str:
        """Changes whenever the workload's definition does."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:12]

    def gen_args(self, label: str, flags: tuple[str, ...], seed: int) -> list[str]:
        return ["gen", *flags, "--seed", str(seed), "--out", f"data/{label}"]

    def pass_steps(self) -> list[list[tuple[str, list[str]]]]:
        """The timed pass: steps of (output key, argv) commands, in order.

        A step is one retrieval's ``imagine`` + ``eval``, or the one ``eval``
        of a workload without retrieval.
        """
        if not self.retrievals:
            return [[("eval:oracle", ["eval", "--paired", ORACLE_DIR, "--out", "run/oracle.eval"])]]
        return [
            [
                (f"imagine:{r.name}", r.imagine_args()),
                (f"eval:{r.name}", ["eval", "--paired", r.out, "--out", f"{r.out}.eval"]),
            ]
            for r in self.retrievals
        ]


_HARD_BANK500 = ("--level", "hard", "--snippets-per-task", "50")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_ladder_ot",
            "thousands of tiny cost matrices (8x8 easy, ragged 16x4..16 hard), "
            "so per-call overhead in ot dominates; single-threaded baseline",
            (("easy", ("--level", "easy")), ("hard", ("--level", "hard"))),
            (
                Retrieval("easy_ot_k8", "easy", "ot", 1, segment_len=8, frozen="easy_ot_k8"),
                Retrieval("hard_ot_kprime2", "hard", "ot", 1, segment_count=2, frozen="hard_ot_kprime2"),
            ),
        ),
        Workload(
            "bank500_hard_ot",
            "500-snippet bank scanned with two threads: pruning has most to skip, "
            "padded batches are largest, thread pools must earn their keep",
            (("bank500", (*_HARD_BANK500, "--trajectories", "2")),),
            (Retrieval("bank500_ot_kprime2", "bank500", "ot", 2, segment_count=2),),
        ),
        Workload(
            "desk_hard_tcc",
            "same retrieval, data and cli work as the OT workloads but no Sinkhorn, "
            "so an ot change predicts no change here",
            (("hard", ("--level", "hard")),),
            (Retrieval("hard_tcc_kprime2", "hard", "tcc", 1, segment_count=2, frozen="hard_tcc_kprime2"),),
        ),
        Workload(
            "bulk_gen_eval",
            "gen and eval of 3000 hard trajectories with no Sinkhorn, "
            "so dataset write, read, hash and paired-file parsing dominate",
            (("bulk", (*_HARD_BANK500, "--trajectories", "3000")),),
        ),
    )
}


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root`` except the run manifest."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "run_manifest.json":
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def write_oracle_paired(workdir: Path, label: str) -> None:
    """Write ``oracle/paired.json`` picking, per task-aligned segment, a snippet of that task.

    Built from the generated labels through the library's own
    ``paired_to_json_dict``, so ``eval`` exercises its reader on a file
    shaped exactly like one ``imagine`` writes.
    """
    from seqmatch import (
        GenConfig, ImaginedDemo, PairedDataset, PairedEntry, RetrievalConfig, SegmentRecord,
        paired_to_json_dict, read_dataset, segment,
    )
    from seqmatch.data import canonical_json

    robot_path, play_path = f"data/{label}/robot", f"data/{label}/play"
    robot_db, play_db = read_dataset(workdir / robot_path), read_dataset(workdir / play_path)
    index = {sid: j for j, sid in enumerate(play_db.ids)}
    per_task = sum(1 for sid in play_db.ids if sid.startswith("demo-t00-"))
    # gen keeps the default frames per task, so these segments are task-aligned.
    cfg = RetrievalConfig(distance=None, segment_len=GenConfig().frames_per_task)
    entries = []
    for i, robot in enumerate(robot_db.snippets):
        records = []
        for start, end in segment(robot.sequence, cfg):
            (task,) = robot.labels[start].tasks
            sid = f"demo-t{task:02d}-s{i % per_task:02d}"
            records.append(SegmentRecord(start, end, index[sid], sid, 0.0, None, True))
        entries.append(PairedEntry(robot, ImaginedDemo(robot.seq_id, tuple(records), None)))
    paired = PairedDataset(
        tuple(entries), {"robot_dataset": robot_path, "play_dataset": play_path}
    )
    out = workdir / ORACLE_DIR
    out.mkdir(parents=True, exist_ok=True)
    (out / "paired.json").write_text(canonical_json(paired_to_json_dict(paired)), encoding="utf-8")


def reference_picks(workdir: Path, r: Retrieval) -> list[tuple[str, int, int, str, float]]:
    """Per-pair reference scan: (robot id, start, end, snippet id, distance) per segment.

    Uses only public ``cost_matrix`` + ``sinkhorn`` (CLI default solver
    settings) or ``tcc_distance``, scanning the bank in ascending id order
    with a strict ``<`` so ties go to the lexicographically smallest id.
    """
    from seqmatch import (
        RetrievalConfig, SinkhornConfig, TccConfig, cost_matrix, read_dataset, segment,
        sinkhorn, tcc_distance,
    )

    robot_db = read_dataset(workdir / f"data/{r.data}/robot")
    play_db = read_dataset(workdir / f"data/{r.data}/play")
    if r.method == "ot":
        solver = SinkhornConfig()
        dist = lambda a, b: sinkhorn(cost_matrix(a, b), solver).cost  # noqa: E731
    else:
        tcc_cfg = TccConfig(temperature=0.1)
        dist = lambda a, b: tcc_distance(a, b, tcc_cfg)  # noqa: E731
    cfg = RetrievalConfig(distance=None, segment_len=r.segment_len, segment_count=r.segment_count)
    bank = sorted(play_db.snippets, key=lambda s: s.seq_id)
    picks = []
    for robot in robot_db.snippets:
        for start, end in segment(robot.sequence, cfg):
            sub = robot.sequence.frames[start:end]
            best_d, best_id = float("inf"), None
            for s in bank:
                d = dist(sub, s.sequence.frames)
                if d < best_d:
                    best_d, best_id = d, s.seq_id
            picks.append((robot.seq_id, start, end, best_id, best_d))
    return picks


def check_picks(paired_path: Path, reference) -> list[str]:
    doc = json.loads(paired_path.read_text(encoding="utf-8"))
    got = [
        (e["robot_id"], s["start"], s["end"], s["snippet_id"], s["distance"])
        for e in doc["entries"]
        for s in e["segments"]
    ]
    if len(got) != len(reference):
        return [f"{paired_path}: {len(got)} segments, reference scan has {len(reference)}"]
    errors = []
    for g, ref in zip(got, reference):
        if g[:4] != ref[:4] or not abs(g[4] - ref[4]) <= DIST_TOL:
            errors.append(f"{paired_path}: pick {g} differs from reference {ref}")
    return errors[:5]


def check_report(report_path: Path, expected: dict, tol: float) -> list[str]:
    """Compare report.json's recall / imprecision / top1 to ``expected``."""
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    got = {
        "recall": doc["task_recall"],
        "imprecision": doc["task_imprecision"],
        "top1": doc["top1_accuracy"],
    }
    return [
        f"{report_path}: {k}={got[k]!r}, expected {expected[k]!r}"
        for k in ("recall", "imprecision", "top1")
        if not abs(got[k] - expected[k]) <= tol
    ]
