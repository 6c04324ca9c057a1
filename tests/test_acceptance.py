"""Acceptance checks A01-A11, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. A04's order-sensitivity half is known-failing: the
cycle-consistency distance is a multiset function of its two frame sets,
so no frame shuffle can move it (see the assertion message).
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from seqmatch.cli import main as cli_main
from seqmatch.data import (
    BlobError,
    DatasetError,
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    ManifestError,
    SnippetDatabase,
    quantize_frames_f32,
    read_dataset,
    write_dataset,
)
from seqmatch.losses import (
    swav_assignment_loss,
    task_alignment_loss,
    task_alignment_loss_from_distances,
    time_contrastive_loss,
    TimeContrastiveConfig,
)
from seqmatch.ot import (
    SinkhornConfig,
    exact_ot_small,
    ot_distance,
    sinkhorn,
    swav_code_plan,
)
from seqmatch.retrieval import (
    OtSequenceDistance,
    RetrievalConfig,
    TccSequenceDistance,
    build_paired_dataset,
    evaluate,
)
from seqmatch.synthgen import GenConfig, gen_anchors, gen_benchmark
from seqmatch.tcc import TccConfig, tcc_distance

EXPECTED_METRICS = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "expected_metrics.json").read_text()
)


def report(tag: str, ok: bool, detail: str = "") -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def easy_benchmark():
    return gen_benchmark("easy", GenConfig())


@pytest.fixture(scope="module")
def hard_benchmark():
    return gen_benchmark("hard", GenConfig())


def run_retrieval(benchmark, distance, **segment_kw):
    robot_set, db = benchmark
    cfg = RetrievalConfig(distance=distance, **segment_kw)
    return evaluate(build_paired_dataset(robot_set, db, cfg), db)


# ------------------------------------------------------------------ criteria


def test_a01_transport_cost_matches_exact_solver_with_shrinking_gap():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    mats = [rng.uniform(size=(2, 2)) for _ in range(25)]
    mats += [rng.uniform(size=(2, 3)) for _ in range(25)]
    ladder = [2.0**-k for k in range(1, 9)]  # 0.5 ... 2^-8
    worst_final = 0.0
    worst_violation = -np.inf
    for C in mats:
        exact = exact_ot_small(C)
        gaps = []
        init = None
        for eps in ladder:
            plan = sinkhorn(
                C, SinkhornConfig(epsilon=eps, max_iters=20000, tol_marginal=1e-9), init=init
            )
            assert plan.converged
            init = plan.potentials
            gaps.append(plan.cost - exact)
        worst_final = max(worst_final, abs(gaps[-1]))
        worst_violation = max(
            worst_violation, max(g2 - g1 for g1, g2 in zip(gaps, gaps[1:]))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_final <= 1e-2 and worst_violation <= 1e-9 and elapsed < 5.0
    report(
        "A01",
        ok,
        f"final gap<=1e-2 (max {worst_final:.2e}), monotone within 1e-9 "
        f"(worst rise {worst_violation:.2e}), {elapsed:.2f}s",
    )
    assert worst_final <= 1e-2
    assert worst_violation <= 1e-9
    assert elapsed < 5.0


def test_a02_marginal_feasibility_over_random_instances():
    rng = np.random.default_rng(202)
    cfg = SinkhornConfig(max_iters=5000)
    worst = 0.0
    for _ in range(1000):
        shape = (int(rng.integers(1, 65)), int(rng.integers(1, 65)))
        plan = sinkhorn(rng.uniform(size=shape), cfg)
        assert plan.converged
        worst = max(worst, plan.marginal_error())
    report("A02", worst <= 1e-6, f"1000 converged plans, max marginal deviation {worst:.2e}")
    assert worst <= 1e-6


def test_a03_transport_distance_permutation_invariant_and_symmetric():
    rng = np.random.default_rng(303)
    cfg = SinkhornConfig(max_iters=20000, tol_marginal=1e-9)
    worst_shuffle = 0.0
    worst_symmetry = 0.0
    for _ in range(100):
        A = rng.normal(size=(int(rng.integers(2, 17)), 8))
        B = rng.normal(size=(int(rng.integers(2, 17)), 8))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        B /= np.linalg.norm(B, axis=1, keepdims=True)
        d = ot_distance(A, B, cfg)
        d_shuf = ot_distance(A[rng.permutation(len(A))], B, cfg)
        worst_shuffle = max(worst_shuffle, abs(d - d_shuf))
        worst_symmetry = max(worst_symmetry, abs(d - ot_distance(B, A, cfg)))
    ok = worst_shuffle <= 1e-9 and worst_symmetry <= 1e-6
    report(
        "A03",
        ok,
        f"shuffle delta {worst_shuffle:.2e} <= 1e-9, symmetry delta {worst_symmetry:.2e} <= 1e-6",
    )
    assert worst_shuffle <= 1e-9
    assert worst_symmetry <= 1e-6


def test_a04a_cycle_distance_identity():
    cfg = TccConfig(temperature=0.01)
    worst = 0.0
    for n in (4, 8, 16, 32):
        anchors = gen_anchors(GenConfig(n_tasks=n, dim=32, seed=n))
        seq = EmbeddingSequence(anchors.vectors)
        worst = max(worst, tcc_distance(seq, seq, cfg))
    report("A04a", worst <= 1e-3, f"identity distance {worst:.2e} <= 1e-3 at temperature 0.01")
    assert worst <= 1e-3


def test_a04b_cycle_distance_order_sensitivity():
    # Sought: a pair where shuffling frames moves the cycle distance by
    # > 0.1 while the transport distance moves by < 1e-9. No such pair
    # exists: d_tcc(a, b) = sum over frames x of a of
    # f(x, multiset(a), multiset(b)); frame permutations preserve both
    # multisets and the sum, so the distance is permutation-invariant
    # (only float summation order changes, ~1e-15). Kept as stated and
    # expected to fail.
    rng = np.random.default_rng(404)
    anchors = gen_anchors(GenConfig(n_tasks=4, dim=16, seed=4))
    pairs = []
    two_cluster = np.vstack(
        [np.tile(anchors.vectors[0], (4, 1)), np.tile(anchors.vectors[1], (4, 1))]
    )
    pairs.append((two_cluster, np.tile(anchors.vectors[0], (4, 1))))
    merged = (anchors.vectors[0] + anchors.vectors[1]) / math.sqrt(2.0)
    pairs.append((two_cluster, np.tile(merged, (4, 1))))
    for _ in range(5):
        A = rng.normal(size=(int(rng.integers(4, 12)), 16))
        B = rng.normal(size=(int(rng.integers(2, 12)), 16))
        pairs.append((A / np.linalg.norm(A, axis=1, keepdims=True),
                      B / np.linalg.norm(B, axis=1, keepdims=True)))
    max_tcc_delta = 0.0
    max_ot_delta = 0.0
    ot_cfg = SinkhornConfig(max_iters=20000, tol_marginal=1e-9)
    for A, B in pairs:
        d_tcc = tcc_distance(A, B)
        d_ot = ot_distance(A, B, ot_cfg)
        for _ in range(5):
            perm = rng.permutation(len(A))
            max_tcc_delta = max(max_tcc_delta, abs(tcc_distance(A[perm], B) - d_tcc))
            max_ot_delta = max(max_ot_delta, abs(ot_distance(A[perm], B, ot_cfg) - d_ot))
    ok = max_ot_delta < 1e-9 and max_tcc_delta > 0.1
    report(
        "A04b",
        ok,
        f"ot shuffle delta {max_ot_delta:.2e} (<1e-9 ok); tcc shuffle delta "
        f"{max_tcc_delta:.2e}, required > 0.1 but the distance is a multiset function",
    )
    assert max_ot_delta < 1e-9
    assert max_tcc_delta > 0.1, (
        "no frame shuffle can move the cycle distance: it sums a per-frame "
        "function of the two frame multisets, which shuffling preserves "
        f"(measured delta {max_tcc_delta:.2e})"
    )


def test_a05_merged_two_task_clip_wins_over_single_task_distractors():
    cfg = GenConfig(n_tasks=3, dim=16, tasks_per_trajectory=3, seed=5)
    anchors = gen_anchors(cfg)
    A, B, C = anchors.vectors
    robot = EmbeddingSequence(np.vstack([np.tile(A, (8, 1)), np.tile(B, (8, 1))]))
    merged = EmbeddingSequence(np.tile((A + B) / math.sqrt(2.0), (8, 1)))
    singles = [EmbeddingSequence(np.tile(v, (8, 1))) for v in (A, B, C)]
    closed_form = 1.0 - 1.0 / math.sqrt(2.0)
    assert closed_form < 0.5  # per-frame closed-form bound
    d_merged = ot_distance(robot, merged)
    d_singles = [ot_distance(robot, s) for s in singles]
    ok = abs(d_merged - closed_form) <= 0.02 and all(d_merged < d for d in d_singles)
    report(
        "A05",
        ok,
        f"merged {d_merged:.4f} (closed form {closed_form:.4f} +-0.02) < singles "
        f"{[round(d, 4) for d in d_singles]}",
    )
    assert abs(d_merged - closed_form) <= 0.02
    for d in d_singles:
        assert d_merged < d


def test_a06_retrieval_ladder_with_frozen_regression_values(easy_benchmark, hard_benchmark):
    t0 = time.perf_counter()
    easy = run_retrieval(easy_benchmark, OtSequenceDistance(), segment_len=8)
    hard_ot = run_retrieval(hard_benchmark, OtSequenceDistance(), segment_count=2)
    hard_tcc = run_retrieval(hard_benchmark, TccSequenceDistance(), segment_count=2)
    elapsed = time.perf_counter() - t0
    frozen = EXPECTED_METRICS["benchmark"]
    measured = {
        "easy_ot_k8": easy,
        "hard_ot_kprime2": hard_ot,
        "hard_tcc_kprime2": hard_tcc,
    }
    gap = hard_ot.task_recall - hard_tcc.task_recall
    ok = (
        easy.task_recall == 1.0
        and gap > 0.0
        and elapsed < 120.0
        and all(
            abs(rep.task_recall - frozen[key]["recall"]) <= 1e-12
            and abs(rep.task_imprecision - frozen[key]["imprecision"]) <= 1e-12
            and abs(rep.top1_accuracy - frozen[key]["top1"]) <= 1e-12
            for key, rep in measured.items()
        )
    )
    report(
        "A06",
        ok,
        f"easy recall {easy.task_recall:.4f}; hard recall ot {hard_ot.task_recall:.4f} "
        f"vs tcc {hard_tcc.task_recall:.4f} (gap {gap:.4f}); {elapsed:.1f}s",
    )
    assert easy.task_recall == 1.0
    assert gap > 0.0
    for key, rep in measured.items():
        assert abs(rep.task_recall - frozen[key]["recall"]) <= 1e-12, key
        assert abs(rep.task_imprecision - frozen[key]["imprecision"]) <= 1e-12, key
        assert abs(rep.top1_accuracy - frozen[key]["top1"]) <= 1e-12, key
    assert elapsed < 120.0


def test_a07_segment_count_ablation_pigeonhole(hard_benchmark):
    tasks_per_traj = GenConfig().tasks_per_trajectory
    recalls = {}
    frozen = EXPECTED_METRICS["segment_ablation_hard_ot"]
    for kprime in (1, 2, 4, 8):
        rep = run_retrieval(hard_benchmark, OtSequenceDistance(), segment_count=kprime)
        recalls[kprime] = rep.task_recall
        assert abs(rep.task_recall - frozen[str(kprime)]["recall"]) <= 1e-12
    ok = recalls[1] <= 1.0 / tasks_per_traj + 1e-12 and recalls[2] > recalls[1]
    report(
        "A07",
        ok,
        f"recall@K'=1 {recalls[1]:.4f} <= 1/{tasks_per_traj}; "
        f"recall@K'=2 {recalls[2]:.4f} > recall@K'=1",
    )
    assert recalls[1] <= 1.0 / tasks_per_traj + 1e-12
    assert recalls[2] > recalls[1]


def oracle_time_loss(frames, window, temperature):
    frames = np.asarray(frames, dtype=np.float64)
    norms = np.linalg.norm(frames, axis=1)
    T = len(frames)
    total = 0.0
    for t in range(T):
        pos = [k for k in range(T) if k != t and abs(k - t) <= window]
        neg = [k for k in range(T) if abs(k - t) > window]
        for p in pos:
            e_pos = math.exp(frames[t] @ frames[p] / (norms[t] * norms[p]) / temperature)
            e_neg = sum(
                math.exp(frames[t] @ frames[k] / (norms[t] * norms[k]) / temperature)
                for k in neg
            )
            total -= e_pos / (e_pos + e_neg)
    return total


def oracle_task_loss(D):
    total = 0.0
    for i in range(len(D)):
        num = math.exp(-D[i, i])
        total -= num / (num + sum(math.exp(-D[i, j]) for j in range(len(D)) if j != i))
    return total


def oracle_swav_loss(scores, codes):
    total = 0.0
    for b in range(len(scores)):
        z = sum(math.exp(s) for s in scores[b])
        total -= sum(codes[b, k] * (scores[b, k] - math.log(z)) for k in range(scores.shape[1]))
    return total / len(scores)


def test_a08_loss_formula_fidelity():
    rng = np.random.default_rng(808)
    # exact -1 for identical clips, distances computed by the real solver
    for n in (2, 4, 8):
        clip = EmbeddingSequence(rng.normal(size=(3, 6)))
        assert task_alignment_loss([clip] * n, [clip] * n) == -1.0
        assert task_alignment_loss_from_distances(np.full((n, n), 0.3)) == -1.0
    worst = 0.0
    gibbs_ok = True
    for i in range(34):  # time-contrastive against the straight-line oracle
        frames = rng.normal(size=(int(rng.integers(3, 10)), 5))
        cfg = TimeContrastiveConfig(window=int(rng.integers(1, 4)), temperature=0.5)
        worst = max(
            worst,
            abs(time_contrastive_loss(frames, cfg) - oracle_time_loss(frames, cfg.window, 0.5)),
        )
    for i in range(33):  # task alignment over random distance matrices
        n = int(rng.integers(2, 8))
        D = rng.uniform(0.0, 2.0, size=(n, n))
        worst = max(worst, abs(task_alignment_loss_from_distances(D) - oracle_task_loss(D)))
    for i in range(33):  # code assignment cross-entropy + Gibbs bound
        B, K = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        if i % 2:
            scores = rng.normal(size=(B, K))
            codes = rng.uniform(0.01, 1.0, size=(B, K))
            codes /= codes.sum(axis=1, keepdims=True)
        else:
            feats = rng.normal(size=(B, 6))
            feats /= np.linalg.norm(feats, axis=1, keepdims=True)
            protos = rng.normal(size=(K, 6))
            protos /= np.linalg.norm(protos, axis=1, keepdims=True)
            scores = feats @ protos.T
            codes = swav_code_plan(
                scores, SinkhornConfig(max_iters=20000, tol_marginal=1e-9)
            ).coupling * B
        loss = swav_assignment_loss(scores, codes)
        worst = max(worst, abs(loss - oracle_swav_loss(scores, codes)))
        safe = np.where(codes > 0, codes, 1.0)
        entropy = float(np.mean(-(codes * np.log(safe)).sum(axis=1)))
        gibbs_ok = gibbs_ok and loss >= entropy - 1e-9
    ok = worst <= 1e-12 and gibbs_ok
    report("A08", ok, f"100 seeded inputs match oracles within {worst:.2e}; Gibbs bound holds")
    assert worst <= 1e-12
    assert gibbs_ok


def test_a09_balanced_code_assignment_feasibility():
    rng = np.random.default_rng(909)
    cfg = SinkhornConfig(max_iters=20000, tol_marginal=1e-8)
    worst = 0.0
    for _ in range(100):
        B, K = int(rng.integers(1, 65)), int(rng.integers(1, 17))
        feats = rng.normal(size=(B, 8))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        protos = rng.normal(size=(K, 8))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        plan = swav_code_plan(feats @ protos.T, cfg)
        assert plan.converged
        Q = plan.coupling
        dev = max(
            np.abs(Q.sum(axis=1) - 1.0 / B).max(), np.abs(Q.sum(axis=0) - 1.0 / K).max()
        )
        worst = max(worst, dev)
    report("A09", worst <= 1e-6, f"100 instances, max marginal deviation {worst:.2e} <= 1e-6")
    assert worst <= 1e-6


def _random_dataset(rng, i):
    d = int(rng.integers(2, 17))
    n_tasks = int(rng.integers(2, 5))
    snippets = []
    for j in range(int(rng.integers(1, 6))):
        T = int(rng.integers(1, 7))
        tasks = [int(rng.integers(0, n_tasks)) for _ in range(T)]
        labels = [
            FrameLabel.of((0, 1)) if (j + k) % 5 == 0 else FrameLabel.of(tasks[k])
            for k in range(T)
        ]
        snippets.append(
            LabeledSequence(
                seq_id=f"s{i:03d}-{j}",
                sequence=EmbeddingSequence(quantize_frames_f32(rng.normal(size=(T, d)))),
                labels=tuple(labels),
                embodiment=Embodiment.ROBOT if j % 2 else Embodiment.DEMONSTRATOR,
                seed_record={"j": j},
            )
        )
    return SnippetDatabase(
        tuple(snippets),
        task_names={t: f"task-{t}" for t in range(n_tasks)},
        provenance={"i": i},
    )


def test_a10_format_round_trip_and_structured_errors(tmp_path):
    rng = np.random.default_rng(1010)
    for i in range(100):
        db = _random_dataset(rng, i)
        path = tmp_path / f"ds{i:03d}"
        write_dataset(db, path)
        assert read_dataset(path) == db

    base = _random_dataset(rng, 999)
    ok_dir = tmp_path / "errors"
    write_dataset(base, ok_dir)
    first_id = base.snippets[0].seq_id

    (ok_dir / "manifest.json").write_text("{broken", encoding="utf-8")
    with pytest.raises(ManifestError):
        read_dataset(ok_dir)
    write_dataset(base, ok_dir)

    blob = ok_dir / f"{first_id}.f32"
    blob.write_bytes(blob.read_bytes()[:-1])
    with pytest.raises(BlobError) as err:
        read_dataset(ok_dir)
    assert err.value.sequence_id == first_id
    write_dataset(base, ok_dir)

    blob.unlink()
    with pytest.raises(BlobError, match=f"{first_id}.f32"):
        read_dataset(ok_dir)
    write_dataset(base, ok_dir)

    data = bytearray(blob.read_bytes())
    data[0:4] = np.array([np.nan], dtype="<f4").tobytes()
    blob.write_bytes(bytes(data))
    with pytest.raises(BlobError, match="NaN"):
        read_dataset(ok_dir)
    write_dataset(base, ok_dir)

    doc = json.loads((ok_dir / "manifest.json").read_text())
    doc["sequences"][0]["labels"].append([0])
    (ok_dir / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="labels"):
        read_dataset(ok_dir)
    write_dataset(base, ok_dir)

    doc = json.loads((ok_dir / "manifest.json").read_text())
    doc["sequences"][0]["labels"][0] = [99]
    (ok_dir / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="undeclared"):
        read_dataset(ok_dir)

    mixed = [
        LabeledSequence(
            seq_id="a",
            sequence=EmbeddingSequence(np.zeros((1, 3))),
            labels=(FrameLabel.of(0),),
            embodiment=Embodiment.ROBOT,
        ),
        LabeledSequence(
            seq_id="b",
            sequence=EmbeddingSequence(np.zeros((1, 4))),
            labels=(FrameLabel.of(0),),
            embodiment=Embodiment.ROBOT,
        ),
    ]
    target = tmp_path / "mixed"
    with pytest.raises(ValueError, match="mixed"):
        write_dataset(SnippetDatabase(tuple(mixed), {0: "task-0"}), target)
    assert not target.exists()
    report("A10", True, "100 round trips bit-exact; 7 malformed cases raise structured errors")


def _digest_tree(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "run_manifest.json":
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_a11_pipeline_reproducibility_across_runs_and_threads(tmp_path, monkeypatch):
    digests = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        assert cli_main(
            ["gen", "--level", "easy", "--seed", "0", "--trajectories", "6", "--out", "bench"]
        ) == 0
        assert cli_main(
            ["imagine", "--robot", "bench/robot", "--play", "bench/play",
             "--threads", threads, "--out", "run"]
        ) == 0
        assert cli_main(["eval", "--paired", "run", "--out", "eval"]) == 0
        digests.append(_digest_tree(root))
    ok = digests[0] == digests[1] == digests[2]
    report("A11", ok, f"{len(digests[0])} artifact files hash-identical over reruns and threads 1/4")
    assert digests[0] == digests[1]
    assert digests[0] == digests[2]
