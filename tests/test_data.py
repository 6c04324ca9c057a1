import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import tempfile
import threading
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmatch.cli import main
from seqmatch.data import (
    BlobError,
    DatasetError,
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    ManifestError,
    SnippetDatabase,
    canonical_json,
    check_bool,
    check_finite,
    check_int,
    dataset_content_hash,
    label_tasks,
    quantize_frames_f32,
    read_dataset,
    write_dataset,
    _f32_all_finite,
    _parse_label_entries,
    _parse_labels,
)


def make_sequence(seq_id, frames, tasks=None, embodiment=Embodiment.DEMONSTRATOR, seed_record=None):
    frames = quantize_frames_f32(np.asarray(frames, dtype=np.float64))
    n = frames.shape[0]
    if tasks is None:
        tasks = [0] * n
    labels = tuple(FrameLabel.of(t) for t in tasks)
    return LabeledSequence(
        seq_id=seq_id,
        sequence=EmbeddingSequence(frames),
        labels=labels,
        embodiment=embodiment,
        seed_record=seed_record,
    )


def random_db(rng, n_snips=100, d=32, two_label_every=7):
    snippets = []
    for i in range(n_snips):
        T = int(rng.integers(1, 9))
        frames = rng.normal(size=(T, d))
        tasks = [int(rng.integers(0, 5)) for _ in range(T)]
        if i % two_label_every == 0:
            tasks[0] = (0, 1)
        snippets.append(make_sequence(f"snip-{i:03d}", frames, tasks, seed_record={"i": i}))
    return SnippetDatabase(
        tuple(snippets),
        task_names={t: f"task-{t}" for t in range(5)},
        provenance={"seed": 0},
    )


def tree_digest(root: Path, exclude=()) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestEmbeddingSequence:
    def test_basic(self):
        seq = EmbeddingSequence([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert seq.n_frames == 2 and seq.dim == 3

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            EmbeddingSequence([[np.nan, 0.0]])
        with pytest.raises(ValueError, match="NaN or Inf"):
            EmbeddingSequence([[np.inf, 0.0]])

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            EmbeddingSequence(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            EmbeddingSequence(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            EmbeddingSequence([[1.0, 2.0], [1.0]])

    def test_immutable(self):
        seq = EmbeddingSequence([[1.0, 2.0]])
        with pytest.raises(ValueError):
            seq.frames[0, 0] = 9.0

    def test_equality_is_bitwise(self):
        a = EmbeddingSequence([[1.0, 2.0]])
        b = EmbeddingSequence([[1.0, 2.0]])
        c = EmbeddingSequence([[1.0, 2.0 + 1e-16]])
        d = EmbeddingSequence([[1.0, 2.0000001]])
        assert a == b
        assert a == c  # 2.0 + 1e-16 rounds to 2.0 in float64
        assert a != d


class TestFrameLabel:
    def test_arity(self):
        assert FrameLabel.of(3).tasks == (3,)
        assert FrameLabel.of((1, 2)).task_set == frozenset({1, 2})
        with pytest.raises(ValueError):
            FrameLabel(())
        with pytest.raises(ValueError):
            FrameLabel((1, 2, 3))
        with pytest.raises(ValueError):
            FrameLabel((1, 1))
        with pytest.raises(ValueError):
            FrameLabel((-1,))

    @pytest.mark.parametrize("spec", [[0.7], ["1"], [True]])
    def test_of_does_not_coerce_task_ids(self, spec):
        with pytest.raises(ValueError, match="non-negative ints"):
            FrameLabel.of(spec)

    def test_labels_given_as_frame_labels_are_kept(self):
        labels = (FrameLabel((0,)), FrameLabel((1, 2)))
        seq = LabeledSequence("x", EmbeddingSequence([[0.0], [1.0]]), labels, Embodiment.ROBOT)
        assert all(a is b for a, b in zip(seq.labels, labels))
        coerced = LabeledSequence("x", EmbeddingSequence([[0.0], [1.0]]), [0, (1, 2)], Embodiment.ROBOT)
        assert coerced.labels == labels

    def test_task_set_is_derived_and_cannot_be_set(self):
        seq = LabeledSequence("x", EmbeddingSequence([[0.0], [1.0]]), [3, (1, 3)], Embodiment.ROBOT)
        assert seq.task_set == frozenset({1, 3}) and seq.task_set is seq.task_set
        with pytest.raises(dataclasses.FrozenInstanceError):
            seq.task_set = frozenset({0})
        with pytest.raises(TypeError, match="task_set"):
            LabeledSequence("x", EmbeddingSequence([[0.0]]), [0], Embodiment.ROBOT, task_set=frozenset({0}))
        assert "task_set" not in [f.name for f in dataclasses.fields(seq)]

    @pytest.mark.parametrize("seq_id", ["abc\n", "abc\n\n", "\nabc", "a b", "", "-a", 7, None])
    def test_invalid_sequence_id_rejected(self, seq_id):
        with pytest.raises(ValueError, match="invalid sequence id"):
            LabeledSequence(seq_id, EmbeddingSequence([[0.0]]), (FrameLabel((0,)),), Embodiment.ROBOT)

    def test_label_length_must_match_frames(self):
        with pytest.raises(ValueError, match="labels"):
            LabeledSequence(
                seq_id="x",
                sequence=EmbeddingSequence([[0.0, 1.0], [1.0, 0.0]]),
                labels=(FrameLabel.of(0),),
                embodiment=Embodiment.ROBOT,
            )


class TestDatabaseInvariants:
    def test_mixed_dims_rejected(self):
        a = make_sequence("a", np.zeros((2, 3)))
        b = make_sequence("b", np.zeros((2, 4)))
        with pytest.raises(ValueError, match="mixed"):
            SnippetDatabase((a, b), task_names={0: "t"})

    def test_duplicate_ids_rejected(self):
        a = make_sequence("a", np.zeros((1, 2)))
        with pytest.raises(ValueError, match="duplicate"):
            SnippetDatabase((a, a), task_names={0: "t"})

    def test_get_by_id(self):
        a = make_sequence("a", np.zeros((1, 2)))
        b = make_sequence("b", np.ones((2, 2)))
        db = SnippetDatabase((a, b), task_names={0: "t"})
        assert db.get("b") is db.snippets[1]
        assert db.get("a") is db.snippets[0]
        with pytest.raises(KeyError):
            db.get("c")
        with pytest.raises(ValueError, match="duplicate"):
            SnippetDatabase((a, b, make_sequence("a", np.ones((3, 2)))), task_names={0: "t"})

    @pytest.mark.parametrize(
        "extra, match",
        [({"1": "u"}, "task ids"), ({True: "u"}, "task ids"), ({-1: "u"}, "task ids"), ({1: 7}, "name")],
    )
    def test_task_table_not_coerced(self, extra, match):
        a = make_sequence("a", np.zeros((1, 2)))
        with pytest.raises(ValueError, match=match):
            SnippetDatabase((a,), task_names={0: "t", **extra})

    def test_undeclared_task_rejected(self):
        a = make_sequence("a", np.zeros((1, 2)), tasks=[7])
        with pytest.raises(ValueError, match="undeclared"):
            SnippetDatabase((a,), task_names={0: "t"})
        # the message names the first offending sequence and its missing ids
        ok, b, c = (make_sequence(i, np.zeros((2, 2)), tasks=t) for i, t in (("ok", [0, 0]), ("b", [0, (8, 9)]), ("c", [5, 0])))
        with pytest.raises(ValueError, match=re.escape("sequence 'b' references undeclared task ids [8, 9]")):
            SnippetDatabase((ok, b, c, a), task_names={0: "t"})

    @pytest.mark.parametrize(
        "provenance", [5, 0.5, "robot", [["a", 1]], [], True], ids=["int", "float", "string", "list", "empty-list", "bool"]
    )
    def test_provenance_not_a_mapping_rejected(self, provenance):
        a = make_sequence("a", np.zeros((1, 2)))
        with pytest.raises(ValueError, match="provenance must be a mapping or None"):
            SnippetDatabase((a,), task_names={0: "t"}, provenance=provenance)

    @pytest.mark.parametrize("provenance, want", [(None, None), ({}, {}), ({"a": [1]}, {"a": [1]})])
    def test_provenance_object_or_null_kept(self, provenance, want):
        a = make_sequence("a", np.zeros((1, 2)))
        db = SnippetDatabase((a,), task_names={0: "t"}, provenance=provenance)
        assert db.provenance == want and (provenance is None or db.provenance is not provenance)

    @pytest.mark.parametrize("seed_record", [[["a", 1]], 5, "a1", True], ids=["list-of-pairs", "number", "string", "bool"])
    def test_seed_record_not_a_mapping_rejected(self, seed_record):
        with pytest.raises(ValueError, match="seed_record must be a mapping or None"):
            make_sequence("a", np.zeros((1, 2)), seed_record=seed_record)


class TestConfigRules:
    @pytest.mark.parametrize("value", [1, 7, 10**20])
    def test_int_accepted(self, value):
        check_int("n", value, 1)

    @pytest.mark.parametrize(
        "value", [2.0, True, "2", None, np.int64(2)], ids=["float", "bool", "str", "none", "numpy-int"]
    )
    def test_non_int_rejected(self, value):
        with pytest.raises(ValueError, match=f"^n must be an int, got {re.escape(repr(value))}$"):
            check_int("n", value, 1)

    def test_int_below_low_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            check_int("n", 0, 1)

    @pytest.mark.parametrize("value", [0.5, 1, np.float64(2.0), np.float32(0.5), np.int64(3), Fraction(1, 3)])
    def test_finite_real_accepted(self, value):
        check_finite("x", value)
        check_finite("x", value, gt=0)
        check_finite("x", value, ge=0)

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, True, False, "1", None, np.bool_(True)],
        ids=["nan", "inf", "-inf", "true", "false", "str", "none", "numpy-bool"],
    )
    @pytest.mark.parametrize("bound", [{}, {"gt": 0}, {"ge": 0}], ids=["any", "gt", "ge"])
    def test_not_finite_real_rejected(self, value, bound):
        text = " and > 0" if "gt" in bound else " and >= 0" if "ge" in bound else ""
        with pytest.raises(ValueError, match=f"^x must be finite{text}, got {re.escape(str(value))}$"):
            check_finite("x", value, **bound)

    def test_finite_bounds(self):
        check_finite("x", 0.0, ge=0)
        check_finite("x", -2.0)
        with pytest.raises(ValueError, match="^x must be finite and > 0, got 0.0$"):
            check_finite("x", 0.0, gt=0)
        with pytest.raises(ValueError, match="^x must be finite and >= 0, got -1e-300$"):
            check_finite("x", -1e-300, ge=0)

    def test_bool_accepted(self):
        check_bool("flag", True)
        check_bool("flag", False)

    @pytest.mark.parametrize(
        "value", [1, 0, "no", None, np.bool_(True)], ids=["one", "zero", "str", "none", "numpy-bool"]
    )
    def test_non_bool_rejected(self, value):
        with pytest.raises(ValueError, match=f"^flag must be a bool, got {re.escape(repr(value))}$"):
            check_bool("flag", value)


class TestRoundTrip:
    def test_trivial_roundtrip(self, tmp_path):
        db = SnippetDatabase(
            (make_sequence("only", np.zeros((2, 3))),), task_names={0: "zero"}
        )
        write_dataset(db, tmp_path / "ds")
        assert (tmp_path / "ds" / "manifest.json").is_file()
        assert (tmp_path / "ds" / "only.f32").is_file()
        assert read_dataset(tmp_path / "ds") == db

    def test_seeded_roundtrip_bit_exact(self, tmp_path, rng):
        db = random_db(rng)
        write_dataset(db, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert back == db
        for s0, s1 in zip(db.snippets, back.snippets):
            assert s0.sequence.frames.tobytes() == s1.sequence.frames.tobytes()
            # the stored task set, built and read, is the one the labels name
            assert s0.task_set == s1.task_set == label_tasks(s0.labels) == label_tasks(s1.labels)
            assert type(s1.task_set) is frozenset and type(s1.labels) is tuple

    def test_equal_labels_share_one_frame_label(self, tmp_path, rng):
        db = random_db(rng, n_snips=20)
        twin = db.snippets[1]  # a second sequence with the labels of another
        db = SnippetDatabase(
            (*db.snippets, make_sequence("twin", twin.sequence.frames, [l.tasks for l in twin.labels])),
            db.task_names,
        )
        write_dataset(db, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        labels = [label for s in back for label in s.labels]
        distinct = {label.tasks: label for label in labels}
        assert all(label is distinct[label.tasks] for label in labels)
        # equal task sets are one object, and so are equal label lists
        sets = {s.task_set: s.task_set for s in back}
        assert all(s.task_set is sets[s.task_set] for s in back) and len(sets) < len(back)
        assert back.get("twin").labels is back.snippets[1].labels

    def test_write_read_write_bytes_identical(self, tmp_path, rng):
        db = random_db(rng, n_snips=20)
        write_dataset(db, tmp_path / "a")
        write_dataset(read_dataset(tmp_path / "a"), tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_rewrite_replaces_longer_blobs(self, tmp_path):
        """A rewrite over longer or shorter files leaves the bytes of a fresh write."""
        long = SnippetDatabase((make_sequence("s", np.ones((4, 3))),), task_names={0: "t"})
        short = SnippetDatabase((make_sequence("s", np.zeros((1, 3))),), task_names={0: "t"})
        write_dataset(long, tmp_path / "ds")
        write_dataset(short, tmp_path / "ds")
        assert (tmp_path / "ds" / "s.f32").stat().st_size == 1 * 3 * 4
        assert read_dataset(tmp_path / "ds") == short
        for first, second in ((long, short), (short, long)):
            write_dataset(second, tmp_path / "fresh")
            write_dataset(first, tmp_path / "again")
            write_dataset(second, tmp_path / "again")
            assert tree_digest(tmp_path / "again") == tree_digest(tmp_path / "fresh")

    def test_blob_is_exactly_t_d_4_bytes(self, tmp_path):
        db = SnippetDatabase(
            (make_sequence("s", np.ones((3, 5))),), task_names={0: "t"}
        )
        write_dataset(db, tmp_path / "ds")
        assert (tmp_path / "ds" / "s.f32").stat().st_size == 3 * 5 * 4

    def test_mixed_dims_rejected_before_any_write(self, tmp_path):
        seqs = [
            make_sequence("a", np.zeros((2, 3))),
            make_sequence("b", np.zeros((2, 4))),
        ]
        target = tmp_path / "ds"
        with pytest.raises(ValueError, match="mixed"):
            write_dataset(SnippetDatabase(tuple(seqs), {0: "t"}), target)
        assert not target.exists()

    def test_empty_database_rejected_before_any_write(self, tmp_path):
        target = tmp_path / "ds"
        with pytest.raises(DatasetError, match="empty dataset"):
            write_dataset(SnippetDatabase(()), target)
        assert not target.exists()

    def test_unrepresentable_floats_rejected_before_any_write(self, tmp_path):
        seq = LabeledSequence(
            seq_id="pi",
            sequence=EmbeddingSequence([[np.pi, 1.0]]),
            labels=(FrameLabel.of(0),),
            embodiment=Embodiment.ROBOT,
        )
        target = tmp_path / "ds"
        with pytest.raises(BlobError, match="float32"):
            write_dataset(SnippetDatabase((seq,), {0: "t"}), target)
        assert not target.exists()

    @given(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_roundtrip_property(self, frames):
        db = SnippetDatabase(
            (make_sequence("s", np.array(frames, dtype=np.float64)),),
            task_names={0: "t"},
        )
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            write_dataset(db, td)
            assert read_dataset(td) == db


def is_decoded(seq: EmbeddingSequence) -> bool:
    return "frames" in vars(seq)


class TestDecodeOnFirstUse:
    """``read_dataset`` keeps each blob's float32 bytes; ``frames`` is decoded on first access."""

    @pytest.fixture
    def written(self, tmp_path, rng):
        db = random_db(rng, n_snips=30, two_label_every=3)
        write_dataset(db, tmp_path / "ds")
        return db, tmp_path / "ds"

    def test_read_leaves_every_sequence_undecoded(self, written):
        back = read_dataset(written[1])
        assert [(s.n_frames, s.dim) for s in back] == [(s.n_frames, s.dim) for s in written[0]]
        assert repr(back.snippets[0].sequence).startswith("EmbeddingSequence(T=")
        assert not any(is_decoded(s.sequence) for s in back)

    def test_decoded_array_is_the_eager_one(self, written):
        _, ds = written
        for s in read_dataset(ds):
            blob = (ds / f"{s.seq_id}.f32").read_bytes()
            eager = EmbeddingSequence(np.frombuffer(blob, dtype="<f4").reshape(s.n_frames, s.dim)).frames
            frames = s.sequence.frames
            assert frames.tobytes() == eager.tobytes() and frames.shape == eager.shape
            assert frames.dtype == np.float64
            assert frames.flags.c_contiguous and not frames.flags.writeable
            assert s.sequence.frames is frames
            assert "_f32" not in vars(s.sequence)  # the bytes are dropped once decoded

    def test_equals_and_hashes_like_the_original(self, written):
        db, ds = written
        back = read_dataset(ds)
        assert dataset_content_hash(back) == dataset_content_hash(db)
        assert not any(is_decoded(s.sequence) for s in back)
        assert back == db
        fresh = read_dataset(ds)
        for s in fresh:
            s.sequence.frames
        assert dataset_content_hash(fresh) == dataset_content_hash(db)
        assert fresh == db == back

    def test_racing_first_accesses_share_one_array(self, written):
        n_threads = 4
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that first accesses interleave
        try:
            for s in read_dataset(written[1]):
                barrier = threading.Barrier(n_threads)
                got = [None] * n_threads  # a thread that raises leaves its None

                def access(k, seq=s.sequence):
                    barrier.wait()
                    got[k] = seq.frames

                threads = [threading.Thread(target=access, args=(k,)) for k in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert all(frames is s.sequence.frames for frames in got)
        finally:
            sys.setswitchinterval(switch)

    def test_write_of_undecoded_dataset_round_trips(self, written, tmp_path):
        _, ds = written
        write_dataset(read_dataset(ds), tmp_path / "again")
        assert tree_digest(tmp_path / "again") == tree_digest(ds)

    def test_in_memory_sequences_stay_eager(self):
        frames = np.array([[1.0, 2.0], [3.0, 4.0]])
        seq = EmbeddingSequence(frames=frames)
        assert is_decoded(seq) and seq.frames is not frames
        assert [f.name for f in dataclasses.fields(seq)] == ["frames"]
        assert repr(seq) == "EmbeddingSequence(T=2, d=2)"


class TestFiniteBytes:
    """``_f32_all_finite`` reads finiteness off the bytes; ``np.isfinite`` is the reference."""

    @pytest.mark.parametrize("low", [0x0000, 0x0001, 0x8000, 0xFFFF])
    def test_every_exponent_and_sign_against_isfinite(self, low):
        # All 2**16 values of bytes 2-3 (sign, exponent, top mantissa bits).
        data = ((np.arange(1 << 16, dtype="<u4") << 16) | low).astype("<u4").tobytes()
        want = np.isfinite(np.frombuffer(data, dtype="<f4"))
        got = np.array([_f32_all_finite(data[i : i + 4]) for i in range(0, len(data), 4)])
        assert (got == want).all()
        assert _f32_all_finite(data) is False
        assert _f32_all_finite(data[: 4 * 0x7F80]) is True  # up to the largest finite positive

    @pytest.mark.parametrize("index", [0, 1, 500, 998, 999])
    def test_one_bad_value_among_many(self, index):
        values = np.full(1000, 3.0e38, dtype="<f4")  # byte 3 is 0x7F: the two-integer path
        assert _f32_all_finite(values.tobytes()) is True
        for bad in (np.nan, np.inf, -np.inf):
            values[index] = bad
            assert _f32_all_finite(values.tobytes()) is False
            values[index] = -3.0e38
            assert _f32_all_finite(values.tobytes()) is True

    def test_empty_and_ordinary_blobs(self, rng):
        assert _f32_all_finite(b"") is True
        assert _f32_all_finite(rng.normal(size=(40, 32)).astype("<f4").tobytes()) is True


class TestMalformedInputs:
    @pytest.fixture
    def ds(self, tmp_path, rng):
        db = random_db(rng, n_snips=5)
        write_dataset(db, tmp_path / "ds")
        return tmp_path / "ds"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="manifest"):
            read_dataset(tmp_path / "nope")

    def test_unparsable_manifest(self, ds):
        (ds / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestError, match="unparsable"):
            read_dataset(ds)

    @pytest.mark.parametrize("version", [99, True, 1.0, "1"])
    def test_bad_schema_version(self, ds, version):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["schema_version"] = version
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="schema_version"):
            read_dataset(ds)

    def test_truncated_blob(self, ds):
        blob = ds / "snip-000.f32"
        blob.write_bytes(blob.read_bytes()[:-1])
        with pytest.raises(BlobError, match="bytes") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == "snip-000"

    def test_missing_blob_named(self, ds):
        (ds / "snip-001.f32").unlink()
        with pytest.raises(BlobError, match="snip-001.f32") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == "snip-001"

    def test_nan_in_blob(self, ds):
        blob = ds / "snip-000.f32"
        data = bytearray(blob.read_bytes())
        data[0:4] = np.array([np.nan], dtype="<f4").tobytes()
        blob.write_bytes(bytes(data))
        with pytest.raises(BlobError, match="NaN") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == "snip-000"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_non_finite_value_anywhere_in_a_blob(self, tmp_path, value, where):
        frames = np.linspace(-1.0, 1.0, 5 * 3).reshape(5, 3)
        db = SnippetDatabase((make_sequence("ok", frames), make_sequence("bad", frames)), task_names={0: "t"})
        write_dataset(db, tmp_path / "ds")
        blob = tmp_path / "ds" / "bad.f32"
        values = np.frombuffer(blob.read_bytes(), dtype="<f4").copy()
        values[{"first": 0, "middle": 7, "last": -1}[where]] = value
        blob.write_bytes(values.tobytes())
        with pytest.raises(BlobError) as exc:
            read_dataset(tmp_path / "ds")
        assert str(exc.value) == "sequence 'bad': blob 'bad.f32' contains NaN or Inf"
        assert exc.value.sequence_id == "bad"

    def test_label_length_mismatch(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["labels"].append([0])
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="labels") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == doc["sequences"][0]["id"]

    def test_label_arity_three(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["labels"][0] = [0, 1, 2]
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="label"):
            read_dataset(ds)

    def test_undeclared_task_id(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["labels"][0] = [17]
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="undeclared"):
            read_dataset(ds)

    def test_unknown_embodiment(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["embodiment"] = "alien"
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="embodiment"):
            read_dataset(ds)

    def test_invalid_sequence_id(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["id"] = "bad id"
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="invalid sequence id") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == "bad id"

    @pytest.mark.parametrize("seq_id", ["snip-000\n", "snip-000\n\n"])
    def test_sequence_id_with_trailing_newline_rejected(self, ds, seq_id):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["id"] = seq_id
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="invalid sequence id") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == seq_id

    @pytest.mark.parametrize("seq_id", [7, True, None, 1.5, ["snip-000"], {"id": "snip-000"}])
    def test_non_string_sequence_id_rejected(self, ds, seq_id):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["id"] = seq_id
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="sequence id must be a string"):
            read_dataset(ds)

    def test_blob_that_is_a_directory(self, ds):
        (ds / "snip-001.f32").unlink()
        (ds / "snip-001.f32").mkdir()
        with pytest.raises(BlobError, match="snip-001.f32.*not a regular file") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == "snip-001"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_blob_that_is_a_fifo_fails_without_blocking(self, ds):
        (ds / "snip-001.f32").unlink()
        os.mkfifo(ds / "snip-001.f32")
        with pytest.raises(BlobError, match="not a regular file"):
            read_dataset(ds)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_write_over_a_fifo_with_a_reader_is_refused(self, ds):
        """A FIFO that has a reader opens for writing; nothing may be written into it."""
        db = read_dataset(ds)
        blob = ds / "snip-001.f32"
        blob.unlink()
        os.mkfifo(blob)
        reader = os.open(blob, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(DatasetError, match=f"cannot write {re.escape(str(blob))}: not a regular file"):
                write_dataset(db, ds)
            assert os.read(reader, 1) == b""  # empty, and no writer left open
        finally:
            os.close(reader)

    def test_oversized_blob_reports_its_size(self, ds):
        blob = ds / "snip-000.f32"
        size = blob.stat().st_size
        blob.write_bytes(blob.read_bytes() + b"\0" * 8)
        with pytest.raises(BlobError, match=f"holds {size + 8} bytes, expected {size}"):
            read_dataset(ds)

    @pytest.mark.parametrize("name", ["", ".", "..", "sub/snip-000.f32", "/etc/passwd", "a\0b", 7, None])
    def test_bad_blob_reference(self, ds, name):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["blob"] = name
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="bad blob reference"):
            read_dataset(ds)

    @pytest.mark.parametrize("provenance", [5, "robot", [["a", 1]], True], ids=["number", "string", "list", "bool"])
    def test_provenance_not_an_object(self, ds, provenance):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["provenance"] = provenance
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="'provenance' must be an object or null"):
            read_dataset(ds)

    def test_seed_record_not_an_object(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["seed_record"] = [1, 2]
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="seed_record") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == doc["sequences"][0]["id"]

    @pytest.mark.parametrize("entry", [[0.7], [1.0], ["1"], [True], [0, True]])
    def test_label_task_ids_must_be_ints(self, ds, entry):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["labels"][0] = entry
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="bad label entry") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == doc["sequences"][0]["id"]

    @pytest.mark.parametrize(
        "key",
        ["00", "01", "-1", "+1", " 1", "1\n", "1.0", "x", "", "\u0663",
         pytest.param("1" + "0" * 5000, id="5001-digits")],  # more digits than int() converts
    )
    def test_task_table_key_must_be_canonical(self, ds, key):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["tasks"][key] = "dup"
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="task table key"):
            read_dataset(ds)

    @pytest.mark.parametrize("name", [7, None, True, ["task-0"]])
    def test_task_name_must_be_string(self, ds, name):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["tasks"]["0"] = name
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="name must be a string"):
            read_dataset(ds)

    @pytest.mark.parametrize("entry", [[True], [1.0]])
    def test_non_int_label_equal_to_a_read_one_rejected(self, ds, entry):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["labels"][0] = [1]
        doc["sequences"][1]["labels"][0] = entry
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="bad label entry") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == doc["sequences"][1]["id"]

    def test_bool_frame_count_rejected(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["T"] = True
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="frame count") as exc:
            read_dataset(ds)
        assert exc.value.sequence_id == doc["sequences"][0]["id"]

    @pytest.mark.parametrize(
        "value",
        ["1" + "0" * 5000, "[" * 100_000 + "]" * 100_000],
        ids=["int-digits", "nesting"],
    )
    def test_json_past_parser_limits_rejected(self, ds, value):
        # json.loads raises a bare ValueError for integers past int()'s digit
        # limit, and a RecursionError for arrays nested past the recursion limit
        doc = json.loads((ds / "manifest.json").read_text())
        doc["sequences"][0]["T"] = "huge"
        (ds / "manifest.json").write_text(json.dumps(doc).replace('"huge"', value))
        with pytest.raises(ManifestError, match="unparsable"):
            read_dataset(ds)

    def test_bool_dimension_rejected(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["d"] = True
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="dimension"):
            read_dataset(ds)

    @pytest.mark.parametrize(
        "edit, error, match",
        [
            (lambda doc: [doc], ManifestError, "manifest.json does not hold a JSON object"),
            (lambda doc: {**doc, "tasks": [["0", "task-0"]]}, ManifestError, "'tasks' must be an object"),
            (lambda doc: {**doc, "sequences": {"0": doc["sequences"][0]}}, ManifestError,
             "'sequences' must be a list"),
            (lambda doc: {**doc, "sequences": ["snip-000"]}, ManifestError, "bad sequence record"),
            (lambda doc: {**doc, "sequences": [{k: v for k, v in doc["sequences"][0].items() if k != "id"}]},
             ManifestError, "bad sequence record"),
            (lambda doc: {**doc, "sequences": [{**doc["sequences"][0], "labels": "0"}]}, DatasetError,
             "labels must be a list"),
        ],
        ids=["root", "tasks", "sequences", "record", "record-id", "labels"],
    )
    def test_malformed_manifest_structure(self, ds, edit, error, match):
        doc = json.loads((ds / "manifest.json").read_text())
        (ds / "manifest.json").write_text(json.dumps(edit(doc)))
        with pytest.raises(error, match=match) as exc:
            read_dataset(ds)
        assert type(exc.value) is error


class TestContentHash:
    def test_stable_and_sensitive(self, rng):
        db = random_db(rng, n_snips=4)
        h1 = dataset_content_hash(db)
        assert h1 == dataset_content_hash(db)
        other = SnippetDatabase(
            db.snippets[:3] + (make_sequence("snip-xxx", np.ones((1, 32))),),
            task_names=db.task_names,
        )
        assert h1 != dataset_content_hash(other)

    def test_excludes_provenance(self, rng):
        db = random_db(rng, n_snips=3)
        relabeled = SnippetDatabase(db.snippets, db.task_names, provenance={"other": 1})
        assert dataset_content_hash(db) == dataset_content_hash(relabeled)

    def test_task_table_cannot_change_under_a_cached_digest(self, rng):
        names = {t: f"task-{t}" for t in range(5)}
        db = SnippetDatabase(random_db(rng, n_snips=3).snippets, names)
        digest = dataset_content_hash(db)
        names[0] = "renamed"  # the database holds its own copy
        with pytest.raises(TypeError):
            db.task_names[0] = "renamed"
        assert db.task_names[0] == "task-0"
        fresh = SnippetDatabase(db.snippets, dict(db.task_names))
        assert digest == dataset_content_hash(db) == dataset_content_hash(fresh)

    def test_pinned_digest(self):
        assert dataset_content_hash(pinned_db()) == PINNED_DIGEST

    def test_pinned_digest_survives_a_round_trip(self, tmp_path):
        write_dataset(pinned_db(), tmp_path / "ds")
        assert dataset_content_hash(read_dataset(tmp_path / "ds")) == PINNED_DIGEST

    def test_matches_json_dumps_definition(self, rng):
        for db in (pinned_db(), random_db(rng, n_snips=30, two_label_every=3)):
            assert dataset_content_hash(db) == json_dumps_content_hash(db)


class Color(str, Enum):
    RED = "r\u00e9d"


def json_dumps_indent(doc) -> str:
    """The form every JSON output took before outputs were compact."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Scalars as json writes them: escapes and non-ASCII text, big and negative
# ints, -0.0, 1e16 and the non-finite floats, a str Enum and np.float64.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(["\n\t\"\\/", "\u00e9\U0001f600", "\x00\x1f\x7f"]),
    st.just(Color.RED),
)
# Rows of 1, True and 1.0, which hash equal but render differently, as lists and tuples.
int_rows = st.lists(st.sampled_from([0, 1, True, 1.0, 2, -3]), max_size=3)
json_rows = st.lists(st.one_of(int_rows, int_rows.map(tuple)), max_size=5)
# Keys of one dict must sort against each other: all text, all numbers
# (ints, floats and bools) or None.
json_docs = st.recursive(
    st.one_of(json_scalars, json_rows),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(-3, 3), st.floats(), st.booleans()), children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=30,
)


def _circular_dict():
    doc = {"a": [1, {}]}
    doc["a"][1]["back"] = doc
    return doc


def _circular_list():
    doc = [[1], []]
    doc[1].append(doc)
    return doc


class TestCanonicalJson:
    def test_format(self):
        doc = {
            "z": {"b": (1, 2.5), "a": [{"y": None, "x": True}]},
            "a": "r\u00e9d",
            "m": {"inf": math.inf, "-inf": -math.inf, "nan": math.nan},
        }
        text = canonical_json(doc)
        assert text == (
            '{"a":"r\\u00e9d","m":{"-inf":-Infinity,"inf":Infinity,"nan":NaN},'
            '"z":{"a":[{"x":true,"y":null}],"b":[1,2.5]}}\n'
        )
        got = json.loads(text)
        assert math.isnan(got["m"].pop("nan")) and math.isnan(doc["m"].pop("nan"))
        assert got == {**doc, "z": {**doc["z"], "b": [1, 2.5]}}

    @settings(max_examples=300)
    @given(json_docs)
    def test_one_line_with_the_values_of_the_indented_form(self, doc):
        text = canonical_json(doc)
        assert text.endswith("\n") and "\n" not in text[:-1]
        # repr tells NaN apart and keeps key order, which == on dicts ignores
        assert repr(json.loads(text)) == repr(json.loads(json_dumps_indent(doc)))

    @pytest.mark.parametrize(
        "doc",
        [np.int64(1), {1, 2}, [[1], [np.int64(2)]], {"a": (1, {2})}, {(1,): 1}, {1: 1, "1": 2}],
        ids=["np-int64", "set", "np-int64-in-row", "nested-set", "tuple-key", "mixed-keys"],
    )
    def test_rejects_what_json_rejects(self, doc):
        with pytest.raises(TypeError) as want:
            json_dumps_indent(doc)
        with pytest.raises(TypeError) as got:
            canonical_json(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("make", [_circular_dict, _circular_list])
    def test_circular_document_raises_value_error(self, make):
        with pytest.raises(ValueError, match="Circular reference detected"):
            canonical_json(make())

    def test_reads_files_written_indented(self, tmp_path):
        """A dataset manifest and a ``paired.json`` in the indented form that
        earlier versions wrote read the same as compact ones."""
        bench, run = tmp_path / "b", tmp_path / "run"
        assert main(["gen", "--level", "hard", "--seed", "0", "--trajectories", "2",
                     "--snippets-per-task", "1", "--out", str(bench)]) == 0
        assert main(["imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
                     "--segment-kprime", "2", "--out", str(run)]) == 0
        before = read_dataset(bench / "robot")
        for path in (bench / "robot" / "manifest.json", run / "paired.json"):
            text = path.read_text()
            assert "\n" not in text[:-1]
            path.write_text(json_dumps_indent(json.loads(text)))
        after = read_dataset(bench / "robot")
        assert after == before and dataset_content_hash(after) == dataset_content_hash(before)
        assert main(["eval", "--paired", str(run), "--out", str(tmp_path / "e")]) == 0
        assert (tmp_path / "e" / "report.json").read_bytes() == (run / "report.json").read_bytes()


# One- and two-task labels, both embodiments, ids with '.', '_' and '-',
# a two-digit task id and a non-ASCII task name.
PINNED_DIGEST = "0b2ef8ad5704ce438fd2fcb648b81e39c4b3ca45aa6863fb0ad70bb3b338d861"


def pinned_db() -> SnippetDatabase:
    def frames(T, d, shift):
        return (np.arange(T * d, dtype=np.float64).reshape(T, d) - shift) / 8

    def seq(seq_id, T, shift, specs, embodiment, seed_record=None):
        labels = tuple(FrameLabel.of(s) for s in specs)
        return LabeledSequence(seq_id, EmbeddingSequence(frames(T, 3, shift)), labels, embodiment, seed_record)

    return SnippetDatabase(
        (
            seq("robot-0.a_b", 4, 5, [0, (0, 2), (2, 10), 10], Embodiment.ROBOT, {"tasks": [0, 2, 10]}),
            seq("demo_1-x.y", 2, -1, [(10, 1), 1], Embodiment.DEMONSTRATOR),
            seq("Z9", 1, 0, [2], Embodiment.DEMONSTRATOR),
        ),
        task_names={0: "reach", 1: "push", 2: "gräsp", 10: "place"},
        provenance={"seed": 7},
    )


def json_dumps_content_hash(database: SnippetDatabase) -> str:
    """``dataset_content_hash`` as first defined: one ``json.dumps`` per sequence."""
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {"d": database.dim, "tasks": {str(k): v for k, v in sorted(database.task_names.items())}},
            sort_keys=True,
        ).encode()
    )
    for s in database.snippets:
        meta = {"id": s.seq_id, "embodiment": s.embodiment.value, "labels": [list(l.tasks) for l in s.labels]}
        h.update(json.dumps(meta, sort_keys=True).encode())
        h.update(s.sequence.frames.astype("<f4").tobytes(order="C"))
    return h.hexdigest()


# Label entries as a malformed manifest may hold them: valid ones (which
# may repeat an id or name an undeclared one), bools, floats, strings,
# empty and nested lists, three ids, and non-list values.
valid_entries = st.lists(st.integers(0, 5), min_size=1, max_size=2)
label_entries = st.one_of(
    valid_entries,
    st.lists(st.one_of(st.booleans(), st.floats(), st.text(max_size=1), st.integers(-2, 9)), min_size=1, max_size=2),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.lists(valid_entries, min_size=1, max_size=2),
    st.just([]),
    st.booleans(),
    st.integers(0, 3),
    st.floats(),
    st.text(max_size=2),
    st.none(),
)


@st.composite
def label_lists(draw):
    """Mostly valid label lists with up to two entries swapped for any entry."""
    raw = draw(st.lists(valid_entries, min_size=1, max_size=6))
    for i, entry in draw(st.lists(st.tuples(st.integers(0, 5), label_entries), max_size=2)):
        raw[i % len(raw)] = entry
    return raw


def _outcome(parse):
    try:
        return [label.tasks for label in parse()]
    except DatasetError as exc:
        return str(exc)


class TestReaderFuzz:
    @given(label_lists(), st.lists(valid_entries, max_size=3))
    def test_bulk_label_path_matches_per_entry_loop(self, raw, seen):
        interned = {tuple(e): FrameLabel(tuple(e)) for e in seen if len(set(e)) == len(e)}
        bulk = _outcome(lambda: _parse_labels(raw, len(raw), "s", dict(interned)))
        assert bulk == _outcome(lambda: _parse_label_entries(raw, "s", dict(interned)))

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), label_entries), max_size=3),
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from(["T", "blob", "size"]),
                st.one_of(
                    st.integers(-1, 8),
                    st.booleans(),
                    st.floats(),
                    st.none(),
                    st.sampled_from(["", ".", "..", "a/b", "a\0b", "sub", "b.f32", "x.f32"]),
                ),
            ),
            max_size=3,
        ),
        st.sampled_from([2] * 6 + [0, 1, 3, True, 2.0, None, "2"]),
    )
    def test_every_failure_is_a_dataset_error(self, label_edits, edits, dim):
        """Mutated labels, ``T``, ``d``, blob names and blob sizes give a
        ``DatasetError`` or a database that holds exactly the manifest's labels."""
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            tasks = {t: f"t{t}" for t in range(4)}
            write_dataset(
                SnippetDatabase(
                    (
                        make_sequence("a.f", np.ones((3, 2)), [0, (1, 2), 3]),
                        make_sequence("b", np.zeros((2, 2)), [1, 1]),
                    ),
                    tasks,
                ),
                root,
            )
            (root / "sub").mkdir()
            doc = json.loads((root / "manifest.json").read_text())
            records = doc["sequences"]
            for i, frame, entry in label_edits:
                records[i]["labels"][frame % len(records[i]["labels"])] = entry
            for i, key, value in edits:
                if key == "size":
                    if type(value) is int and value >= 0:
                        (root / ("a.f.f32", "b.f32")[i]).write_bytes(np.ones(value, dtype="<f4").tobytes())
                else:
                    records[i][key] = value
            if dim != 2:
                doc["d"] = dim
            (root / "manifest.json").write_text(json.dumps(doc))
            try:
                db = read_dataset(root)
            except DatasetError:
                return
            assert [json.dumps([list(l.tasks) for l in s.labels]) for s in db] == [
                json.dumps(r["labels"]) for r in records
            ]
