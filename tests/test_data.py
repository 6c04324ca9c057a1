import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqmatch.data import (
    BlobError,
    DatasetError,
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    ManifestError,
    SnippetDatabase,
    dataset_content_hash,
    quantize_frames_f32,
    read_dataset,
    write_dataset,
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

    def test_equal_labels_share_one_frame_label(self, tmp_path, rng):
        write_dataset(random_db(rng, n_snips=20), tmp_path / "ds")
        labels = [label for s in read_dataset(tmp_path / "ds") for label in s.labels]
        distinct = {label.tasks: label for label in labels}
        assert all(label is distinct[label.tasks] for label in labels)

    def test_write_read_write_bytes_identical(self, tmp_path, rng):
        db = random_db(rng, n_snips=20)
        write_dataset(db, tmp_path / "a")
        write_dataset(read_dataset(tmp_path / "a"), tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

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

    def test_bad_schema_version(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["schema_version"] = 99
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

    @pytest.mark.parametrize("key", ["00", "01", "-1", "+1", " 1", "1\n", "1.0", "x", "", "\u0663"])
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

    def test_bool_dimension_rejected(self, ds):
        doc = json.loads((ds / "manifest.json").read_text())
        doc["d"] = True
        (ds / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="dimension"):
            read_dataset(ds)


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
