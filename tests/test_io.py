"""JSONL round-trips, metadata determinism, and streaming behavior."""
from __future__ import annotations

import json
import os
import tracemalloc

import pytest

from egoqa.core import (
    Narration,
    NarrationTrack,
    PredictionSet,
    QASample,
    TemporalWindow,
    ValidationError,
)
from egoqa.jsonl_io import (
    SchemaMismatch,
    config_hash,
    dumps_canonical,
    make_meta,
    pred_to_row,
    qa_to_row,
    read_ground_truth,
    read_jsonl,
    read_narrations,
    row_to_head,
    row_to_pred,
    row_to_qa,
    row_to_track,
    staged_writer,
    track_to_row,
    write_json,
    write_jsonl,
)
from egoqa.localization import HeadOutputs


def read_meta(path):
    """The header's _meta object, or None when the file has none."""
    with open(path, encoding="utf-8") as f:
        meta = json.loads(f.readline()).get("_meta")
    return meta if isinstance(meta, dict) else None


def head_to_row(clip_uid, query_id, duration_s, heads):
    return {
        "clip_uid": clip_uid,
        "query_id": query_id,
        "duration_s": duration_s,
        "scores": heads.scores.tolist(),
        "offsets": heads.offsets.tolist(),
    }


def test_dumps_canonical_is_sorted_compact_unicode():
    s = dumps_canonical({"b": 1, "a": "ü"})
    assert s == '{"a":"ü","b":1}'


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_semantic_keys_matter(self):
        assert config_hash({"model": "m1"}) != config_hash({"model": "m2"})


class TestMeta:
    def test_meta_has_no_timestamp(self):
        meta = make_meta({"model": "m"}, seed=7)["_meta"]
        assert set(meta) == {"tool", "version", "config_hash", "seed"}

    def test_meta_byte_identical_across_calls(self):
        a = dumps_canonical(make_meta({"model": "m"}, seed=7))
        b = dumps_canonical(make_meta({"model": "m"}, seed=7))
        assert a == b

    def test_read_meta_roundtrip(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        write_jsonl(path, [{"a": 1}], make_meta({"model": "m"}, seed=7))
        meta = read_meta(path)
        assert meta["tool"] == "egoqa"
        assert meta["seed"] == 7

    def test_read_meta_absent(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\n', encoding="utf-8")
        assert read_meta(path) is None
        assert list(read_jsonl(str(path))) == [(1, {"a": 1})]


class TestRepeatedKeys:
    def test_jsonl_row_names_line_and_key(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"b": {"c": 1, "c": 2}}\n')
        with pytest.raises(ValidationError, match=r"x\.jsonl:2: repeated key 'c'"):
            list(read_jsonl(str(path)))

    def test_narrations_sniff_raises_rather_than_reading_an_export(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1, "a": 2}\n{"b": 1}\n')
        # The sniff runs at the call, before any track is asked for.
        with pytest.raises(ValidationError, match=r"x\.jsonl:1: repeated key 'a'"):
            read_narrations(str(path), "merge", print)
        path.write_text('{\n"a": 1}\n')
        rejects = []
        assert list(read_narrations(str(path), "merge", lambda *r: rejects.append(r))) == []
        assert rejects == [("clip", "a", "not_an_object")]


class TestWriteRead:
    def test_roundtrip_and_count(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        rows = [{"i": i} for i in range(5)]
        assert write_jsonl(path, rows, make_meta({}, 0)) == 5
        got = [row for _, row in read_jsonl(path)]
        assert got == rows

    def test_line_numbers_are_file_positions(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        write_jsonl(path, [{"i": 0}, {"i": 1}], make_meta({}, 0))
        assert [n for n, _ in read_jsonl(path)] == [2, 3]

    def test_write_is_atomic_no_partial_file_on_error(self, tmp_path):
        path = str(tmp_path / "x.jsonl")

        def rows():
            yield {"ok": 1}
            raise RuntimeError("mid-stream failure")

        with pytest.raises(RuntimeError):
            write_jsonl(path, rows(), make_meta({}, 0))
        assert not os.path.exists(path)
        assert os.listdir(tmp_path) == []

    def test_staged_files_get_open_mode_and_replace_target(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as f:
            f.write("x")
        path = str(tmp_path / "doc.json")
        write_json(path, {"old": True}, make_meta({}, 2))
        write_json(path, {"b": 1, "a": "ü"}, make_meta({}, 3))
        with open(path, encoding="utf-8") as f:
            assert f.read() == dumps_canonical({**make_meta({}, 3), "a": "ü", "b": 1}) + "\n"
        assert read_meta(path) == make_meta({}, 3)["_meta"]
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        assert sorted(os.listdir(tmp_path)) == ["doc.json", "plain.txt"]

    def test_staged_writer_keeps_old_target_on_error(self, tmp_path):
        path = str(tmp_path / "x.tsv")
        with staged_writer(path) as f:
            f.write("old\n")
        with pytest.raises(RuntimeError):
            with staged_writer(path) as f:
                f.write("new\n")
                raise RuntimeError("mid-write failure")
        with open(path) as f:
            assert f.read() == "old\n"
        assert os.listdir(tmp_path) == ["x.tsv"]

    def test_staged_writer_names_target_it_cannot_write(self, tmp_path):
        missing = str(tmp_path / "absent" / "x.tsv")
        with pytest.raises(ValidationError, match="absent/x.tsv: cannot create output"):
            with staged_writer(missing):
                pass
        (tmp_path / "dir").mkdir()
        with pytest.raises(ValidationError, match="dir: cannot replace output"):
            with staged_writer(str(tmp_path / "dir")) as f:
                f.write("x\n")
        # an error inside the block is the caller's, not the writer's
        with pytest.raises(OSError) as info:
            with staged_writer(str(tmp_path / "x.tsv")):
                raise OSError("disk full")
        assert type(info.value) is OSError
        assert sorted(os.listdir(tmp_path)) == ["dir"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError, match=r"cannot open .*absent\.jsonl"):
            list(read_jsonl(str(tmp_path / "absent.jsonl")))

    def test_non_json_line_raises_with_position(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        with open(path, "w") as f:
            f.write('{"ok": 1}\nnot json\n')
        with pytest.raises(ValidationError, match=r"x\.jsonl:2: not JSON"):
            list(read_jsonl(path))

    def test_non_object_row_raises(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        with open(path, "w") as f:
            f.write("[1, 2]\n")
        with pytest.raises(SchemaMismatch):
            list(read_jsonl(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        with open(path, "w") as f:
            f.write('{"a": 1}\n\n{"b": 2}\n')
        assert len(list(read_jsonl(path))) == 2

    def test_reader_is_lazy(self, tmp_path):
        # a corrupt later line must not fail until iteration reaches it
        path = str(tmp_path / "x.jsonl")
        with open(path, "w") as f:
            f.write('{"a": 1}\nbroken\n')
        it = read_jsonl(path)
        assert next(it)[1] == {"a": 1}
        with pytest.raises(ValidationError, match=r"x\.jsonl:2: not JSON"):
            next(it)

    def test_streaming_memory_stays_bounded(self, tmp_path):
        # 200k rows ~ 6 MB of file; peak traced memory must stay far below it
        path = str(tmp_path / "big.jsonl")
        write_jsonl(path, ({"i": i, "pad": "x" * 10} for i in range(200_000)), make_meta({}))
        tracemalloc.start()
        count = sum(1 for _ in read_jsonl(path))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 200_000
        assert peak < 2_000_000


class TestCodecs:
    def test_track_roundtrip(self):
        track = NarrationTrack(
            "c1", 30.0, (Narration("C walks.", 1.0), Narration("C sits.", 5.0))
        )
        assert row_to_track(track_to_row(track)) == track

    def test_qa_roundtrip_with_and_without_distractors(self):
        bare = QASample("c1", "Q?", "a", TemporalWindow(0, 4), split="test")
        assert row_to_qa(qa_to_row(bare)) == bare
        full = QASample(
            "c1", "Q?", "a", TemporalWindow(0, 4),
            wrong_answers=("b", "c", "d"), split="test",
        )
        assert row_to_qa(qa_to_row(full)) == full
        assert "wrong_answers" not in qa_to_row(bare)

    def test_pred_roundtrip(self):
        pred = PredictionSet(
            "c1", "c1::0",
            ((TemporalWindow(0, 4), 0.9), (TemporalWindow(5, 9), 0.4)),
            answer_text="a cup",
        )
        assert row_to_pred(pred_to_row(pred)) == pred

    def test_pred_reader_sorts_unranked_windows(self):
        row = {
            "clip_uid": "c1",
            "query_id": "c1::0",
            "windows": [[5.0, 9.0, 0.4], [0.0, 4.0, 0.9]],
        }
        pred = row_to_pred(row)
        assert [s for _, s in pred.windows] == [0.9, 0.4]

    def test_head_roundtrip(self):
        heads = HeadOutputs((0.3, 0.7), ((0.0, 1.0), (0.5, 0.5)))
        row = head_to_row("c1", "c1::0", 20.0, heads)
        *ids, back = row_to_head(row)
        assert ids == ["c1", "c1::0", 20.0]
        assert back.scores.tolist() == heads.scores.tolist()
        assert back.offsets.tolist() == heads.offsets.tolist()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("clip_uid"),
            lambda r: r.pop("window"),
            lambda r: r.__setitem__("window", [5.0]),
            lambda r: r.__setitem__("window", [9.0, 5.0]),
            lambda r: r.__setitem__("wrong_answers", ["b", "b", "c"]),
        ],
    )
    def test_qa_schema_violations_raise(self, mutate):
        row = qa_to_row(
            QASample("c1", "Q?", "a", TemporalWindow(5, 9), split="test")
        )
        mutate(row)
        with pytest.raises(SchemaMismatch):
            row_to_qa(row)

    def test_error_message_carries_location(self):
        with pytest.raises(SchemaMismatch, match="qa.jsonl:17"):
            row_to_qa({"question": "Q?"}, where="qa.jsonl:17")


def test_ground_truth_is_keyed_by_per_clip_ordinal(tmp_path):
    path = str(tmp_path / "gt.jsonl")
    samples = [QASample(clip, f"Q{i}?", "a", TemporalWindow(0, 1))
               for i, clip in enumerate(["clip-a", "clip-b", "clip-a"] + ["clip-c"] * 13)]
    write_jsonl(path, map(qa_to_row, samples), make_meta({}))
    gts = read_ground_truth(path)
    assert list(gts) == ["clip-a::0", "clip-b::0", "clip-a::1",
                         *(f"clip-c::{k}" for k in range(13))]
    assert list(gts.values()) == samples
    write_jsonl(path, [], make_meta({}))
    with pytest.raises(ValidationError, match="gt.jsonl has no samples"):
        read_ground_truth(path)

