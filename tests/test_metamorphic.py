"""Metamorphic relations of whole commands: reordering an input's rows, or
the prediction files, or splitting an input in two, changes an output only
in the way the relation says.

The inputs are small `score` and `curate-local` workloads of bench/gen.py
under a fixed seed; every command runs in-process through egoqa.cli.main.
"""
from __future__ import annotations

import importlib.util
import json
import random
from collections import defaultdict
from pathlib import Path

import pytest

from egoqa import cli

GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
CLOSEQA = [f"pred_closeqa_{i}.jsonl" for i in range(5)]


def _gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """30 head-output rows of 400 steps and 60 qa queries, with their
    predictions (the 1,200-step rows of the benchmark would only be slower)."""
    root = tmp_path_factory.mktemp("score")
    _gen().gen_score(str(root), 1, "score", 30, 60, 400, 0.03)
    assert cli.main(["decode", str(root / "head_outputs.jsonl"),
                     "--out", str(root / "preds.jsonl")]) == 0
    return root


@pytest.fixture(scope="module")
def curation(tmp_path_factory) -> Path:
    """20 clips of the curate-local workload, ingested, then synthesized
    with the mock endpoint: narrations.jsonl, qa.jsonl and its records and
    stats files."""
    root = tmp_path_factory.mktemp("curate")
    _gen().gen_curation(str(root), 1, "curate-local", 20)
    assert cli.main(["ingest", str(root / "export.json"),
                     "--out", str(root / "narrations.jsonl")]) == 0
    assert _synthesize(root, root / "narrations.jsonl", root / "qa.jsonl") == 0
    return root


def _synthesize(root: Path, narrations: Path, out: Path) -> int:
    return cli.main(["synthesize", str(narrations), "--out", str(out), "--mock",
                     str(root / "fixture.json"), "--seed", "1", "--split", "test"])


def _shuffled(src: Path, dest: Path, seed: int, header: bool = True) -> list[int]:
    """Copy a JSONL file with its rows shuffled, its header line (if any)
    kept first; returns the permutation: output row i is input row perm[i]."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    head, rows = (lines[:1], lines[1:]) if header else ([], lines)
    perm = list(range(len(rows)))
    random.Random(seed).shuffle(perm)
    assert perm != sorted(perm)
    dest.write_text("".join(head + [rows[i] for i in perm]), encoding="utf-8")
    return perm


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def test_decode_shuffled_rows_give_the_same_rows_shuffled(inputs, tmp_path):
    # the generator writes head outputs without a header line
    perm = _shuffled(inputs / "head_outputs.jsonl", tmp_path / "heads.jsonl", 7, header=False)
    assert cli.main(["decode", str(tmp_path / "heads.jsonl"),
                     "--out", str(tmp_path / "preds.jsonl")]) == 0
    want_header, *want = _lines(inputs / "preds.jsonl")
    got_header, *got = _lines(tmp_path / "preds.jsonl")
    assert got_header == want_header
    assert got == [want[i] for i in perm]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("task, preds, gt", [
    ("vlg", ["preds.jsonl"], "gt_vlg.jsonl"),
    ("openqa", ["pred_openqa.jsonl"], "gt_qa.jsonl"),
    ("closeqa", CLOSEQA, "gt_qa.jsonl"),
])
def test_eval_report_ignores_the_order_of_prediction_rows(inputs, tmp_path, task, preds, gt):
    def report(paths, name):
        out = tmp_path / name
        assert cli.main(["eval", *map(str, paths), "--gt", str(inputs / gt),
                         "--task", task, "--out", str(out)]) == 0
        return out.read_bytes()

    want = report([inputs / p for p in preds], "want.json")
    (tmp_path / "shuffled").mkdir()
    for seed, p in enumerate(preds):
        _shuffled(inputs / p, tmp_path / "shuffled" / p, seed)
    assert report([tmp_path / "shuffled" / p for p in preds], "got.json") == want


def test_closeqa_report_ignores_the_order_of_prediction_files(inputs, tmp_path):
    def report(names, out):
        assert cli.main(["eval", *(str(inputs / n) for n in names), "--gt",
                         str(inputs / "gt_qa.jsonl"), "--task", "closeqa",
                         "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out).read_bytes()

    want = report(CLOSEQA, "want.json")
    for i, order in enumerate(([4, 3, 2, 1, 0], [2, 0, 4, 1, 3])):
        assert report([CLOSEQA[j] for j in order], f"got{i}.json") == want


def _by_clip(path: Path) -> dict[str, list[str]]:
    """The payload lines of a JSONL file grouped by clip_uid, clips in
    order of first appearance."""
    groups: dict[str, list[str]] = defaultdict(list)
    for line in _lines(path)[1:]:
        groups[json.loads(line)["clip_uid"]].append(line)
    return dict(groups)


def test_synthesize_shuffled_clips_give_each_clip_the_same_rows(curation, tmp_path):
    perm = _shuffled(curation / "narrations.jsonl", tmp_path / "narrations.jsonl", 3)
    assert _synthesize(curation, tmp_path / "narrations.jsonl", tmp_path / "qa.jsonl") == 0
    clips = [json.loads(line)["clip_uid"] for line in _lines(curation / "narrations.jsonl")[1:]]
    shuffled = [clips[i] for i in perm]
    for name in ("qa.jsonl", "qa.jsonl.records.jsonl"):
        want, got = _by_clip(curation / name), _by_clip(tmp_path / name)
        assert got == want
        assert list(got) == [uid for uid in shuffled if uid in got]
        assert _lines(tmp_path / name)[0] == _lines(curation / name)[0]
    stats = "qa.jsonl.stats.json"
    assert (tmp_path / stats).read_bytes() == (curation / stats).read_bytes()


@pytest.mark.parametrize("shuffled", ["qa.jsonl", "narrations.jsonl"])
def test_stats_ignore_the_order_of_rows(curation, tmp_path, shuffled):
    def stats(qa, narrations, out):
        assert cli.main(["stats", str(qa), "--narrations", str(narrations),
                         "--out", str(out)]) == 0
        return out.read_bytes()

    want = stats(curation / "qa.jsonl", curation / "narrations.jsonl", tmp_path / "want.json")
    _shuffled(curation / shuffled, tmp_path / shuffled, 5)
    paths = [tmp_path / name if name == shuffled else curation / name
              for name in ("qa.jsonl", "narrations.jsonl")]
    assert stats(*paths, tmp_path / "got.json") == want


def test_ingest_shuffled_clips_give_the_same_rows_shuffled(curation, tmp_path):
    perm = _shuffled(curation / "narrations.jsonl", tmp_path / "shuffled.jsonl", 9)
    for out, source in (("want", curation / "narrations.jsonl"),
                        ("got", tmp_path / "shuffled.jsonl")):
        assert cli.main(["ingest", str(source), "--out", str(tmp_path / f"{out}.jsonl")]) == 0
    want_header, *want = _lines(tmp_path / "want.jsonl")
    got_header, *got = _lines(tmp_path / "got.jsonl")
    assert got_header == want_header
    assert got == [want[i] for i in perm]


def test_filter_blind_on_two_halves_equals_the_whole(curation, tmp_path):
    def filtered(qa, out):
        assert cli.main(["filter-blind", str(qa), "--train", str(curation / "qa.jsonl"),
                         "--seed", "2", "--out", str(out)]) == 0
        report = json.loads((tmp_path / f"{out.name}.report.json").read_text(encoding="utf-8"))
        return _lines(out), report

    header, *rows = _lines(curation / "qa.jsonl")
    half = len(rows) // 2
    for name, part in (("a.jsonl", rows[:half]), ("b.jsonl", rows[half:])):
        (tmp_path / name).write_text("\n".join([header, *part]) + "\n", encoding="utf-8")
    whole, whole_report = filtered(curation / "qa.jsonl", tmp_path / "whole.jsonl")
    a, a_report = filtered(tmp_path / "a.jsonl", tmp_path / "kept_a.jsonl")
    b, b_report = filtered(tmp_path / "b.jsonl", tmp_path / "kept_b.jsonl")
    assert a[0] == b[0] == whole[0]
    assert a[1:] + b[1:] == whole[1:]
    assert whole_report["kept"] > 0 and whole_report["removed"] > 0
    for key in ("total", "kept", "removed"):
        assert a_report[key] + b_report[key] == whole_report[key]
    assert a_report["rows"] + b_report["rows"] == whole_report["rows"]
