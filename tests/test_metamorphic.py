"""Metamorphic relations of whole commands: reordering an input's rows, or
the prediction files, changes an output only in the way the relation says.

The inputs are a small `score` workload of bench/gen.py under a fixed seed;
every command runs in-process through egoqa.cli.main.
"""
from __future__ import annotations

import importlib.util
import os
import random
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
