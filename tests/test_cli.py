"""End-to-end command behavior: exit codes, files, precedence, goldens."""
from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import subprocess
import sys
from itertools import takewhile

import pytest

import egoqa.cli as cli
import egoqa.jsonl_io as jsonl_io
from egoqa.core import InvariantBreach

from .conftest import DATA_DIR

EXPORT = os.path.join(DATA_DIR, "narration_export.json")
MOCK = os.path.join(DATA_DIR, "mock_completions.json")
FILTER_INPUT = os.path.join(DATA_DIR, "filter_input.jsonl")
HEADS = os.path.join(DATA_DIR, "head_outputs.jsonl")
GT_VLG = os.path.join(DATA_DIR, "gt_vlg.jsonl")
GOLDEN_PREDS = os.path.join(DATA_DIR, "golden_preds.jsonl")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
ANSWERS = [os.path.join(DATA_DIR, f"pred_answers_{r}.jsonl") for r in range(5)]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("EGOQA_BASE_URL", raising=False)
    monkeypatch.delenv("EGOQA_API_KEY", raising=False)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _ingest(tmp_path, *extra):
    out = str(tmp_path / "narrations.jsonl")
    assert cli.main(["ingest", EXPORT, "--out", out, *extra]) == 0
    return out


class TestIngest:
    def test_reads_export_and_sorts_clips(self, tmp_path):
        out = _ingest(tmp_path)
        rows = [json.loads(line) for line in _read(out).decode().splitlines()]
        assert "_meta" in rows[0]
        assert [r["clip_uid"] for r in rows[1:]] == ["clip-a", "clip-b", "clip-c"]
        ts = [n["t_s"] for n in rows[1]["narrations"]]
        assert ts == sorted(ts)

    def test_idempotent_on_own_output(self, tmp_path):
        first = _ingest(tmp_path)
        second = str(tmp_path / "again.jsonl")
        assert cli.main(["ingest", first, "--out", second]) == 0
        assert _read(first) == _read(second)

    def test_one_line_export_is_decoded_once(self, tmp_path, monkeypatch):
        one_line = tmp_path / "export.json"
        one_line.write_text(json.dumps(json.loads(_read(EXPORT))))
        decoded = []
        decode = jsonl_io._decode  # every file read decodes through it
        monkeypatch.setattr(
            jsonl_io, "_decode", lambda s, where: decoded.append(s) or decode(s, where)
        )
        out = str(tmp_path / "n.jsonl")
        assert cli.main(["ingest", str(one_line), "--out", out]) == 0
        monkeypatch.undo()
        assert len([s for s in decoded if "narration_pass_1" in s]) == 1
        assert _read(out) == _read(_ingest(tmp_path))

    def test_pass_selection(self, tmp_path):
        merged = _ingest(tmp_path)
        p1 = str(tmp_path / "p1.jsonl")
        assert cli.main(["ingest", EXPORT, "--out", p1, "--pass", "1"]) == 0
        uids = {json.loads(l)["clip_uid"]
                for l in _read(p1).decode().splitlines()[1:]}
        # clip-b only has narration_pass_2
        assert uids == {"clip-a", "clip-c"}
        merged_uids = {json.loads(l)["clip_uid"]
                       for l in _read(merged).decode().splitlines()[1:]}
        assert merged_uids == {"clip-a", "clip-b", "clip-c"}

    def test_rejects_bad_clips_with_codes(self, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "ok": {
                "duration_sec": 10,
                "narration_pass_1": {"narrations": [
                    {"narration_text": "C works.", "timestamp_sec": 1},
                    {"narration_text": "C rests.", "timestamp_sec": 5},
                ]},
            },
            "no-duration": {"narration_pass_1": {"narrations": []}},
            "listed": [1, 2],
            "blank-and-early": {
                "duration_sec": 10,
                "narration_pass_1": {"narrations": [
                    {"narration_text": "   ", "timestamp_sec": 1},
                    {"narration_text": "C starts.", "timestamp_sec": -0.5},
                ]},
            },
            "late-narration": {
                "duration_sec": 10,
                "narration_pass_1": {"narrations": [
                    {"narration_text": "C waits.", "timestamp_sec": 99},
                ]},
            },
        }))
        out = str(tmp_path / "n.jsonl")
        with caplog.at_level(logging.WARNING):
            assert cli.main(["ingest", str(bad), "--out", out]) == 0
        text = caplog.text
        assert "bad_duration" in text
        assert "timestamp_after_end" in text
        assert "no_usable_narrations" in text
        assert "ingest reject clip listed: not_an_object" in text
        assert "ingest reject narration in blank-and-early: empty_text" in text
        assert "ingest reject narration in blank-and-early: negative_timestamp (-0.5)" in text
        rows = _read(out).decode().splitlines()
        assert len(rows) == 2  # meta + the one good clip

    def test_nonfinite_numbers_reject_only_their_narration_or_clip(self, tmp_path, caplog):
        def clip(duration, *times):
            return {"duration_sec": duration, "narration_pass_1": {"narrations": [
                {"narration_text": f"C steps {i}.", "timestamp_sec": t}
                for i, t in enumerate(times)]}}

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({  # json.dumps writes NaN and Infinity
            "nan-time": clip(60.0, 1.0, float("nan")),
            "inf-time": clip(60.0, 2.0, float("inf"), 3.0),
            "inf-duration": clip(float("inf"), 1.0),
            "nan-duration": clip(float("nan"), 1.0),
        }))
        out = str(tmp_path / "n.jsonl")
        with caplog.at_level(logging.WARNING):
            assert cli.main(["ingest", str(bad), "--out", out]) == 0
        rejects = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert sorted(rejects) == [
            "ingest reject clip inf-duration: bad_duration (inf)",
            "ingest reject clip nan-duration: bad_duration (nan)",
            "ingest reject narration in inf-time: bad_timestamp",
            "ingest reject narration in nan-time: bad_timestamp",
        ]
        rows = [json.loads(l) for l in _read(out).decode().splitlines()[1:]]
        assert {r["clip_uid"]: [n["t_s"] for n in r["narrations"]] for r in rows} == {
            "inf-time": [2.0, 3.0], "nan-time": [1.0],
        }

    def test_missing_input_exits_2(self, tmp_path):
        out = str(tmp_path / "n.jsonl")
        assert cli.main(["ingest", "/nonexistent.json", "--out", out]) == 2

    def test_malformed_passes_and_items_rejected_with_codes(self, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "ok": {
                "duration_sec": 10,
                "narration_pass_1": {"narrations": [
                    {"narration_text": "C works.", "timestamp_sec": 1},
                    "C rests.",
                ]},
            },
            "pass-is-list": {
                "duration_sec": 10,
                "narration_pass_1": [{"narration_text": "C waits.", "timestamp_sec": 2}],
            },
        }))
        out = str(tmp_path / "n.jsonl")
        with caplog.at_level(logging.WARNING):
            assert cli.main(["ingest", str(bad), "--out", out]) == 0
        assert "reject narration in ok: not_an_object" in caplog.text
        assert "reject clip pass-is-list: bad_narration_pass" in caplog.text
        rows = [json.loads(l) for l in _read(out).decode().splitlines()[1:]]
        assert [r["clip_uid"] for r in rows] == ["ok"]
        assert len(rows[0]["narrations"]) == 1

    def test_null_pass_or_narrations_hold_no_narrations(self, tmp_path):
        waits = {"narrations": [{"narration_text": "C waits.", "timestamp_sec": 1}]}
        export = tmp_path / "export.json"
        export.write_text(json.dumps({
            "absent": {"duration_sec": 10, "narration_pass_2": waits},
            "null-pass": {"duration_sec": 10, "narration_pass_1": None,
                          "narration_pass_2": waits},
            "null-narrations": {"duration_sec": 10, "narration_pass_1": {"narrations": None},
                                "narration_pass_2": waits},
            "no-narrations-key": {"duration_sec": 10, "narration_pass_1": {},
                                  "narration_pass_2": waits},
        }))
        out = str(tmp_path / "n.jsonl")
        assert cli.main(["ingest", str(export), "--out", out]) == 0
        rows = [json.loads(l) for l in _read(out).decode().splitlines()[1:]]
        assert sorted(r["clip_uid"] for r in rows) == [
            "absent", "no-narrations-key", "null-narrations", "null-pass"]
        assert all(len(r["narrations"]) == 1 for r in rows)

    def test_empty_track_rejected_with_code(self, tmp_path, caplog):
        narrations = _narrations_file(tmp_path, ("a", [1.0, 3.0]), ("b", []))
        out = tmp_path / "out.jsonl"
        with caplog.at_level(logging.WARNING):
            assert cli.main(["ingest", narrations, "--out", str(out)]) == 0
        assert "ingest reject clip b: no_narrations" in caplog.text
        rows = [json.loads(l) for l in _read(out).decode().splitlines()[1:]]
        assert [r["clip_uid"] for r in rows] == ["a"]

    def test_headerless_track_jsonl_ingests(self, tmp_path):
        with_header = _ingest(tmp_path)
        lines = _read(with_header).decode().splitlines(keepends=True)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text("".join(lines[1:]))
        out = str(tmp_path / "again.jsonl")
        assert cli.main(["ingest", str(headerless), "--out", out]) == 0
        assert _read(out) == _read(with_header)


class TestSynthesize:
    def _synthesize(self, tmp_path, narrations, out_name="qa.jsonl", *extra):
        out = str(tmp_path / out_name)
        code = cli.main([
            "synthesize", narrations, "--out", out,
            "--mock", MOCK, "--seed", "7", "--split", "test", *extra,
        ])
        return code, out

    def test_reproduces_golden_bytes(self, tmp_path):
        narrations = _ingest(tmp_path)
        code, out = self._synthesize(tmp_path, narrations)
        assert code == 0
        assert _read(out) == _read(os.path.join(DATA_DIR, "golden_qa.jsonl"))
        assert _read(out + ".records.jsonl") == _read(
            os.path.join(DATA_DIR, "golden_records.jsonl")
        )
        assert _read(out + ".stats.json") == _read(
            os.path.join(DATA_DIR, "golden_stats.json")
        )

    def test_timestamps_within_tolerance_are_clamped_into_the_clip(self, tmp_path):
        # Validation accepts a timestamp within TIME_EPS outside [0, duration];
        # the windows must take it too, clamped, not fail mid-run.
        narrations = _ingest(tmp_path)
        lines = _read(narrations).decode().splitlines(keepends=True)
        rows = {json.loads(line).get("clip_uid"): i for i, line in enumerate(lines)}
        for uid, index, nudge in (("clip-a", 0, -5e-7), ("clip-b", -1, 30.0 + 5e-7)):
            row = json.loads(lines[rows[uid]])
            row["narrations"][index]["t_s"] = nudge
            lines[rows[uid]] = json.dumps(row) + "\n"
        with open(narrations, "w", encoding="utf-8") as f:
            f.writelines(lines)
        code, out = self._synthesize(tmp_path, narrations)
        assert code == 0
        windows = {}
        for line in _read(out).decode().splitlines()[1:]:
            row = json.loads(line)
            windows.setdefault(row["clip_uid"], []).append(row["window"])
        assert windows["clip-a"][0][0] == 0.0
        assert windows["clip-b"][-1][1] == 30.0

    def test_empty_track_exits_2_before_any_request(self, tmp_path):
        # The mock answers no prompt, so a single request would exit 3.
        narrations = _narrations_file(tmp_path, ("a", [1.0, 3.0]), ("b", []))
        mock = _text_file(tmp_path, "mock.json", "{}")
        code = cli.main(["synthesize", narrations, "--out", str(tmp_path / "qa.jsonl"),
                         "--mock", mock])
        assert code == 2
        assert sorted(os.listdir(tmp_path)) == ["mock.json", "narrations.jsonl"]

    def test_mock_output_ignores_base_url(self, tmp_path, monkeypatch):
        narrations = _ingest(tmp_path)
        _, plain = self._synthesize(tmp_path, narrations, "plain.jsonl")
        monkeypatch.setenv("EGOQA_BASE_URL", "http://example.invalid")
        code, with_env = self._synthesize(tmp_path, narrations, "with-env.jsonl")
        assert code == 0
        for suffix in ("", ".records.jsonl", ".stats.json"):
            assert _read(with_env + suffix) == _read(plain + suffix)

    def test_no_distractors_flag(self, tmp_path):
        narrations = _ingest(tmp_path)
        code, out = self._synthesize(
            tmp_path, narrations, "bare.jsonl", "--no-distractors"
        )
        assert code == 0
        rows = [json.loads(l) for l in _read(out).decode().splitlines()[1:]]
        assert rows and all("wrong_answers" not in r for r in rows)

    def test_distractor_without_text_after_normalization_is_a_constraint_violation(
        self, tmp_path
    ):
        from egoqa.endpoint import prompt_digest
        from egoqa.prompts import load_template, render_closeqa_prompt

        closeqa = render_closeqa_prompt("What did I hold?", "a cup", load_template("closeqa_llama"))
        mock = _text_file(tmp_path, "mock.json", json.dumps({
            "*": '{"Q": "What did I hold?", "A": "a cup"}',
            prompt_digest(closeqa): '["?!", "a pan", "a lid"]',
        }))
        narrations = _narrations_file(tmp_path, ("c", [1.0, 3.0]))
        out = str(tmp_path / "qa.jsonl")
        assert cli.main(["synthesize", narrations, "--out", out, "--mock", mock]) == 0
        records = [json.loads(l) for l in _read(out + ".records.jsonl").decode().splitlines()[1:]]
        assert [(r["kind"], r["parse_status"], r.get("reason")) for r in records] == [
            ("openqa", "ok", None), ("closeqa", "constraint_violation", "empty distractor")]
        (sample,) = [json.loads(l) for l in _read(out).decode().splitlines()[1:]]
        assert sample["answer"] == "a cup" and "wrong_answers" not in sample

    def test_empty_corpus_exits_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _ = self._synthesize(tmp_path, str(empty))
        assert code == 2

    @pytest.mark.parametrize("mock, exit_code", [
        ('{"*": "no json here"}', 0),  # every completion unparseable: no sample
        ("{}", 3),                     # the first request fails for good
    ], ids=["exit-0", "exit-3"])
    def test_run_without_samples_leaves_no_stale_stats(self, tmp_path, mock, exit_code):
        narrations = _ingest(tmp_path)
        code, out = self._synthesize(tmp_path, narrations)
        assert code == 0 and os.path.exists(out + ".stats.json")
        code = cli.main(["synthesize", narrations, "--out", out, "--seed", "7",
                         "--mock", _text_file(tmp_path, "mock.json", mock)])
        assert code == exit_code
        assert len(_read(out).splitlines()) == 1  # the header alone
        assert not os.path.exists(out + ".stats.json")

    def test_stale_stats_that_cannot_be_removed_exits_2(self, tmp_path, monkeypatch, caplog):
        narrations = _ingest(tmp_path)
        code, out = self._synthesize(tmp_path, narrations)
        stats = out + ".stats.json"
        assert code == 0 and os.path.exists(stats)
        remove = os.remove

        def refuse(path):
            # Root ignores permission bits, so the refusal is patched in.
            if path == stats:
                raise PermissionError(13, "Permission denied", path)
            remove(path)

        monkeypatch.setattr(os, "remove", refuse)
        with caplog.at_level(logging.ERROR):
            code = cli.main(["synthesize", narrations, "--out", out, "--seed", "7",
                             "--mock", _text_file(tmp_path, "mock.json", '{"*": "no json here"}')])
        assert code == 2
        assert f"invalid input: {stats}: cannot remove output: Permission denied" in caplog.text
        assert len(_read(out).splitlines()) == 1  # the header alone
        assert os.path.exists(stats)

    @staticmethod
    def _dying_mock(tmp_path):
        """A fixture covering only clip-a chunk 0's openqa prompt."""
        full = json.loads(_read(MOCK))
        keep = next(
            k for k, v in full.items()
            if isinstance(v, str) and "Where did I put the bowl?" in v
        )
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({keep: full[keep]}))
        return str(path)

    def test_endpoint_death_exits_3_with_partial_output(self, tmp_path):
        narrations = _ingest(tmp_path)
        out = str(tmp_path / "qa.jsonl")
        code = cli.main([
            "synthesize", narrations, "--out", out,
            "--mock", self._dying_mock(tmp_path), "--seed", "7", "--split", "test",
        ])
        assert code == 3
        # payload persisted before the abort: records for the finished chunk
        recs = [json.loads(l)
                for l in _read(out + ".records.jsonl").decode().splitlines()[1:]]
        assert any(r["parse_status"] == "ok" for r in recs)

    def test_endpoint_death_partial_output_same_at_any_parallelism(self, tmp_path):
        narrations = _ingest(tmp_path)
        mock = self._dying_mock(tmp_path)
        outputs = set()
        for par in (1, 4):
            out = str(tmp_path / f"qa-{par}.jsonl")
            code = cli.main([
                "synthesize", narrations, "--out", out, "--mock", mock,
                "--seed", "7", "--split", "test", "--parallelism", str(par),
            ])
            assert code == 3
            outputs.add(tuple(
                _read(out + suffix) for suffix in ("", ".records.jsonl", ".stats.json")
            ))
        assert len(outputs) == 1

    def test_no_endpoint_configured_exits_2(self, tmp_path):
        narrations = _ingest(tmp_path)
        out = str(tmp_path / "qa.jsonl")
        assert cli.main(["synthesize", narrations, "--out", out]) == 2

    def test_unreachable_endpoint_exits_3(self, tmp_path):
        narrations = _ingest(tmp_path)
        out = str(tmp_path / "qa.jsonl")
        code = cli.main([
            "synthesize", narrations, "--out", out,
            "--base-url", "http://127.0.0.1:9", "--max-retries", "0",
            "--timeout", "0.2",
        ])
        assert code == 3


class TestFilterBlind:
    def test_reproduces_golden_report(self, tmp_path):
        out = str(tmp_path / "kept.jsonl")
        report = str(tmp_path / "report.json")
        code = cli.main([
            "filter-blind", FILTER_INPUT, "--out", out,
            "--report", report, "--seed", "11",
        ])
        assert code == 0
        assert _read(report) == _read(
            os.path.join(DATA_DIR, "golden_filter_report.json")
        )
        kept = [json.loads(l) for l in _read(out).decode().splitlines()[1:]]
        assert len(kept) == 2
        assert all(r["answer"] != "yes" for r in kept)

    @pytest.mark.parametrize("extra", [[], ["--no-reshuffle"]], ids=["reshuffle", "no-reshuffle"])
    def test_report_counts_agree_with_rows_and_outcomes(self, tmp_path, extra):
        out = str(tmp_path / "kept.jsonl")
        report = str(tmp_path / "report.json")
        assert cli.main([
            "filter-blind", FILTER_INPUT, "--out", out, "--report", report, "--seed", "11",
            *extra,
        ]) == 0
        doc = json.loads(_read(report))
        rows = doc["rows"]
        assert doc["total"] == doc["kept"] + doc["removed"] == len(rows)
        assert doc["kept"] == len(_read(out).decode().splitlines()[1:])
        assert all(row["removed"] == all(row["outcomes"]) for row in rows)
        assert doc["removed"] == sum(row["removed"] for row in rows) > 0

    def test_kept_rows_byte_identical_to_input_rows(self, tmp_path):
        out = str(tmp_path / "kept.jsonl")
        cli.main(["filter-blind", FILTER_INPUT, "--out", out, "--seed", "11"])
        input_lines = set(_read(FILTER_INPUT).decode().splitlines())
        for line in _read(out).decode().splitlines()[1:]:
            assert line in input_lines

    def test_explicit_seeds_accepted(self, tmp_path):
        out = str(tmp_path / "kept.jsonl")
        seeds = ",".join(str(s) for s in range(10))
        assert cli.main(["filter-blind", FILTER_INPUT, "--out", out, "--seeds", seeds]) == 0

    def test_wrong_seed_count_exits_2(self, tmp_path):
        out = str(tmp_path / "kept.jsonl")
        assert cli.main(["filter-blind", FILTER_INPUT, "--out", out, "--seeds", "1,2,3"]) == 2

    def test_missing_distractors_exits_2_without_leftovers(self, tmp_path):
        bare = tmp_path / "bare.jsonl"
        bare.write_text(json.dumps({
            "clip_uid": "c", "question": "Did I wave?", "answer": "yes",
            "window": [0.0, 1.0], "split": "test", "source": "synthesized",
        }) + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = str(out_dir / "kept.jsonl")
        assert cli.main(["filter-blind", str(bare), "--out", out, "--seed", "11"]) == 2
        assert os.listdir(out_dir) == []

    def test_uniform_answerer_reproduces_golden_report(self, tmp_path):
        # Every uniform pick is a seeded draw: the golden pins the choice
        # orders and draws that the trial seeds derive.
        out = str(tmp_path / "kept.jsonl")
        report = str(tmp_path / "report.json")
        code = cli.main([
            "filter-blind", FILTER_INPUT, "--out", out,
            "--report", report, "--seed", "11", "--answerer", "uniform",
        ])
        assert code == 0
        assert _read(report) == _read(
            os.path.join(DATA_DIR, "golden_filter_report_uniform.json")
        )

    def test_tied_frequency_prior_reproduces_golden_report(self, tmp_path):
        # None of golden_qa.jsonl's answers is a choice in the input, so every
        # trial is a seeded 4-way tie-break: the golden pins the prior's
        # ordered trial loop, which a unique favourite skips.
        out = str(tmp_path / "kept.jsonl")
        report = str(tmp_path / "report.json")
        code = cli.main([
            "filter-blind", FILTER_INPUT, "--out", out, "--report", report,
            "--seed", "11", "--train", os.path.join(DATA_DIR, "golden_qa.jsonl"),
        ])
        assert code == 0
        assert _read(report) == _read(
            os.path.join(DATA_DIR, "golden_filter_report_tied.json")
        )

    @pytest.mark.parametrize("spelling", ["dot-relative", "absolute", "symlink"])
    def test_train_naming_the_input_reads_it_once(self, tmp_path, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "qa.jsonl").write_bytes(_read(FILTER_INPUT))
        train = {
            "dot-relative": "./qa.jsonl",
            "absolute": str(tmp_path / "qa.jsonl"),
            "symlink": "link.jsonl",
        }[spelling]
        if spelling == "symlink":
            os.symlink("qa.jsonl", "link.jsonl")
        assert cli.main(["filter-blind", "qa.jsonl", "--out", "plain.jsonl", "--seed", "11"]) == 0
        reads = []
        read_jsonl = jsonl_io.read_jsonl
        monkeypatch.setattr(
            jsonl_io, "read_jsonl", lambda path: reads.append(path) or read_jsonl(path)
        )
        assert cli.main([
            "filter-blind", "qa.jsonl", "--out", "trained.jsonl", "--seed", "11",
            "--train", train,
        ]) == 0
        assert reads == ["qa.jsonl"]
        assert _read("trained.jsonl.report.json") == _read("plain.jsonl.report.json")
        assert _read("trained.jsonl") == _read("plain.jsonl")

    def test_uniform_answerer_accepted(self, tmp_path):
        out = str(tmp_path / "kept.jsonl")
        code = cli.main([
            "filter-blind", FILTER_INPUT, "--out", out,
            "--seed", "3", "--answerer", "uniform",
        ])
        assert code == 0


class TestDecodeEval:
    def test_decode_reproduces_golden_bytes(self, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        assert cli.main(["decode", HEADS, "--out", preds]) == 0
        assert _read(preds) == _read(GOLDEN_PREDS)

    @pytest.mark.parametrize("task, predictions", [
        ("vlg", [GOLDEN_PREDS]), ("openqa", ANSWERS[:1]), ("closeqa", ANSWERS),
    ])
    def test_eval_reproduces_golden_report(self, task, predictions, tmp_path):
        report = str(tmp_path / "report.json")
        code = cli.main([
            "eval", *predictions, "--gt", GT_VLG, "--task", task, "--out", report,
        ])
        assert code == 0
        assert _read(report) == _read(os.path.join(DATA_DIR, f"golden_report_{task}.json"))

    def test_decode_then_vlg_eval(self, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        assert cli.main(["decode", HEADS, "--out", preds]) == 0
        report = str(tmp_path / "report.json")
        code = cli.main([
            "eval", preds, "--gt", GT_VLG, "--task", "vlg", "--out", report,
        ])
        assert code == 0
        doc = json.loads(_read(report))
        metrics = doc["metrics"]
        assert metrics["recall@1_iou0.3"]["value"] == 1.0
        assert metrics["recall@1_iou0.5"]["value"] == 0.5
        assert metrics["recall@5_iou0.3"]["value"] == 1.0
        assert metrics["recall@5_iou0.5"]["value"] == 0.5
        assert metrics["mean_recall@1"]["value"] == 0.75
        assert metrics["mean_recall@1"]["percent"] == "75.0"

    def test_self_evaluation_scores_100(self, tmp_path):
        # predictions copied from ground truth must score 100.0 everywhere
        preds = str(tmp_path / "self.jsonl")
        rows = []
        per_clip: dict[str, int] = {}
        for line in _read(GT_VLG).decode().splitlines():
            row = json.loads(line)
            k = per_clip.get(row["clip_uid"], 0)
            per_clip[row["clip_uid"]] = k + 1
            rows.append(json.dumps({
                "clip_uid": row["clip_uid"],
                "query_id": f"{row['clip_uid']}::{k}",
                "windows": [[row["window"][0], row["window"][1], 1.0]],
                "answer_text": row["answer"],
            }))
        with open(preds, "w") as f:
            f.write("\n".join(rows) + "\n")
        report = str(tmp_path / "report.json")
        assert cli.main(["eval", preds, "--gt", GT_VLG, "--task", "vlg", "--out", report]) == 0
        doc = json.loads(_read(report))
        assert all(m["percent"] == "100.0" for m in doc["metrics"].values())

    def test_decode_overflowing_bounds_exit_0_under_runtime_warnings_as_errors(self, tmp_path):
        # (t + 1e308) * 500 overflows; the bound clamps to the clip, silently
        heads = tmp_path / "heads.jsonl"
        heads.write_text('{"clip_uid":"c","query_id":"c::0","duration_s":1000,'
                         '"scores":[0.9,0.8],"offsets":[[1e308,1e308],[1e308,1e308]]}\n')
        preds = tmp_path / "preds.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "egoqa.cli",
             "decode", str(heads), "--out", str(preds)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr
        assert json.loads(preds.read_text().splitlines()[1])["windows"] == [[0.0, 1000.0, 0.9]]

    def test_decode_malformed_row_exits_2_with_line(self, tmp_path, caplog):
        bad = tmp_path / "heads.jsonl"
        bad.write_text(
            '{"clip_uid":"c","query_id":"c::0","duration_s":10.0,'
            '"scores":[0.5],"offsets":[[0.0,1.0]]}\n'
            '{"clip_uid":"c","query_id":"c::1","duration_s":10.0,'
            '"scores":[1.5],"offsets":[[0.0,1.0]]}\n'
        )
        out = str(tmp_path / "preds.jsonl")
        with caplog.at_level(logging.ERROR):
            assert cli.main(["decode", str(bad), "--out", out]) == 2
        assert ":2" in caplog.text

    def test_eval_missing_query_exits_2(self, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        with open(preds, "w") as f:
            f.write('{"clip_uid":"clip-d","query_id":"clip-d::0","windows":[[4.0,10.0,1.0]]}\n')
        assert cli.main(["eval", preds, "--gt", GT_VLG, "--task", "vlg"]) == 2

    def test_duplicate_query_id_exits_2_with_line(self, tmp_path, caplog):
        # the correct prediction for clip-d::0 first, then a wrong duplicate
        preds = tmp_path / "preds.jsonl"
        lines = []
        per_clip: dict[str, int] = {}
        for line in _read(GT_VLG).decode().splitlines():
            row = json.loads(line)
            k = per_clip.get(row["clip_uid"], 0)
            per_clip[row["clip_uid"]] = k + 1
            lines.append(json.dumps({
                "clip_uid": row["clip_uid"], "query_id": f"{row['clip_uid']}::{k}",
                "windows": [[row["window"][0], row["window"][1], 1.0]],
            }))
        first = json.loads(lines[0])
        lines.append(json.dumps({**first, "windows": [[0.0, 0.1, 1.0]]}))
        preds.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.json"
        with caplog.at_level(logging.ERROR):
            code = cli.main([
                "eval", str(preds), "--gt", GT_VLG, "--task", "vlg", "--out", str(report),
            ])
        assert code == 2
        assert f"preds.jsonl:{len(lines)}: duplicate query_id" in caplog.text
        assert not report.exists()

    def test_closeqa_requires_five_prediction_files(self, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        with open(preds, "w") as f:
            f.write('{"clip_uid":"clip-d","query_id":"clip-d::0","windows":[]}\n')
        assert cli.main(["eval", preds, "--gt", GT_VLG, "--task", "closeqa"]) == 2

    def test_closeqa_accuracy_report(self, tmp_path):
        # five runs at {0.4, 0.4, 0.4, 0.4, 0.9} accuracy over 10 questions
        gt = tmp_path / "gt.jsonl"
        with open(gt, "w") as f:
            for i in range(10):
                f.write(json.dumps({
                    "clip_uid": "c", "question": f"Q{i}?", "answer": "yes",
                    "window": [0.0, 1.0], "split": "test", "source": "synthesized",
                }) + "\n")
        run_paths = []
        for r, n_correct in enumerate([4, 4, 4, 4, 9]):
            path = tmp_path / f"run{r}.jsonl"
            with open(path, "w") as f:
                for i in range(10):
                    answer = "yes" if i < n_correct else "no"
                    f.write(json.dumps({
                        "clip_uid": "c", "query_id": f"c::{i}",
                        "windows": [], "answer_text": answer,
                    }) + "\n")
            run_paths.append(str(path))
        report = str(tmp_path / "report.json")
        code = cli.main([
            "eval", *run_paths, "--gt", str(gt), "--task", "closeqa", "--out", report,
        ])
        assert code == 0
        doc = json.loads(_read(report))
        assert doc["metrics"]["accuracy"]["percent"] == "50.0±22.4"

    def test_openqa_eval_offline(self, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        rows = []
        per_clip: dict[str, int] = {}
        for line in _read(GT_VLG).decode().splitlines():
            row = json.loads(line)
            k = per_clip.get(row["clip_uid"], 0)
            per_clip[row["clip_uid"]] = k + 1
            rows.append(json.dumps({
                "clip_uid": row["clip_uid"],
                "query_id": f"{row['clip_uid']}::{k}",
                "windows": [],
                "answer_text": row["answer"],
            }))
        with open(preds, "w") as f:
            f.write("\n".join(rows) + "\n")
        report = str(tmp_path / "report.json")
        assert cli.main(["eval", preds, "--gt", GT_VLG, "--task", "openqa", "--out", report]) == 0
        doc = json.loads(_read(report))
        assert doc["metadata"]["embedder"] == "offline-sim"
        assert doc["metrics"]["rouge_l"]["value"] == 1.0
        assert doc["metrics"]["meteor"]["value"] > 0.9


class TestStats:
    def test_stats_and_tsv(self, tmp_path):
        out = str(tmp_path / "stats.json")
        tsv_dir = str(tmp_path / "tsv")
        code = cli.main([
            "stats", os.path.join(DATA_DIR, "golden_qa.jsonl"),
            "--out", out, "--tsv-dir", tsv_dir,
        ])
        assert code == 0
        doc = json.loads(_read(out))
        assert doc["sample_count"] == 4
        assert doc["question_words_mean"] == 6.25
        tsv = _read(os.path.join(tsv_dir, "question_words.tsv")).decode()
        lines = [l.split("\t") for l in tsv.strip().splitlines()]
        assert sum(int(c) for _, c in lines) == 4
        assert os.path.exists(os.path.join(tsv_dir, "window_duration_s.tsv"))

    def _stats(self, tmp_path, rows, *extra):
        """Run stats over qa rows (no distractors unless given); return the
        document and the TSV directory."""
        base = {"clip_uid": "c", "question": "What did I open?", "answer": "the door",
                "window": [0.0, 1.0], "split": "test", "source": "synthesized"}
        qa = _text_file(tmp_path, "qa.jsonl",
                        "".join(json.dumps({**base, **row}) + "\n" for row in rows))
        out, tsv_dir = str(tmp_path / "stats.json"), str(tmp_path / "tsv")
        assert cli.main(["stats", qa, "--out", out, "--tsv-dir", tsv_dir, *extra]) == 0
        return json.loads(_read(out)), tsv_dir

    def test_tsv_bins_sort_numerically_json_keys_canonically(self, tmp_path):
        rows = [{"window": [0.0, 10.5]}, {"window": [0.0, 2.5]}, {"window": [0.0, 1.5]}]
        _, tsv_dir = self._stats(tmp_path, rows)
        tsv = _read(os.path.join(tsv_dir, "window_duration_s.tsv")).decode()
        assert tsv == "1\t1\n2\t1\n10\t1\n"
        assert b'"window_duration_s":{"1":1,"10":1,"2":1}' in _read(tmp_path / "stats.json")

    def test_no_distractors_leaves_distractor_stats_empty(self, tmp_path):
        doc, tsv_dir = self._stats(tmp_path, [{}, {"answer": "the fridge"}])
        assert "distractor_words_mean" not in doc
        assert doc["histograms"]["distractor_words"] == {}
        assert _read(os.path.join(tsv_dir, "distractor_words.tsv")) == b"\n"

    def test_distractor_mean_from_histogram(self, tmp_path):
        doc, _ = self._stats(tmp_path, [{"wrong_answers": ["a cup", "the red pan", "no"]}])
        assert doc["distractor_words_mean"] == 2.0
        assert doc["histograms"]["distractor_words"] == {"1": 1, "2": 1, "3": 1}

    def test_answers_merge_after_normalization(self, tmp_path):
        doc, _ = self._stats(tmp_path, [{"answer": "the fridge"}, {"answer": "The  Fridge."}])
        assert doc["top_answers"] == [["the fridge", 2]]
        assert doc["histograms"]["answer_words"] == {"2": 2}

    def test_top_answers_rank_by_count_then_text_capped_at_30(self, tmp_path):
        answers = [f"answer {i:02d}" for i in range(30, -1, -1)] + ["answer 17"]
        doc, _ = self._stats(tmp_path, [{"answer": a} for a in answers])
        expected = [["answer 17", 2]] + [
            [f"answer {i:02d}", 1] for i in range(31) if i != 17
        ][:29]
        assert doc["top_answers"] == expected
        assert doc["sample_count"] == 32

    def test_clip_count_counts_distinct_clips(self, tmp_path):
        doc, _ = self._stats(tmp_path, [{"clip_uid": u} for u in ("a", "b", "a")])
        assert (doc["clip_count"], doc["sample_count"]) == (2, 3)

    def test_narration_density_only_with_narrations(self, tmp_path):
        doc, _ = self._stats(tmp_path, [{}])
        assert "narration_per_minute" not in doc
        track = _track_file(tmp_path, duration_s=120.0, narrations=[
            {"text": f"C waits {i}.", "t_s": float(i)} for i in range(3)])
        doc, _ = self._stats(tmp_path, [{}], "--narrations", track)
        assert doc["narration_per_minute"] == 1.5

    def test_empty_input_exits_2(self, tmp_path):
        empty = tmp_path / "qa.jsonl"
        empty.write_text("")
        assert cli.main(["stats", str(empty)]) == 2

    def test_tsv_dir_at_or_below_a_named_file_exits_2_before_anything_is_made(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "qa.jsonl").write_bytes(_read(FILTER_INPUT))
        monkeypatch.chdir(tmp_path)
        for tsv_dir in ("s.json", os.path.join("s.json", "plots"), "qa.jsonl"):
            assert cli.main(["stats", "qa.jsonl", "--out", "s.json", "--tsv-dir", tsv_dir]) == 2
            assert os.listdir(".") == ["qa.jsonl"]
            assert _read("qa.jsonl") == _read(FILTER_INPUT)
        # A new TSV directory, nested or not, is still made.
        tsv_dir = os.path.join("plots", "by", "kind")
        assert cli.main(["stats", "qa.jsonl", "--out", "s.json", "--tsv-dir", tsv_dir]) == 0
        assert os.path.isfile(os.path.join(tsv_dir, "question_words.tsv"))


class TestConfigPrecedence:
    def _base_url(self, tmp_path, config, *flags):
        """The base_url _settle gives a synthesize run under this config file."""
        path = _text_file(tmp_path, "config.json", json.dumps(config))
        args = cli.build_parser().parse_args(
            ["--config", path, "synthesize", "n.jsonl", "--out", "qa.jsonl", *flags]
        )
        cli._settle(args)
        return args.base_url

    def test_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        config = {"base_url": "http://from-config"}
        assert self._base_url(tmp_path, {}) == ""
        assert self._base_url(tmp_path, config) == "http://from-config"
        monkeypatch.setenv("EGOQA_BASE_URL", "http://from-env")
        assert self._base_url(tmp_path, config) == "http://from-env"
        flag = ("--base-url", "http://from-flag")
        assert self._base_url(tmp_path, config, *flag) == "http://from-flag"

    def test_empty_env_var_falls_through(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EGOQA_BASE_URL", "")
        assert self._base_url(tmp_path, {"base_url": "http://from-config"}) == "http://from-config"

    def test_top_k_flag_beats_config_beats_default(self, tmp_path):
        config = _text_file(tmp_path, "config.json", '{"top_k": 1}')
        out = str(tmp_path / "preds.jsonl")

        def decoded(*argv):
            assert cli.main([*argv, "--out", out]) == 0
            return _read(out)

        top_1 = decoded("decode", HEADS, "--top-k", "1")
        top_2 = decoded("decode", HEADS, "--top-k", "2")
        assert top_1 != top_2
        assert decoded("--config", config, "decode", HEADS, "--top-k", "2") == top_2
        assert decoded("--config", config, "decode", HEADS) == top_1
        assert decoded("decode", HEADS) == decoded("decode", HEADS, "--top-k", "5")

    def test_settings_table_matches_flags(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = [a for p in sub.choices.values() for a in p._actions if a.dest in cli.DEFAULTS]
        assert {a.dest for a in flags} == set(cli.DEFAULTS)
        for a in flags:
            assert a.option_strings and a.default is None, a.dest
            assert a.type is type(cli.DEFAULTS[a.dest]), a.dest
            assert a.choices == cli.CHOICES.get(a.dest), a.dest
        assert all(cli.DEFAULTS[name] in choices for name, choices in cli.CHOICES.items())

    def test_readme_settings_table_matches_defaults(self):
        """Each row of the README's settings table names a setting, its flag,
        JSON type, default and allowed values (as JSON literals) as cli.DEFAULTS,
        cli.CHOICES and build_parser() have them."""
        with open(README, encoding="utf-8") as f:
            lines = f.read().splitlines()
        start = lines.index(
            "| setting | flag | JSON type | default | allowed values | read by |"
        ) + 2
        rows = takewhile(lambda l: l.startswith("|"), lines[start:])
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {(a.dest, f) for p in sub.choices.values() for a in p._actions
                 for f in a.option_strings}
        json_types = {"integer": int, "number": float, "string": str}
        names = []
        for row in rows:
            name, flag, kind, default, allowed, _ = (c.strip() for c in row.strip("|").split("|"))
            name = name.strip("`")
            names.append(name)
            assert (name, flag.strip("`")) in flags, row
            assert json_types[kind] is type(cli.DEFAULTS[name]), row
            value = json.loads(default.strip("`"))
            assert type(value) is type(cli.DEFAULTS[name]) and value == cli.DEFAULTS[name], row
            choices = tuple(json.loads(v.strip().strip("`")) for v in allowed.split(",") if v)
            assert choices == cli.CHOICES.get(name, ()), row
        assert sorted(names) == sorted(cli.DEFAULTS)

    def test_each_default_is_the_library_default_it_stands_for(self):
        """bench/gen.py scripts its mock fixture with chunk_track's defaults
        while synthesize chunks with cli.DEFAULTS, so the two must agree."""
        from egoqa.chunking import chunk_track
        from egoqa.endpoint import EndpointConfig
        from egoqa.localization import decode_windows

        def library(fn):
            return {n: p.default for n, p in inspect.signature(fn).parameters.items()}

        config = EndpointConfig()
        stands_for = {
            **{name: library(chunk_track)[name] for name in ("max_sentences", "max_span_s")},
            **{name: library(decode_windows)[name]
               for name in ("score_threshold", "nms_iou", "top_k")},
            **{name: getattr(config, name)
               for name in ("model", "temperature", "max_tokens", "max_retries", "parallelism")},
            "timeout": config.request_timeout_s,
        }
        for name, value in stands_for.items():
            assert (type(cli.DEFAULTS[name]), cli.DEFAULTS[name]) == (type(value), value), name

    def test_config_file_used_by_main(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"narration_pass": "1"}))
        out = str(tmp_path / "n.jsonl")
        assert cli.main(["--config", str(config), "ingest", EXPORT, "--out", out]) == 0
        rows = _read(out).decode().splitlines()
        uids = {json.loads(l)["clip_uid"] for l in rows[1:]}
        assert uids == {"clip-a", "clip-c"}

    def test_unreadable_config_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{broken")
        assert cli.main(["--config", str(config), "ingest", EXPORT, "--out", "x"]) == 2


def _export_file(tmp_path, clip_entry):
    path = tmp_path / "export.json"
    path.write_text(json.dumps({"clip-x": clip_entry}))
    return str(path)


def _text_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _bytes_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _dir(tmp_path, name):
    path = tmp_path / name
    path.mkdir()
    return str(path)


def _narrations_file(tmp_path, *clips):
    """A headerless narrations file with one row per (clip_uid, timestamps)."""
    rows = [{"clip_uid": uid, "duration_s": 10.0,
             "narrations": [{"text": "C waits.", "t_s": t} for t in ts]} for uid, ts in clips]
    return _text_file(tmp_path, "narrations.jsonl", "".join(json.dumps(r) + "\n" for r in rows))


def _head_file(tmp_path, **fields):
    row = {"clip_uid": "c", "query_id": "c::0", "duration_s": 10.0,
           "scores": [0.5, 0.6], "offsets": [[0.0, 1.0], [1.0, 0.0]], **fields}
    return _text_file(tmp_path, "heads.jsonl", json.dumps(row) + "\n")


QA_ROW = _read(FILTER_INPUT).splitlines()[0]
TOO_BIG = 10**400  # a JSON integer no float can hold
DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the decoder's recursion limit


def _qa_file(tmp_path, **fields):
    return _text_file(tmp_path, "qa.jsonl", json.dumps({**json.loads(QA_ROW), **fields}) + "\n")


def _track_file(tmp_path, **fields):
    row = {"clip_uid": "c", "duration_s": 10.0,
           "narrations": [{"text": "C waits.", "t_s": 1.0}], **fields}
    return _text_file(tmp_path, "narrations.jsonl", json.dumps(row) + "\n")


def _pred_file(tmp_path, windows, clip_uid="clip-d"):
    row = {"clip_uid": clip_uid, "query_id": f"{clip_uid}::0", "windows": windows}
    return _text_file(tmp_path, "preds.jsonl", json.dumps(row) + "\n")


# (argv builder, text the error must contain) for malformed inputs
MALFORMED_INPUTS = {
    "ingest-pass-is-list": (
        lambda tmp: ["ingest", _export_file(tmp, {
            "duration_sec": 10,
            "narration_pass_1": [{"narration_text": "C waits.", "timestamp_sec": 1}],
        }), "--out", str(tmp / "n.jsonl")],
        "bad_narration_pass",
    ),
    # A pass that is not an object, or pass narrations that are not a list,
    # reject the clip even when falsy and beside a valid pass.
    **{
        f"ingest-{name}": (
            lambda tmp, bad=bad: ["ingest", _export_file(tmp, {
                "duration_sec": 10, "narration_pass_1": bad,
                "narration_pass_2": {"narrations": [
                    {"narration_text": "C waits.", "timestamp_sec": 1}]},
            }), "--out", str(tmp / "n.jsonl")],
            "bad_narration_pass",
        )
        for name, bad in {
            "pass-is-false": False,
            "pass-is-zero": 0,
            "pass-is-empty-string": "",
            "pass-is-empty-list": [],
            "narrations-is-false": {"narrations": False},
            "narrations-is-zero": {"narrations": 0},
            "narrations-is-empty-string": {"narrations": ""},
        }.items()
    },
    "ingest-narration-is-string": (
        lambda tmp: ["ingest", _export_file(tmp, {
            "duration_sec": 10, "narration_pass_1": {"narrations": ["C waits."]},
        }), "--out", str(tmp / "n.jsonl")],
        "not_an_object",
    ),
    # Both name the narrations file.
    "synthesize-no-clips": (
        lambda tmp: ["synthesize", _text_file(tmp, "narrations.jsonl", ""),
                     "--out", str(tmp / "qa.jsonl"), "--mock", MOCK],
        "narrations.jsonl: no clips",
    ),
    "synthesize-no-interval-data": (
        lambda tmp: ["synthesize", _narrations_file(tmp, ("a", [3.0]), ("b", [4.0, 4.0])),
                     "--out", str(tmp / "qa.jsonl"), "--mock", MOCK],
        "narrations.jsonl: no clip has >= 2 narrations with a positive mean interval",
    ),
    "synthesize-mock-missing": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", str(tmp / "absent.json")],
        "mock fixture",
    ),
    "synthesize-mock-not-json": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", _text_file(tmp, "mock.json", "{broken")],
        "mock fixture",
    ),
    # A fixture value must be a string or a non-empty list of strings.
    "synthesize-mock-value-is-number": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", _text_file(tmp, "mock.json", '{"*": 5}')],
        "mock fixture entry '*'",
    ),
    "synthesize-mock-value-is-null": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", _text_file(tmp, "mock.json", '{"*": null}')],
        "mock fixture entry '*'",
    ),
    "synthesize-mock-list-of-numbers": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", _text_file(tmp, "mock.json", '{"*": [1, 2]}')],
        "mock fixture entry '*'",
    ),
    "synthesize-mock-value-is-object": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", _text_file(tmp, "mock.json", '{"*": {"a": 1}}')],
        "mock fixture entry '*'",
    ),
    "synthesize-mock-list-holds-a-number": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", _text_file(tmp, "mock.json", '{"*": ["x", 3]}')],
        "mock fixture entry '*'",
    ),
    "synthesize-mock-list-is-empty": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", _text_file(tmp, "mock.json", '{"*": []}')],
        "mock fixture entry '*'",
    ),
    "filter-blind-seed-not-int": (
        lambda tmp: ["filter-blind", FILTER_INPUT, "--out", str(tmp / "kept.jsonl"),
                     "--seeds", "1,x"],
        "--seeds",
    ),
    # An empty --seeds is given, not absent: it is not replaced by derived seeds.
    "filter-blind-seeds-empty": (
        lambda tmp: ["filter-blind", FILTER_INPUT, "--out", str(tmp / "kept.jsonl"),
                     "--seeds", ""],
        "--seeds must be comma-separated integers, got ''",
    ),
    "stats-qa-not-utf8": (
        lambda tmp: ["stats", _bytes_file(tmp, "qa.jsonl", QA_ROW + b"\n\xff\xfe\n"),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:2: not UTF-8",
    ),
    "decode-offsets-are-strings": (
        lambda tmp: ["decode", _head_file(tmp, offsets=["12", "34"]),
                     "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs",
    ),
    "decode-offsets-are-triples": (
        lambda tmp: ["decode", _head_file(tmp, offsets=[[0, 1, 9], [1, 0, 9]]),
                     "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs",
    ),
    "decode-duration-is-nan": (
        lambda tmp: ["decode", _head_file(tmp, duration_s=float("nan")),
                     "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs: duration_s must be finite and > 0",
    ),
    "decode-duration-overflows-float": (
        lambda tmp: ["decode", _head_file(tmp, duration_s=10**400),
                     "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs",
    ),
    "ingest-clip-uid-repeated": (
        lambda tmp: ["ingest", _narrations_file(tmp, ("a", [1.0]), ("b", [1.0]), ("a", [2.0])),
                     "--out", str(tmp / "n.jsonl")],
        "narrations.jsonl:3: duplicate clip_uid 'a'",
    ),
    "ingest-duration-overflows-float": (
        lambda tmp: ["ingest", _export_file(tmp, {
            "duration_sec": TOO_BIG,
            "narration_pass_1": {"narrations": [
                {"narration_text": "C waits.", "timestamp_sec": 1}]},
        }), "--out", str(tmp / "n.jsonl")],
        "bad_duration=1",
    ),
    "ingest-timestamp-overflows-float": (
        lambda tmp: ["ingest", _export_file(tmp, {
            "duration_sec": 10,
            "narration_pass_1": {"narrations": [
                {"narration_text": "C waits.", "timestamp_sec": TOO_BIG}]},
        }), "--out", str(tmp / "n.jsonl")],
        "bad_timestamp=1",
    ),
    "ingest-export-nested-too-deep": (
        lambda tmp: ["ingest", _text_file(tmp, "export.json", '{"clip-x": ' + DEEP + "}"),
                     "--out", str(tmp / "n.jsonl")],
        "export.json: not JSON: maximum recursion depth exceeded",
    ),
    "synthesize-duration-overflows-float": (
        lambda tmp: ["synthesize", _track_file(tmp, duration_s=TOO_BIG),
                     "--out", str(tmp / "qa.jsonl"), "--mock", MOCK],
        "narrations.jsonl:1: bad narration track",
    ),
    "filter-blind-window-overflows-float": (
        lambda tmp: ["filter-blind", _qa_file(tmp, window=[0, TOO_BIG]),
                     "--out", str(tmp / "kept.jsonl")],
        "qa.jsonl:1: bad qa sample",
    ),
    # Every choice of a qa row must keep text after normalization: "" among
    # the distractors, or "?" as the answer beside distractors, breaks the
    # choice-set rule (an empty prediction would match that answer).
    "filter-blind-empty-distractor": (
        lambda tmp: ["filter-blind", _qa_file(tmp, wrong_answers=["in the sink", "", "a lid"]),
                     "--out", str(tmp / "kept.jsonl")],
        "qa.jsonl:1: bad qa sample: empty distractor",
    ),
    "eval-closeqa-answer-without-text": (
        lambda tmp: ["eval", *[_pred_file(tmp, [], clip_uid="clip-a")] * 5,
                     "--gt", _qa_file(tmp, answer="?"), "--task", "closeqa",
                     "--out", str(tmp / "report.json")],
        "qa.jsonl:1: bad qa sample: answer has no text after normalization",
    ),
    # Without distractors the choice-set rule does not apply, yet an empty
    # prediction would still match an answer that has no text.
    "eval-closeqa-answer-without-text-no-distractors": (
        lambda tmp: ["eval", *[_text_file(tmp, "preds.jsonl", "".join(
                         json.dumps({"clip_uid": "clip-a", "query_id": f"clip-a::{k}",
                                     "windows": []}) + "\n" for k in range(2)))] * 5,
                     "--gt", _text_file(tmp, "gt.jsonl", "".join(
                         json.dumps({**json.loads(QA_ROW), "answer": answer,
                                     "wrong_answers": None}) + "\n"
                         for answer in ("?", "on the mat"))),
                     "--task", "closeqa", "--out", str(tmp / "report.json")],
        "ground-truth answer '?' has no text after normalization",
    ),
    "stats-window-overflows-float": (
        lambda tmp: ["stats", _qa_file(tmp, window=[TOO_BIG, 1]),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: bad qa sample",
    ),
    "stats-window-is-object": (
        lambda tmp: ["stats", _qa_file(tmp, window={"start": 0, "end": 1}),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: bad qa sample",
    ),
    "stats-narration-time-overflows-float": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", str(tmp / "stats.json"),
                     "--narrations", _track_file(tmp, narrations=[
                         {"text": "C waits.", "t_s": TOO_BIG}])],
        "narrations.jsonl:1: bad narration track",
    ),
    "stats-track-duration-negative": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", str(tmp / "stats.json"),
                     "--narrations", _track_file(tmp, duration_s=-59.999, narrations=[
                         {"text": "C waits.", "t_s": 1.0}, {"text": " ", "t_s": 2.0}])],
        "narrations.jsonl:1: invalid track 'c': nonpositive_duration",
    ),
    "stats-track-duration-infinite": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", str(tmp / "stats.json"),
                     "--narrations", _track_file(tmp, duration_s=float("inf"))],
        "narrations.jsonl:1: invalid track 'c': nonfinite_duration",
    ),
    "stats-integer-over-digit-limit": (
        lambda tmp: ["stats", _text_file(tmp, "qa.jsonl", '{"clip_uid": ' + "1" * 5000 + "}\n"),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: not JSON",
    ),
    "stats-row-nested-too-deep": (
        lambda tmp: ["stats", _text_file(tmp, "qa.jsonl", DEEP + "\n"),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: not JSON: maximum recursion depth exceeded",
    ),
    "eval-vlg-window-end-overflows-float": (
        lambda tmp: ["eval", _pred_file(tmp, [[4.0, 10.0, 0.9]]),
                     "--gt", _qa_file(tmp, window=[0, TOO_BIG]), "--task", "vlg",
                     "--out", str(tmp / "report.json")],
        "qa.jsonl:1: bad qa sample",
    ),
    "eval-vlg-score-overflows-float": (
        lambda tmp: ["eval", _pred_file(tmp, [[4.0, 10.0, TOO_BIG]]),
                     "--gt", GT_VLG, "--task", "vlg", "--out", str(tmp / "report.json")],
        "preds.jsonl:1: bad prediction set",
    ),
    "eval-vlg-window-is-object": (
        lambda tmp: ["eval", _pred_file(tmp, [{"start": 4.0, "end": 10.0}]),
                     "--gt", GT_VLG, "--task", "vlg", "--out", str(tmp / "report.json")],
        "preds.jsonl:1: bad prediction set",
    ),
    # An object where narrations or windows belong is not an empty array.
    "ingest-track-narrations-is-object": (
        lambda tmp: ["ingest", _text_file(tmp, "narrations.jsonl", "".join(
            json.dumps({"clip_uid": uid, "duration_s": 10.0, "narrations": narrations}) + "\n"
            for uid, narrations in (("a", [{"text": "C waits.", "t_s": 1.0}]), ("b", {})))),
            "--out", str(tmp / "n.jsonl")],
        "narrations.jsonl:2: bad narration track: narrations must be an array, got dict",
    ),
    "eval-vlg-windows-is-object": (
        lambda tmp: ["eval", _pred_file(tmp, {}), "--gt", GT_VLG, "--task", "vlg",
                     "--out", str(tmp / "report.json")],
        "preds.jsonl:1: bad prediction set: windows must be an array, got dict",
    ),
    # Every task's predictions must answer every ground-truth query.
    "eval-vlg-query-missing": (
        lambda tmp: ["eval", _pred_file(tmp, []), "--gt", GT_VLG, "--task", "vlg",
                     "--out", str(tmp / "report.json")],
        "preds.jsonl: no predictions for queries: ['clip-e::0']",
    ),
    "eval-openqa-query-missing": (
        lambda tmp: ["eval", _pred_file(tmp, []), "--gt", GT_VLG, "--task", "openqa",
                     "--out", str(tmp / "report.json")],
        "preds.jsonl: no predictions for queries: ['clip-e::0']",
    ),
    "eval-closeqa-one-file-gt-missing": (
        lambda tmp: ["eval", _pred_file(tmp, []), "--gt", str(tmp / "absent.jsonl"),
                     "--task", "closeqa", "--out", str(tmp / "report.json")],
        "--task closeqa needs exactly 5 prediction file(s), got 1",
    ),
    "config-nested-too-deep": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", DEEP),
                     "stats", FILTER_INPUT, "--out", str(tmp / "stats.json")],
        "config.json: not JSON: maximum recursion depth exceeded",
    ),
    "stats-out-dir-missing": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", str(tmp / "absent" / "stats.json")],
        "absent/stats.json: cannot create output",
    ),
    "decode-out-dir-missing": (
        lambda tmp: ["decode", HEADS, "--out", str(tmp / "absent" / "preds.jsonl")],
        "absent/preds.jsonl: cannot create output",
    ),
    "synthesize-max-span-nan": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", MOCK, "--max-span-s", "nan"],
        "max_span_s must be > 0, got nan",
    ),
    "synthesize-out-dir-missing": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "absent" / "qa.jsonl"),
                     "--mock", MOCK],
        "absent/qa.jsonl.records.jsonl: cannot create output",
    ),
    "stats-out-is-directory": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", _dir(tmp, "stats.json")],
        "stats.json: cannot replace output",
    ),
    "stats-tsv-dir-is-file": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", str(tmp / "stats.json"),
                     "--tsv-dir", _text_file(tmp, "plots", "")],
        "plots: cannot create directory",
    ),
    "decode-top-k-negative": (
        lambda tmp: ["decode", HEADS, "--out", str(tmp / "preds.jsonl"), "--top-k", "-3"],
        "top_k must be >= 0",
    ),
    "decode-score-threshold-nan": (
        lambda tmp: ["decode", HEADS, "--out", str(tmp / "preds.jsonl"),
                     "--score-threshold", "nan"],
        "score_threshold must be finite",
    ),
    "decode-nms-iou-nan": (
        lambda tmp: ["decode", HEADS, "--out", str(tmp / "preds.jsonl"), "--nms-iou", "nan"],
        "nms_iou must be finite",
    ),
    "config-seed-overflows-int-synthesize": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"seed": 1e400}'),
                     "synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", MOCK],
        "seed: cannot read inf as int",
    ),
    "config-seed-infinity-filter-blind": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"seed": Infinity}'),
                     "filter-blind", FILTER_INPUT, "--out", str(tmp / "kept.jsonl")],
        "seed: cannot read inf as int",
    ),
    "config-top-k-overflows-int-decode": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"top_k": -1e400}'),
                     "decode", HEADS, "--out", str(tmp / "preds.jsonl")],
        "top_k: cannot read -inf as int",
    ),
    # The endpoint port is closed: a connection attempt would exit 3.
    "synthesize-timeout-infinite": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://127.0.0.1:9", "--timeout", "inf"],
        "request_timeout_s must be finite and > 0, got inf",
    ),
    "synthesize-timeout-nan": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://127.0.0.1:9", "--timeout", "nan"],
        "request_timeout_s must be finite and > 0, got nan",
    ),
    "synthesize-timeout-zero": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://127.0.0.1:9", "--timeout", "0"],
        "request_timeout_s must be finite and > 0, got 0.0",
    ),
    "synthesize-timeout-negative": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://127.0.0.1:9", "--timeout", "-1"],
        "request_timeout_s must be finite and > 0, got -1.0",
    ),
    "synthesize-temperature-nan": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://127.0.0.1:9", "--temperature", "nan"],
        "temperature must be finite, got nan",
    ),
    "synthesize-max-tokens-zero": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://127.0.0.1:9", "--max-tokens", "0"],
        "max_tokens must be >= 1, got 0",
    ),
    # A config value must name a setting and have its exact JSON type; it is
    # rejected before any input is read, request sent or output staged.
    "config-top-k-is-float": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"top_k": 2.7}'),
                     "decode", HEADS, "--out", str(tmp / "preds.jsonl")],
        "top_k: cannot read 2.7 as int",
    ),
    "config-top-k-is-bool": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"top_k": true}'),
                     "decode", HEADS, "--out", str(tmp / "preds.jsonl")],
        "top_k: cannot read True as int",
    ),
    "config-top-k-is-string": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"top_k": "3"}'),
                     "decode", HEADS, "--out", str(tmp / "preds.jsonl")],
        "top_k: cannot read '3' as int",
    ),
    "config-score-threshold-is-bool": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"score_threshold": false}'),
                     "decode", HEADS, "--out", str(tmp / "preds.jsonl")],
        "score_threshold: cannot read False as float",
    ),
    "config-max-tokens-is-float": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"max_tokens": 128.0}'),
                     "synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", MOCK],
        "max_tokens: cannot read 128.0 as int",
    ),
    "config-narration-pass-is-number": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"narration_pass": 1}'),
                     "ingest", EXPORT, "--out", str(tmp / "n.jsonl")],
        "narration_pass: cannot read 1 as str",
    ),
    "config-key-misspelt": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"topk": 1}'),
                     "decode", HEADS, "--out", str(tmp / "preds.jsonl")],
        "config.json: unknown setting 'topk'",
    ),
    "config-key-is-not-a-setting": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"no_distractors": true}'),
                     "synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", MOCK],
        "config.json: unknown setting 'no_distractors'",
    ),
    # The endpoint port is closed: a connection attempt would exit 3.
    "config-split-not-a-choice": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"split": "bogus"}'),
                     "synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://127.0.0.1:9"],
        "split: 'bogus' is not one of ('train', 'val', 'test')",
    ),
    "config-value-fails-cast": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"parallelism": "x"}'),
                     "synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", MOCK],
        "parallelism",
    ),
    # A mistyped field is rejected, never converted: no number from a string
    # or a bool, no text from a number, no fixed-size array truncated.
    "stats-window-is-string": (
        lambda tmp: ["stats", _qa_file(tmp, window="12"), "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: bad qa sample: window must be an array of 2 items",
    ),
    "stats-wrong-answers-is-string": (
        lambda tmp: ["stats", _qa_file(tmp, wrong_answers="xyz"),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: bad qa sample: wrong_answers must be an array of 3 items",
    ),
    "stats-window-is-triple": (
        lambda tmp: ["stats", _qa_file(tmp, window=[1, 5, 99]),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: bad qa sample: window must be an array of 2 items",
    ),
    "stats-window-holds-strings": (
        lambda tmp: ["stats", _qa_file(tmp, window=["1", "5"]),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: bad qa sample: each window item must be a number, got str",
    ),
    "stats-answer-is-bool": (
        lambda tmp: ["stats", _qa_file(tmp, answer=True), "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: bad qa sample: answer must be a string, got bool",
    ),
    "stats-clip-uid-is-number": (
        lambda tmp: ["stats", _qa_file(tmp, clip_uid=7), "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: bad qa sample: clip_uid must be a string, got int",
    ),
    "stats-narration-time-is-string": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", str(tmp / "stats.json"),
                     "--narrations", _track_file(tmp, narrations=[
                         {"text": "C waits.", "t_s": "1.0"}])],
        "narrations.jsonl:1: bad narration track: t_s must be a number, got str",
    ),
    "stats-track-duration-is-bool": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", str(tmp / "stats.json"),
                     "--narrations", _track_file(tmp, duration_s=True, narrations=[
                         {"text": "C waits.", "t_s": 0.5}])],
        "narrations.jsonl:1: bad narration track: duration_s must be a number, got bool",
    ),
    "eval-vlg-gt-window-is-string": (
        lambda tmp: ["eval", _pred_file(tmp, [[1.0, 2.0, 0.9]], "clip-a"),
                     "--gt", _qa_file(tmp, window="12"), "--task", "vlg",
                     "--out", str(tmp / "report.json")],
        "qa.jsonl:1: bad qa sample: window must be an array of 2 items",
    ),
    "eval-vlg-window-holds-strings": (
        lambda tmp: ["eval", _pred_file(tmp, [["1", "2", "0.5", 9]]),
                     "--gt", _qa_file(tmp, clip_uid="clip-d", window=[1, 2]), "--task", "vlg",
                     "--out", str(tmp / "report.json")],
        "preds.jsonl:1: bad prediction set: prediction window must be an array of 3 items",
    ),
    "eval-vlg-window-is-quadruple": (
        lambda tmp: ["eval", _pred_file(tmp, [[1, 2, 0.5, 9]]),
                     "--gt", _qa_file(tmp, clip_uid="clip-d", window=[1, 2]), "--task", "vlg",
                     "--out", str(tmp / "report.json")],
        "preds.jsonl:1: bad prediction set: prediction window must be an array of 3 items",
    ),
    "eval-vlg-score-is-string": (
        lambda tmp: ["eval", _pred_file(tmp, [[1, 2, "0.5"]]),
                     "--gt", _qa_file(tmp, clip_uid="clip-d", window=[1, 2]), "--task", "vlg",
                     "--out", str(tmp / "report.json")],
        "preds.jsonl:1: bad prediction set: each prediction window item must be a number, got str",
    ),
    "decode-scores-are-strings": (
        lambda tmp: ["decode", _head_file(tmp, scores=["0.5", "0.6"]),
                     "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs: scores and offsets must be numbers",
    ),
    "decode-offsets-are-bools": (
        lambda tmp: ["decode", _head_file(tmp, offsets=[[False, True], [True, False]]),
                     "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs: scores and offsets must be numbers",
    ),
    "decode-offsets-bool-among-numbers": (
        lambda tmp: ["decode", _head_file(tmp, offsets=[[0, True], [1, 0]]),
                     "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs: offsets must be numbers, got a bool",
    ),
    "decode-query-id-is-number": (
        lambda tmp: ["decode", _head_file(tmp, query_id=0), "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs: query_id must be a string, got int",
    ),
    "decode-duration-is-string": (
        lambda tmp: ["decode", _head_file(tmp, duration_s="10"),
                     "--out", str(tmp / "preds.jsonl")],
        "heads.jsonl:1: bad head outputs: duration_s must be a number, got str",
    ),
    "ingest-duration-is-bool": (
        lambda tmp: ["ingest", _export_file(tmp, {
            "duration_sec": True,
            "narration_pass_1": {"narrations": [
                {"narration_text": "C waits.", "timestamp_sec": 0.5}]},
        }), "--out", str(tmp / "n.jsonl")],
        "bad_duration=1",
    ),
    "ingest-timestamp-is-bool": (
        lambda tmp: ["ingest", _export_file(tmp, {
            "duration_sec": 10,
            "narration_pass_1": {"narrations": [
                {"narration_text": "C waits.", "timestamp_sec": False}]},
        }), "--out", str(tmp / "n.jsonl")],
        "bad_timestamp=1",
    ),
    # A repeated object key is rejected, never resolved to its last value.
    "ingest-export-clip-repeated": (
        lambda tmp: ["ingest", _text_file(tmp, "export.json", "{\n" + ",\n".join(
            f'"a": {{"duration_sec": {d}, "narration_pass_1": {{"narrations": '
            f'[{{"narration_text": "C waits.", "timestamp_sec": 1}}]}}}}' for d in (10, 20)
        ) + "\n}\n"), "--out", str(tmp / "n.jsonl")],
        "export.json: repeated key 'a'",
    ),
    "ingest-one-line-export-clip-repeated": (
        lambda tmp: ["ingest", _text_file(tmp, "export.json", "{" + ", ".join(
            f'"a": {{"duration_sec": {d}, "narration_pass_1": {{"narrations": '
            f'[{{"narration_text": "C waits.", "timestamp_sec": 1}}]}}}}' for d in (10, 20)
        ) + "}\n"), "--out", str(tmp / "n.jsonl")],
        "export.json:1: repeated key 'a'",
    ),
    "ingest-row-key-repeated": (
        lambda tmp: ["ingest", _text_file(tmp, "narrations.jsonl",
                                          '{"clip_uid": "a", "clip_uid": "b", "duration_s": 10,'
                                          ' "narrations": [{"text": "C waits.", "t_s": 1}]}\n'
                                          + _read(_narrations_file(tmp, ("c", [1.0]))).decode()),
                     "--out", str(tmp / "n.jsonl")],
        "narrations.jsonl:1: repeated key 'clip_uid'",
    ),
    "config-key-repeated": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", '{"top_k": 5, "top_k": 1}'),
                     "decode", HEADS, "--out", str(tmp / "preds.jsonl")],
        "config.json: repeated key 'top_k'",
    ),
    "mock-key-repeated": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", _text_file(tmp, "mock.json", '{"*": "x", "*": "y"}')],
        "mock.json: repeated key '*'",
    ),
    "stats-qa-answer-repeated": (
        lambda tmp: ["stats", _text_file(tmp, "qa.jsonl", QA_ROW.decode()[:-1]
                                         + ', "answer": "no"}\n'),
                     "--out", str(tmp / "stats.json")],
        "qa.jsonl:1: repeated key 'answer'",
    ),
    "stats-narration-key-repeated": (
        lambda tmp: ["stats", FILTER_INPUT, "--out", str(tmp / "stats.json"), "--narrations",
                     _text_file(tmp, "narrations.jsonl",
                                '{"clip_uid": "c", "duration_s": 10, "narrations": '
                                '[{"text": "C waits.", "t_s": 1, "t_s": 9}]}\n')],
        "narrations.jsonl:1: repeated key 't_s'",
    ),
    # A prediction for a ground-truth query names that query's clip.
    **{
        f"eval-{task}-prediction-names-another-clip": (
            lambda tmp, task=task: [
                "eval", _text_file(tmp, "preds.jsonl", json.dumps({
                    "clip_uid": "some-other-clip", "query_id": "clip-d::0",
                    "windows": [[1.0, 2.0, 0.9]], "answer_text": "on the mat"}) + "\n"),
                "--gt", _qa_file(tmp, clip_uid="clip-d", window=[1, 2]), "--task", task,
                "--out", str(tmp / "report.json")],
            "preds.jsonl:1: query_id 'clip-d::0' is a query of clip 'clip-d', "
            "not 'some-other-clip'",
        )
        for task in ("vlg", "openqa")
    },
    # Endpoint settings are checked before any request is sent.
    "synthesize-parallelism-zero": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--mock", MOCK, "--parallelism", "0"],
        "parallelism must be >= 1, got 0",
    ),
    "synthesize-max-retries-negative": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://127.0.0.1:9", "--max-retries", "-1"],
        "max_retries must be >= 0, got -1",
    ),
    "synthesize-base-url-is-ftp": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "ftp://host/v1"],
        "base_url must be an http(s) URL",
    ),
    "synthesize-base-url-port-out-of-range": (
        lambda tmp: ["synthesize", _ingest(tmp), "--out", str(tmp / "qa.jsonl"),
                     "--base-url", "http://host:99999/v1"],
        "bad port in URL",
    ),
    "eval-gt-holds-only-a-header": (
        lambda tmp: ["eval", GOLDEN_PREDS,
                     "--gt", _text_file(tmp, "gt.jsonl", '{"_meta": {"tool": "egoqa"}}\n'),
                     "--task", "vlg", "--out", str(tmp / "report.json")],
        "gt.jsonl has no samples",
    ),
    "config-holds-an-array": (
        lambda tmp: ["--config", _text_file(tmp, "config.json", "[1, 2]"),
                     "decode", HEADS, "--out", str(tmp / "preds.jsonl")],
        "config.json must hold a JSON object",
    ),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_malformed_input_exits_2_naming_reason(self, case, tmp_path, caplog):
        build, reason = MALFORMED_INPUTS[case]
        argv = build(tmp_path)
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert cli.main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert any(reason in e for e in errors), errors
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        if case.startswith("config-"):
            assert not os.path.exists(argv[argv.index("--out") + 1])

    def test_https_proxy_url_must_be_plain_http(self, tmp_path, monkeypatch, caplog):
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)
        monkeypatch.setenv("HTTPS_PROXY", "https://proxy:3128")
        with caplog.at_level(logging.ERROR):
            assert cli.main(["synthesize", _ingest(tmp_path), "--out", str(tmp_path / "qa.jsonl"),
                             "--base-url", "https://chat.example.invalid/v1"]) == 2
        assert "unsupported https proxy 'https://proxy:3128'" in caplog.text
        assert not (tmp_path / "qa.jsonl").exists()

    def test_unknown_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["-v", "decode", HEADS, "--out", str(tmp_path / "preds.jsonl")])
        assert exc.value.code == 2
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv, reason", [
        pytest.param(["filter-blind", FILTER_INPUT, "--out", "kept.jsonl",
                      "--report", os.path.join("absent", "r.json")],
                     "absent/r.json: cannot create output",
                     id="filter-blind-report-dir-missing"),
        pytest.param(["filter-blind", FILTER_INPUT, "--out", "kept.jsonl", "--report", "taken"],
                     "taken: cannot replace output",
                     id="filter-blind-report-is-directory"),
        pytest.param(["stats", FILTER_INPUT, "--out", "stats.json", "--tsv-dir", "taken.txt"],
                     "taken.txt: cannot create directory",
                     id="stats-tsv-dir-is-file"),
        pytest.param(["synthesize", "narrations.jsonl", "--out", "qa.jsonl", "--mock", MOCK,
                      "--stats-out", os.path.join("absent", "s.json")],
                     "absent/s.json: cannot create output",
                     id="synthesize-stats-dir-missing"),
        pytest.param(["synthesize", "narrations.jsonl", "--out", "qa.jsonl", "--mock", MOCK,
                      "--records", os.path.join(".", "qa.jsonl")],
                     "qa.jsonl: named as more than one output",
                     id="synthesize-records-is-out"),
        pytest.param(["filter-blind", FILTER_INPUT, "--out", "kept.jsonl",
                      "--report", "kept.jsonl"],
                     "kept.jsonl: named as more than one output",
                     id="filter-blind-report-is-out"),
        # An output may not name an input, --config and --mock included.
        pytest.param(["ingest", "narrations.jsonl", "--out", "narrations.jsonl"],
                     "narrations.jsonl: named as both input and output",
                     id="ingest-out-is-input"),
        pytest.param(["synthesize", "narrations.jsonl", "--out", "qa2.jsonl",
                      "--mock", "mock.json", "--records", "mock.json"],
                     "mock.json: named as both input and output",
                     id="synthesize-records-is-mock"),
        pytest.param(["filter-blind", "qa.jsonl", "--out", "qa.jsonl"],
                     "qa.jsonl: named as both input and output",
                     id="filter-blind-out-is-input"),
        pytest.param(["eval", GOLDEN_PREDS, "--gt", "gt.jsonl", "--task", "vlg",
                      "--out", os.path.join(".", "gt.jsonl")],
                     "gt.jsonl: named as both input and output",
                     id="eval-out-is-gt"),
        pytest.param(["stats", "qa.jsonl", "--out", "qa.jsonl"],
                     "qa.jsonl: named as both input and output",
                     id="stats-out-is-input"),
        pytest.param(["--config", "config.json", "decode", "heads.jsonl",
                      "--out", "config.json"],
                     "config.json: named as both input and output",
                     id="decode-out-is-config"),
        # The histogram TSVs are outputs too.
        pytest.param(["stats", os.path.join("plots", "answer_words.tsv"), "--out", "s.json",
                      "--tsv-dir", "plots"],
                     "answer_words.tsv: named as both input and output",
                     id="stats-tsv-is-input"),
        pytest.param(["stats", "qa.jsonl", "--out", os.path.join("plots", "question_words.tsv"),
                      "--tsv-dir", "plots"],
                     "question_words.tsv: named as more than one output",
                     id="stats-tsv-is-out"),
    ])
    def test_bad_later_output_leaves_no_earlier_output(
        self, argv, reason, tmp_path, monkeypatch, caplog
    ):
        _ingest(tmp_path)
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken.txt").write_text("")
        for name, source in [("qa.jsonl", FILTER_INPUT), ("gt.jsonl", GT_VLG),
                             ("heads.jsonl", HEADS), ("mock.json", MOCK)]:
            (tmp_path / name).write_bytes(_read(source))
        (tmp_path / "config.json").write_text("{}")
        (tmp_path / "plots").mkdir()
        (tmp_path / "plots" / "answer_words.tsv").write_bytes(_read(FILTER_INPUT))
        (tmp_path / "plots" / "question_words.tsv").write_text("{}")
        monkeypatch.chdir(tmp_path)

        def contents():
            return {
                os.path.join(top, name): None if name in dirs else _read(os.path.join(top, name))
                for top, dirs, files in os.walk(".") for name in dirs + files
            }

        before = contents()
        with caplog.at_level(logging.ERROR):
            assert cli.main(argv) == 2
        assert any(reason in r.getMessage() for r in caplog.records)
        assert contents() == before

    def test_invariant_breach_maps_to_4(self, tmp_path, monkeypatch):
        def boom(args):
            raise InvariantBreach("forced")

        monkeypatch.setitem(cli.COMMANDS, "stats", boom)
        assert cli.main(["stats", "whatever"]) == 4

    def test_unexpected_exception_maps_to_4(self, tmp_path, monkeypatch):
        def boom(args):
            raise RuntimeError("forced")

        monkeypatch.setitem(cli.COMMANDS, "stats", boom)
        assert cli.main(["stats", "whatever"]) == 4
