"""Regenerate the committed fixtures in this directory.

Run from the repository root after intentional pipeline changes:

    python3 tests/data/regen.py

(`python3 tests/data/regen.py --digests SEED` prints one seed's output
digests instead, as JSON, and writes nothing.)

Produces:
  - mock_completions.json: prompt-hash -> completion map covering every
    prompt the 3-clip narration_export.json pipeline renders.
  - golden_prompt_*.txt: template renderings for the bundled in-context
    inputs (the final example of each template), used by the prompt
    fidelity tests.
  - golden_qa.jsonl / golden_records.jsonl / golden_stats.json: output of
    one synthesize run over the fixture with the mock endpoint.
  - golden_filter_report.json: filter-blind report over filter_input.jsonl
    with the frequency-prior answerer (fixture designed tie-free, so the
    report does not depend on the trial seeds).
  - golden_filter_report_uniform.json: the same with the uniform answerer,
    whose every pick is a seeded draw, so it pins the choice orders and the
    draws derived from the trial seeds.
  - golden_preds.jsonl: decode output for head_outputs.jsonl.
  - golden_report_{vlg,openqa,closeqa}.json: eval reports against
    gt_vlg.jsonl, of golden_preds.jsonl (vlg), pred_answers_0.jsonl (openqa)
    and pred_answers_0..4.jsonl (closeqa).
  - output_digests.json: {workload: {seed: {file: sha256}}} of every output
    of the curate-local and score benchmark workloads on bench seeds 1-10.
    Each seed's inputs come from bench/gen.py; the command sequence of
    bench/run.py's plan then runs in-process, and on curate-local so do the
    filter-blind variants of digest_variants. Every JSONL and report header
    carries the package version and the config hash, so a version bump or a
    change to a hashed setting moves every digest.

Review diffs before committing: these files are goldens, and tests compare
against them byte-for-byte.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, "..", "..", "bench")

sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from egoqa.chunking import chunk_track  # noqa: E402
from egoqa.cli import main  # noqa: E402
from egoqa.endpoint import prompt_digest  # noqa: E402
from egoqa.jsonl_io import export_tracks, read_json_object  # noqa: E402
from egoqa.prompts import (  # noqa: E402
    load_template,
    render_closeqa_prompt,
    render_openqa_prompt,
)
from egoqa.windows import compute_stats  # noqa: E402

# One QA pair per chunk of the 3-clip fixture, in (clip_uid, chunk_index)
# order, plus the three distractors generated for each answer.
OPENQA = {
    ("clip-a", 0): (
        '{"Q": "Where did I put the bowl?", "A": "on the counter"}',
        '["in the sink", "on the shelf", "in the cupboard"]',
    ),
    ("clip-a", 1): (
        '{"Q": "What did I rinse in the sink?", "A": "the strawberries"}',
        '["the blueberries", "the grapes", "the cherries"]',
    ),
    ("clip-b", 0): (
        '{"Q": "What tool did I use?", "A": "a screwdriver"}',
        '["a hammer", "a wrench", "pliers"]',
    ),
    ("clip-c", 0): (
        '{"Q": "What did I water on the balcony?", "A": "the plants"}',
        '["the herbs", "the flowers", "the tomatoes"]',
    ),
}

SINK_NARRATIONS = (
    "C turns on sink knob. C washes the cucumber on the sink. "
    "C turns off sink knob."
)


def reject(unit: str, clip_uid: str, code: str, detail: str = "") -> None:
    """The fixture export is clean: a reject is a bug in it."""
    raise ValueError(f"fixture export: {unit} {clip_uid} rejected: {code} {detail}")


def write_mock_completions() -> str:
    export = read_json_object(os.path.join(HERE, "narration_export.json"), "narration export")
    tracks = {t.clip_uid: t for t in export_tracks(export, "merge", reject)}
    stats = compute_stats(list(tracks.values()))
    openqa_template = load_template("openqa_llama")
    closeqa_template = load_template("closeqa_llama")

    completions: dict[str, str] = {}
    for track in tracks.values():
        for chunk in chunk_track(track, stats):
            key = (track.clip_uid, chunk.chunk_index)
            if key not in OPENQA:
                raise SystemExit(f"no scripted completion for chunk {key}")
            qa_completion, distractor_completion = OPENQA[key]
            prompt = render_openqa_prompt(chunk, track, openqa_template)
            completions[prompt_digest(prompt)] = qa_completion
            parsed = json.loads(qa_completion)
            closeqa_prompt = render_closeqa_prompt(
                parsed["Q"], parsed["A"], closeqa_template
            )
            completions[prompt_digest(closeqa_prompt)] = distractor_completion

    path = os.path.join(HERE, "mock_completions.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(completions, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def write_golden_prompts() -> None:
    renders = {
        "golden_prompt_openqa_llama.txt": load_template("openqa_llama").text.replace(
            "<narrations>", SINK_NARRATIONS
        ),
        "golden_prompt_openqa_chat.txt": load_template("openqa_chat").text.replace(
            "<narrations>", SINK_NARRATIONS
        ),
        "golden_prompt_closeqa_llama.txt": load_template("closeqa_llama")
        .text.replace("<question>", "What did i pour in the bowl?")
        .replace("<answer>", "boiling water"),
    }
    for name, text in renders.items():
        with open(os.path.join(HERE, name), "wb") as f:
            f.write(text.encode("utf-8"))


def _cli(*argv: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(HERE, "..", "..", "src")
    subprocess.run([sys.executable, "-m", "egoqa.cli", *argv], check=True, env=env)


def run_pipeline() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        narrations = os.path.join(tmp, "narrations.jsonl")
        _cli("ingest", os.path.join(HERE, "narration_export.json"), "--out", narrations)
        _cli(
            "synthesize", narrations,
            "--out", os.path.join(HERE, "golden_qa.jsonl"),
            "--records", os.path.join(HERE, "golden_records.jsonl"),
            "--stats-out", os.path.join(HERE, "golden_stats.json"),
            "--mock", os.path.join(HERE, "mock_completions.json"),
            "--seed", "7", "--split", "test",
        )
        _cli(
            "filter-blind", os.path.join(HERE, "filter_input.jsonl"),
            "--out", os.path.join(tmp, "filtered.jsonl"),
            "--report", os.path.join(HERE, "golden_filter_report.json"),
            "--seed", "11",
        )
        _cli(
            "filter-blind", os.path.join(HERE, "filter_input.jsonl"),
            "--out", os.path.join(tmp, "filtered-uniform.jsonl"),
            "--report", os.path.join(HERE, "golden_filter_report_uniform.json"),
            "--seed", "11", "--answerer", "uniform",
        )
        _cli(
            "filter-blind", os.path.join(HERE, "filter_input.jsonl"),
            "--out", os.path.join(tmp, "filtered-tied.jsonl"),
            "--report", os.path.join(HERE, "golden_filter_report_tied.json"),
            "--seed", "11", "--train", os.path.join(HERE, "golden_qa.jsonl"),
        )


def run_scoring() -> None:
    preds = os.path.join(HERE, "golden_preds.jsonl")
    answers = [os.path.join(HERE, f"pred_answers_{r}.jsonl") for r in range(5)]
    _cli("decode", os.path.join(HERE, "head_outputs.jsonl"), "--out", preds)
    for task, predictions in (("vlg", [preds]), ("openqa", answers[:1]), ("closeqa", answers)):
        _cli(
            "eval", *predictions, "--gt", os.path.join(HERE, "gt_vlg.jsonl"),
            "--task", task, "--out", os.path.join(HERE, f"golden_report_{task}.json"),
        )


DIGEST_WORKLOADS = ("curate-local", "score")
DIGEST_SEEDS = range(1, 11)


def digest_variants(seed: int) -> list[list[str]]:
    """filter-blind runs beside the plan's: each answerer and option whose
    output has no other check on the bench inputs."""
    base = ["filter-blind", "qa.jsonl", "--seed", str(seed + 1)]
    return [
        [*base, "--out", "kept-no-reshuffle.jsonl", "--no-reshuffle"],
        [*base, "--out", "kept-uniform.jsonl", "--answerer", "uniform"],
        [*base, "--out", "kept-train-is-input.jsonl", "--train", "qa.jsonl"],
    ]


def _bench_run():
    """bench/run.py, with the bench/gen.py it generates inputs with, imported
    without writing a bytecode cache beside them."""
    sys.path.insert(0, BENCH)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import gen  # noqa: F401  (run.generate imports it by name)
        import run
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(BENCH)
    return run


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def output_digests(workload: str, seed: int) -> dict[str, str]:
    """sha256 of each output of one bench workload and seed, by file name."""
    run = _bench_run()
    plan = run.plan(workload, seed, None)
    sequence, files = plan["sequence"], list(plan["digest"])
    if workload == "curate-local":
        variants = digest_variants(seed)
        sequence = [*sequence, *variants]
        files += [f"{out}{suffix}" for out in (v[v.index("--out") + 1] for v in variants)
                  for suffix in ("", ".report.json")]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        run.generate(workload, seed, Path(work))
        os.chdir(work)
        try:
            for argv in sequence:
                if main(argv) != 0:
                    raise SystemExit(f"{workload} seed {seed}: {' '.join(argv)} failed")
            return {name: _sha256(name) for name in files}
        finally:
            os.chdir(cwd)


def write_output_digests() -> None:
    digests = {
        workload: {str(seed): output_digests(workload, seed) for seed in DIGEST_SEEDS}
        for workload in DIGEST_WORKLOADS
    }
    with open(os.path.join(HERE, "output_digests.json"), "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:
        # One seed's digests of every workload, printed rather than written:
        # the tier-1 test recomputes seeds side by side, one process each.
        seed = int(sys.argv[2])
        print(json.dumps({w: output_digests(w, seed) for w in DIGEST_WORKLOADS}))
        raise SystemExit
    write_mock_completions()
    write_golden_prompts()
    run_pipeline()
    run_scoring()
    write_output_digests()
    print("fixtures regenerated in", HERE)
