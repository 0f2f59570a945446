"""Drive the whole pipeline through the command-line interface.

Builds a tiny narration export and a scripted mock-endpoint fixture in a
temp directory, then runs: ingest -> synthesize -> filter-blind -> stats.
The synthesize settings come from a --config JSON file; flags would
override it. Every output file starts with a _meta row carrying the tool version, a
config hash, and the seed, and reruns are byte-identical.
"""
import json
import os
import subprocess
import sys
import tempfile

from egoqa.chunking import chunk_track
from egoqa.cli import _iter_export_tracks
from egoqa.endpoint import prompt_digest
from egoqa.prompts import load_template, render_closeqa_prompt, render_openqa_prompt
from egoqa.windows import compute_stats

EXPORT = {
    "beach-walk": {
        "duration_sec": 40.0,
        "narration_pass_1": {"narrations": [
            {"narration_text": "C walks along the shoreline.", "timestamp_sec": 3.0},
            {"narration_text": "C picks up a shell.", "timestamp_sec": 12.0},
            {"narration_text": "C puts the shell in a bag.", "timestamp_sec": 20.0},
        ]},
    },
    "bike-repair": {
        "duration_sec": 55.0,
        "narration_pass_1": {"narrations": [
            {"narration_text": "C flips the bicycle over.", "timestamp_sec": 5.0},
            {"narration_text": "C removes the front wheel.", "timestamp_sec": 18.0},
            {"narration_text": "C patches the inner tube.", "timestamp_sec": 30.0},
        ]},
    },
}

SCRIPTED = {
    "beach-walk": ('{"Q": "Where did I put the shell?", "A": "in a bag"}',
                   '["in my pocket", "on a rock", "in the water"]'),
    "bike-repair": ('{"Q": "What did I patch on the bike?", "A": "the inner tube"}',
                    '["the brake pad", "the saddle", "the chain"]'),
}


def reject(unit: str, clip_uid: str, code: str, detail: str = "") -> None:
    """The fixture export is clean: a reject is a bug in it."""
    raise ValueError(f"fixture export: {unit} {clip_uid} rejected: {code} {detail}")


def build_mock_fixture(export: dict) -> dict:
    """Key each scripted completion by the digest of its exact prompt."""
    tracks = {t.clip_uid: t for t in _iter_export_tracks(export, "merge", reject)}
    stats = compute_stats(list(tracks.values()))
    openqa_t, closeqa_t = load_template("openqa_llama"), load_template("closeqa_llama")
    fixture = {}
    for uid, track in tracks.items():
        qa_raw, distractor_raw = SCRIPTED[uid]
        for chunk in chunk_track(track, stats):
            fixture[prompt_digest(render_openqa_prompt(chunk, track, openqa_t))] = qa_raw
        parsed = json.loads(qa_raw)
        fixture[prompt_digest(render_closeqa_prompt(parsed["Q"], parsed["A"], closeqa_t))] = distractor_raw
    return fixture


def run(*argv: str) -> None:
    print(f"$ egoqa {' '.join(argv)}", flush=True)
    subprocess.run([sys.executable, "-m", "egoqa.cli", *argv], check=True)


def show(path: str, limit: int = 4) -> None:
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            if i >= limit:
                print("  ...")
                break
            print(f"  {line.rstrip()}")


with tempfile.TemporaryDirectory() as tmp:
    export = os.path.join(tmp, "export.json")
    with open(export, "w", encoding="utf-8") as f:
        json.dump(EXPORT, f)
    mock = os.path.join(tmp, "mock.json")
    with open(mock, "w", encoding="utf-8") as f:
        json.dump(build_mock_fixture(EXPORT), f)

    narrations = os.path.join(tmp, "narrations.jsonl")
    qa = os.path.join(tmp, "qa.jsonl")
    kept = os.path.join(tmp, "kept.jsonl")
    stats = os.path.join(tmp, "stats.json")

    run("ingest", export, "--out", narrations)
    config = os.path.join(tmp, "synthesize.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump({"seed": 7, "split": "test", "max_sentences": 5, "parallelism": 2}, f)
    run("--config", config, "synthesize", narrations, "--out", qa, "--mock", mock)
    # uniform answerer: only questions guessable by pure luck are removed
    run("filter-blind", qa, "--out", kept, "--seed", "11",
        "--answerer", "uniform")
    run("stats", qa, "--out", stats, "--narrations", narrations)

    print("\nqa.jsonl:")
    show(qa)
    print("\nkept after blind filter:")
    show(kept)
    print("\nstats.json:")
    with open(stats, encoding="utf-8") as f:
        doc = json.load(f)
    for key in ("sample_count", "question_words_mean", "answer_words_mean"):
        print(f"  {key}: {doc[key]}")
