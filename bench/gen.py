"""Seeded input generator for the egoqa benchmark.

Every input the program receives is written here, from the workload seed
alone, before any timing starts. The same (workload, seed) always gives
byte-identical files. The generator builds the mock-completion fixture the
way demos/07_cli_pipeline.py does: it chunks each track with the package's
own window and chunking rules and keys each scripted completion by the
digest of the exact prompt the pipeline will send.
"""
from __future__ import annotations

import json
import os
import random

from egoqa.chunking import chunk_track
from egoqa.core import Narration, NarrationTrack, QASample, TemporalWindow, normalize_answer
from egoqa.endpoint import prompt_digest
from egoqa.jsonl_io import dumps_canonical, qa_to_row
from egoqa.prompts import load_template, render_closeqa_prompt, render_openqa_prompt
from egoqa.windows import compute_stats

VERBS = ("picks up", "puts down", "opens", "closes", "washes", "cuts", "moves",
         "holds", "drops", "wipes", "folds", "pours", "turns", "lifts", "places")
OBJECTS = ("cup", "knife", "plate", "towel", "drawer", "bottle", "pan", "box",
           "spoon", "lid", "bag", "phone", "book", "shirt", "bowl", "brush")
PLACES = ("on the table", "in the sink", "near the stove", "from the shelf",
          "into the bag", "on the floor", "by the door", "under the tap")
COLOURS = ("red", "blue", "green", "white", "black", "small", "large", "old")
WH = ("What", "Where", "Which")

# Answers follow a Zipf-like law, so the frequency-prior answerer of the
# blind filter finds common answers and really removes questions.
ANSWERS = tuple(f"the {c} {o}" for c in COLOURS for o in OBJECTS)

# Scripted misbehaviour of the chat service, as fixed shares of prompts.
MALFORMED_OPENQA = 0.10      # first attempt unparseable, retry succeeds
MALFORMED_CLOSEQA = 0.05
CONSTRAINT_OPENQA = 0.02     # answer over five words: final, sample dropped

ORDINALS = ("zero", "one", "two", "three", "four", "five", "six", "seven",
            "eight", "nine")


def _spell(n: int) -> str:
    """Digits as words, so every narration and question is unique text."""
    return "-".join(ORDINALS[int(d)] for d in str(n))


def _zipf_answer(rng: random.Random) -> str:
    rank = min(int(rng.paretovariate(1.1)) - 1, len(ANSWERS) - 1)
    return ANSWERS[rank]


def _distractors(rng: random.Random, answer: str) -> list[str]:
    """Three distinct wrong answers from the same law as the answers."""
    picked: list[str] = []
    taken = {normalize_answer(answer)}
    while len(picked) < 3:
        cand = _zipf_answer(rng)
        if normalize_answer(cand) not in taken:
            taken.add(normalize_answer(cand))
            picked.append(cand)
    return picked


def make_tracks(rng: random.Random, n_clips: int) -> list[NarrationTrack]:
    """Clips of 2-10 minutes with 30-90 narrations, each narration unique.

    The (narration count, duration) pairs are one fixed set for a given
    n_clips; the seed shuffles their order and draws timestamps and text.
    So every seed asks for about the same work, and runs with different
    seeds can be compared.
    """
    last = max(n_clips - 1, 1)
    shapes = [(30 + round(60 * i / last), round(120.0 + 480.0 * (i * 7919 % n_clips) / last, 3))
              for i in range(n_clips)]
    rng.shuffle(shapes)
    tracks = []
    for c, (count, duration) in enumerate(shapes):
        uid = f"clip-{c:05d}-{rng.getrandbits(32):08x}"
        times = sorted({round(rng.uniform(0.0, duration), 3) for _ in range(count)})
        narrations = tuple(
            Narration(
                f"C {rng.choice(VERBS)} the {rng.choice(OBJECTS)} "
                f"{rng.choice(PLACES)} at mark {_spell(c)} {_spell(k)}.",
                t,
            )
            for k, t in enumerate(times)
        )
        tracks.append(NarrationTrack(uid, duration, narrations))
    return tracks


def _roles(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """Exactly round(share * n) of each role, in seeded order; rest "ok"."""
    roles = [role for role, share in shares.items() for _ in range(round(share * n))]
    roles += ["ok"] * (n - len(roles))
    rng.shuffle(roles)
    return roles


def write_export(path: str, tracks: list[NarrationTrack]) -> None:
    """The raw narration export that `egoqa ingest` parses."""
    export = {
        t.clip_uid: {
            "duration_sec": t.duration_s,
            "narration_pass_1": {"narrations": [
                {"narration_text": n.text, "timestamp_sec": n.t_s}
                for n in t.narrations
            ]},
        }
        for t in tracks
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(export, f)


def build_fixture(rng: random.Random, tracks: list[NarrationTrack]) -> tuple[dict, dict]:
    """Digest-keyed completions for every prompt the pipeline will send.

    Every chunk gets a distinct question, so every openqa and closeqa
    prompt is distinct and the per-prompt retry script is consumed in the
    same order at any parallelism. Returns (fixture, expected counts).
    """
    stats = compute_stats(tracks)
    openqa_t = load_template("openqa_llama")
    closeqa_t = load_template("closeqa_llama")
    chunks = [(c, track, chunk) for c, track in enumerate(tracks)
              for chunk in chunk_track(track, stats)]
    roles = _roles(rng, len(chunks), {"constraint": CONSTRAINT_OPENQA,
                                      "malformed": MALFORMED_OPENQA})
    closeqa_roles = iter(_roles(rng, roles.count("ok") + roles.count("malformed"),
                                {"malformed": MALFORMED_CLOSEQA}))
    fixture: dict[str, object] = {}
    counts = {"chunks": len(chunks), "samples": 0, "requests": 0}
    for (c, track, chunk), role in zip(chunks, roles):
        digest = prompt_digest(render_openqa_prompt(chunk, track, openqa_t))
        question = (f"{rng.choice(WH)} did I {rng.choice(VERBS).split()[0]} "
                    f"at mark {_spell(c)} {_spell(chunk.chunk_index)}?")
        if role == "constraint":
            fixture[digest] = json.dumps({"Q": question, "A": "the cup that was on the table"})
            counts["requests"] += 1
            continue
        answer = _zipf_answer(rng)
        fixture[digest] = _scripted(json.dumps({"Q": question, "A": answer}), role,
                                    "Sure, here is a question about the clip.", counts)
        counts["samples"] += 1
        digest = prompt_digest(render_closeqa_prompt(question, answer, closeqa_t))
        fixture[digest] = _scripted(json.dumps(_distractors(rng, answer)),
                                    next(closeqa_roles), "Three wrong answers follow.",
                                    counts)
    return fixture, counts


def _scripted(good: str, role: str, malformed: str, counts: dict) -> object:
    """The fixture entry for one prompt; counts the requests it will take."""
    if role == "malformed":
        counts["requests"] += 2
        return [malformed, good]
    counts["requests"] += 1
    return good


# Long answers, rich in repeated function words, so METEOR's exact
# alignment search does real work. V and N are filled with distinct verbs
# and objects, and long predictions are made by one fixed edit, so the
# search cost of each pair depends on its template only, never on the seed.
LONG_TEMPLATES = (
    "i V the N of the N and the N of the N and i V the N",
    "the N and the N of the N i V and the N of the N i V the N",
    "i V the N and the N of the N then i V the N of the N",
    "i V the N of the N and the N of the N and the N",
)


def _long_answer(rng: random.Random, template: str) -> tuple[list[str], str]:
    """(reference words, prediction) for one long template."""
    verbs = iter(rng.sample([v.split()[0] for v in VERBS], 3))
    objects = iter(rng.sample(OBJECTS, 8))
    ref = [next(verbs) if w == "V" else next(objects) if w == "N" else w
           for w in template.split()]
    hyp = list(ref)
    hyp[2], hyp[7] = hyp[7], hyp[2]
    del hyp[4]
    hyp[9] = "somewhere"
    hyp.insert(12, "the")
    return ref, " ".join(hyp)


def _perturb(rng: random.Random, words: list[str]) -> str:
    """A plausible prediction: the reference with edits and reorderings."""
    out = list(words)
    for _ in range(max(1, len(out) // 4)):
        op = rng.random()
        i = rng.randrange(len(out))
        if op < 0.4:
            out[i] = rng.choice(OBJECTS + COLOURS + ("the", "a", "of"))
        elif op < 0.6 and len(out) > 1:
            del out[i]
        elif op < 0.8:
            j = rng.randrange(len(out))
            out[i], out[j] = out[j], out[i]
        else:
            out.insert(i, rng.choice(("the", "a", "and")))
    return " ".join(out)


def _head_row(rng: random.Random, uid: str, qid: str, duration: float,
              gt: TemporalWindow, steps: int) -> dict:
    """Noisy per-step scores with a bump over the target, boundary offsets."""
    step_s = duration / steps
    lo, hi = gt.start_s / step_s, gt.end_s / step_s
    scores, offsets = [], []
    for t in range(steps):
        inside = lo <= t <= hi
        s = rng.uniform(0.3, 0.95) if inside else rng.betavariate(1.2, 8.0)
        scores.append(min(max(round(s, 4), 0.0001), 0.9999))
        if inside:
            left = max(0.0, t - lo + rng.gauss(0.0, 2.0))
            right = max(0.0, hi - t + rng.gauss(0.0, 2.0))
        else:
            left, right = rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)
        offsets.append((round(left, 3), round(right, 3)))
    return {"clip_uid": uid, "query_id": qid, "duration_s": duration,
            "scores": scores, "offsets": [list(o) for o in offsets]}


def _write_rows(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write(dumps_canonical(row) + "\n")


def gen_curation(workdir: str, seed: int, workload: str, n_clips: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    tracks = make_tracks(rng, n_clips)
    write_export(os.path.join(workdir, "export.json"), tracks)
    fixture, counts = build_fixture(rng, tracks)
    with open(os.path.join(workdir, "fixture.json"), "w", encoding="utf-8") as f:
        json.dump(fixture, f)
    counts["clips"] = len(tracks)
    counts["narrations"] = sum(len(t.narrations) for t in tracks)
    return counts


def gen_score(workdir: str, seed: int, workload: str, n_vlg: int, n_qa: int,
              steps: int, long_share: float) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    vlg_gt, heads = [], []
    for q in range(n_vlg):
        uid = f"vid-{q:05d}-{rng.getrandbits(32):08x}"
        duration = round(rng.uniform(120.0, 600.0), 3)
        length = rng.uniform(2.0, 30.0)
        start = rng.uniform(0.0, duration - length)
        gt = TemporalWindow(round(start, 3), round(start + length, 3))
        vlg_gt.append(QASample(uid, f"When did I act at mark {q}?", "then", gt,
                               split="test"))
        heads.append(_head_row(rng, uid, f"{uid}::0", duration, gt, steps))
    _write_rows(os.path.join(workdir, "head_outputs.jsonl"), heads)
    _write_rows(os.path.join(workdir, "gt_vlg.jsonl"), (qa_to_row(s) for s in vlg_gt))

    qa_gt, open_preds = [], []
    closed = [[] for _ in range(5)]
    per_clip = 5
    lengths = _roles(rng, n_qa, {"long": long_share})
    n_long = 0
    for q, length in enumerate(lengths):
        uid = f"qa-{q // per_clip:05d}"
        qid = f"{uid}::{q % per_clip}"
        if length == "long":
            template = LONG_TEMPLATES[n_long % len(LONG_TEMPLATES)]
            ref_words, prediction = _long_answer(rng, template)
            n_long += 1
        else:
            ref_words = (f"i {rng.choice(VERBS)} the {rng.choice(COLOURS)} "
                         f"{rng.choice(OBJECTS)} {rng.choice(PLACES)}").split()
            ref_words = ref_words[: rng.randint(3, len(ref_words))]
            prediction = _perturb(rng, ref_words)
        answer = " ".join(ref_words)
        wrong = _distractors(rng, answer)
        sample = QASample(uid, f"What happened at mark {q}?", answer,
                          TemporalWindow(0.0, 5.0), tuple(wrong), split="test")
        qa_gt.append(qa_to_row(sample))
        open_preds.append({"clip_uid": uid, "query_id": qid, "windows": [],
                           "answer_text": prediction})
        for run in closed:
            pick = answer if rng.random() < 0.6 else rng.choice(wrong)
            run.append({"clip_uid": uid, "query_id": qid, "windows": [],
                        "answer_text": pick})
    _write_rows(os.path.join(workdir, "gt_qa.jsonl"), qa_gt)
    _write_rows(os.path.join(workdir, "pred_openqa.jsonl"), open_preds)
    for i, run in enumerate(closed):
        _write_rows(os.path.join(workdir, f"pred_closeqa_{i}.jsonl"), run)
    return {"vlg_queries": n_vlg, "qa_queries": n_qa, "head_steps": steps}
