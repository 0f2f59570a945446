"""Shipped acceptance checks, one criterion per test, at stated tolerances.

Each test carries @pytest.mark.criterion(n, label); conftest prints a
PASS/FAIL line per criterion after the run. Reference values come from the
independent implementations in oracles.py, never from the package itself.
"""
from __future__ import annotations

import itertools
import json
import os
import time

import numpy as np
import pytest

import egoqa.cli as cli
from egoqa.blindfilter import UniformRandomAnswerer, filter_rows
from egoqa.core import (
    PredictionSet,
    QASample,
    TemporalWindow,
)
from egoqa.seeding import choice_heads, choice_orders, choice_seeds, derive_seed
from egoqa.chunking import chunk_track
from egoqa.localization import (
    HeadOutputs,
    combine_losses,
    decode_windows,
    diou_loss_1d,
    focal_loss,
    token_cross_entropy,
)
from egoqa.metrics import (
    _align,
    closeqa_accuracy,
    iou_1d,
    meteor_exact,
    rouge_l_f,
    vlg_recall,
)
from egoqa.prompts import (
    load_template,
    render_closeqa_prompt,
    render_openqa_prompt,
)
from egoqa.synthesis import shuffled_choices
from egoqa.windows import compute_stats, narration_window

from .conftest import DATA_DIR, make_track
from .oracles import ScriptedAnswerer, oracle_align, oracle_nms, oracle_vlg

FD_STEP = 1e-6
FD_RTOL = 1e-4


def _rel_close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def _central_diff(f, x, i, step=FD_STEP):
    hi = np.array(x, dtype=np.float64)
    lo = np.array(x, dtype=np.float64)
    hi[i] += step
    lo[i] -= step
    return (f(hi) - f(lo)) / (2 * step)


def _check_grad(analytic, numeric):
    scale = max(abs(analytic), abs(numeric), 1.0)
    assert abs(analytic - numeric) / scale <= FD_RTOL


@pytest.mark.criterion(1, "window stats match brute force at 1e-9 rel; beta=alpha gives 1.0 s")
def test_window_formula_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n_clips = int(rng.integers(1, 21))
        tracks = []
        for c in range(n_clips):
            duration = float(rng.uniform(30, 600))
            if c == 0:
                # guarantee one informative clip per corpus
                n = int(rng.integers(3, 51))
                gaps = rng.uniform(0.5, duration / n, size=n - 1)
                ts = np.concatenate([[1.0], 1.0 + np.cumsum(gaps)])
            else:
                n = int(rng.integers(1, 51))
                if rng.random() < 0.06 and n >= 2:
                    ts = np.full(n, float(rng.uniform(0, duration)))  # zero gaps
                else:
                    ts = np.sort(rng.uniform(0, duration, size=n))
            tracks.append(make_track(f"clip-{c}", duration, [float(t) for t in ts]))

        # independent recount of the documented formulas
        betas: dict[str, float | None] = {}
        for tr in tracks:
            ts = [nn.t_s for nn in tr.narrations]
            if len(ts) >= 2:
                gaps = [b - a for a, b in zip(ts, ts[1:])]
                beta = sum(gaps) / len(gaps)
                betas[tr.clip_uid] = beta if beta > 0 else None
            else:
                betas[tr.clip_uid] = None
        informative = [b for b in betas.values() if b is not None]
        alpha = sum(informative) / len(informative)

        stats = compute_stats(tracks)
        assert _rel_close(stats.alpha_s, alpha)
        for uid, beta in betas.items():
            assert _rel_close(stats.beta_by_clip[uid], alpha if beta is None else beta)
        for tr in tracks:
            beta = betas[tr.clip_uid]
            half = (alpha if beta is None else beta) / (2.0 * alpha)
            for nn in tr.narrations:
                w = narration_window(nn.t_s, tr.clip_uid, stats, tr.duration_s)
                assert _rel_close(w.start_s, max(0.0, nn.t_s - half))
                assert _rel_close(w.end_s, min(tr.duration_s, nn.t_s + half))

    # a clip whose beta equals alpha gets unit-length windows before clamping
    stats = compute_stats([make_track("solo", 100.0, [10.0, 18.0, 26.0])])
    assert stats.beta_by_clip["solo"] == stats.alpha_s
    for t in (10.0, 18.0, 26.0):
        w = narration_window(t, "solo", stats, 100.0)
        assert w.end_s - w.start_s == 1.0
    # same exactness for a flagged fallback clip (beta assigned = alpha)
    stats = compute_stats([
        make_track("pace", 100.0, [10.0, 18.0, 26.0]),
        make_track("lone", 100.0, [40.0]),
    ])
    w = narration_window(40.0, "lone", stats, 100.0)
    assert w.end_s - w.start_s == 1.0
    assert time.monotonic() - t0 < 5.0


@pytest.mark.criterion(2, "chunk bounds, partition, greedy maximality on 1000 random tracks")
def test_chunking_bounds_oracle():
    t0 = time.monotonic()
    worked = make_track("w", 60.0, [0.0, 8.0, 16.0, 24.0, 33.0, 40.0])
    sizes = tuple(len(c.members) for c in chunk_track(worked, compute_stats([worked])))
    assert sizes == (4, 2)

    rng = np.random.default_rng(202)
    aux = make_track("aux", 200.0, [0.0, 10.0, 20.0])
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        ts = np.cumsum(rng.uniform(0.0, 18.0, size=n))
        duration = float(ts[-1] + rng.uniform(1.0, 20.0))
        track = make_track("t", duration, [float(t) for t in ts])
        stats = compute_stats([track, aux])
        chunks = chunk_track(track, stats)

        flat = [i for c in chunks for i in c.members]
        assert flat == list(range(n))
        for c in chunks:
            assert len(c.members) <= 5
            t_first = track.narrations[c.members[0]].t_s
            t_last = track.narrations[c.members[-1]].t_s
            assert t_last - t_first <= 30.0 + 1e-12
            # span is the hull of member narration windows
            member_windows = [
                narration_window(track.narrations[i].t_s, "t", stats, duration)
                for i in c.members
            ]
            assert c.span.start_s == min(w.start_s for w in member_windows)
            assert c.span.end_s == max(w.end_s for w in member_windows)
        for prev, cur in zip(chunks, chunks[1:]):
            head_t = track.narrations[cur.members[0]].t_s
            first_prev = track.narrations[prev.members[0]].t_s
            assert len(prev.members) == 5 or head_t - first_prev > 30.0
    assert time.monotonic() - t0 < 5.0


@pytest.mark.criterion(3, "loss gradients match central differences; diou fixed points")
def test_loss_gradients_match_finite_differences():
    t0 = time.monotonic()

    assert diou_loss_1d(TemporalWindow(3, 8), TemporalWindow(3, 8))[0] == 0.0
    assert diou_loss_1d(TemporalWindow(0, 2), TemporalWindow(2, 4))[0] == pytest.approx(
        1.25, abs=1e-9
    )
    assert diou_loss_1d(TemporalWindow(0, 4), TemporalWindow(1, 3))[0] == pytest.approx(
        0.5, abs=1e-9
    )

    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        p = rng.uniform(0.02, 0.98, size=n)
        y = rng.random(n) < 0.5
        gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
        _, grad = focal_loss(p, y, gamma=gamma)
        for i in range(n):
            _check_grad(grad[i], _central_diff(lambda v: focal_loss(v, y, gamma=gamma)[0], p, i))

    checked = 0
    while checked < 100:
        s2, l2 = rng.uniform(0, 50), rng.uniform(0.5, 20)
        s1, l1 = rng.uniform(0, 50), rng.uniform(0.5, 20)
        gt = TemporalWindow(s2, s2 + l2)
        pred = TemporalWindow(s1, s1 + l1)
        # gradient ties are measure-zero; resample draws landing near one
        crit = [
            pred.start_s - gt.start_s,
            pred.end_s - gt.end_s,
            pred.center_s - gt.center_s,
            min(pred.end_s, gt.end_s) - max(pred.start_s, gt.start_s),
        ]
        if any(abs(c) < 10 * FD_STEP for c in crit):
            continue
        _, grad = diou_loss_1d(pred, gt)

        def f(v):
            return diou_loss_1d(TemporalWindow(v[0], v[1]), gt)[0]

        x = [pred.start_s, pred.end_s]
        for i in range(2):
            _check_grad(grad[i], _central_diff(f, x, i))
        checked += 1

    for _ in range(100):
        n, v = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        dists = rng.dirichlet(np.ones(v), size=n)
        dists = np.clip(dists, 0.01, None)
        dists /= dists.sum(axis=1, keepdims=True)
        targets = rng.integers(0, v, size=n)
        _, grad = token_cross_entropy(dists, targets)
        for r in range(n):
            t = targets[r]

            def g(flat):
                d = dists.copy()
                d[r, t] = flat[0]
                return token_cross_entropy(d, targets)[0]

            _check_grad(grad[r, t], _central_diff(g, [dists[r, t]], 0))
    assert time.monotonic() - t0 < 10.0


@pytest.mark.criterion(4, "combined loss equals 0.5(focal+diou) + 0.5 qa to 1e-12")
def test_loss_weighting_exact():
    rng = np.random.default_rng(404)
    for _ in range(500):
        focal, diou, qa = rng.uniform(0, 10, size=3)
        b = combine_losses(focal, diou, qa)
        assert abs(b.vlg - (focal + diou)) <= 1e-12
        assert abs(b.total - 0.5 * (focal + diou) - 0.5 * qa) <= 1e-12


@pytest.mark.criterion(5, "decoding equals exhaustive NMS simulation on 500 instances")
def test_decoding_matches_nms_oracle():
    rng = np.random.default_rng(505)
    for _ in range(500):
        n = int(rng.integers(0, 13))
        scores = [float(s) for s in rng.uniform(0.01, 0.99, size=n)]
        offsets = [(float(l), float(r)) for l, r in rng.uniform(0.0, 6.0, size=(n, 2))]
        duration = float(rng.uniform(5.0, 120.0))
        threshold = float(rng.uniform(0.05, 0.6))
        nms_iou = float(rng.uniform(0.2, 0.8))
        top_k = int(rng.integers(1, 7))

        got = decode_windows(HeadOutputs(tuple(scores), tuple(offsets)),
                             duration, threshold, nms_iou, top_k)
        want = oracle_nms(scores, offsets, duration, threshold, nms_iou, top_k)
        assert [(w.start_s, w.end_s, s) for w, s in got] == want
        for i in range(len(got)):
            for j in range(i + 1, len(got)):
                assert iou_1d(got[i][0], got[j][0]) < nms_iou


@pytest.mark.criterion(6, "recall table matches brute force; exact mean; self-eval 100.0")
def test_vlg_metrics_oracle():
    rng = np.random.default_rng(606)
    for _ in range(500):
        nq = int(rng.integers(1, 12))
        gts: dict[str, TemporalWindow] = {}
        windows_by_query: dict[str, list[tuple[float, float]]] = {}
        preds = {}
        for q in range(nq):
            qid = f"c{q}::0"
            gs, gl = rng.uniform(0, 50), rng.uniform(0.5, 20)
            gts[qid] = TemporalWindow(gs, gs + gl)
            k = int(rng.integers(0, 7))
            scores = sorted((float(s) for s in rng.uniform(0.01, 0.99, size=k)), reverse=True)
            wins = []
            for score in scores:
                s, length = rng.uniform(0, 50), rng.uniform(0.2, 25)
                wins.append((TemporalWindow(s, s + length), score))
            windows_by_query[qid] = [(w.start_s, w.end_s) for w, _ in wins]
            preds[qid] = PredictionSet("c", qid, tuple(wins))

        table = {name: mv.value for name, mv in vlg_recall(preds, gts).metrics.items()}
        want = oracle_vlg(windows_by_query, {q: (w.start_s, w.end_s) for q, w in gts.items()})
        for name, value in want.items():
            assert abs(table[name] - value) <= 1e-12
        assert table["mean_recall@1"] == (table["recall@1_iou0.3"] + table["recall@1_iou0.5"]) / 2.0
        assert table["recall@5_iou0.3"] >= table["recall@1_iou0.3"]
        assert table["recall@5_iou0.5"] >= table["recall@1_iou0.5"]
        assert table["recall@1_iou0.3"] >= table["recall@1_iou0.5"]
        assert table["recall@5_iou0.3"] >= table["recall@5_iou0.5"]

    # predicting the ground truth verbatim scores 100.0 on every metric
    gts = {f"g{q}::0": TemporalWindow(q * 10.0, q * 10.0 + 5.0) for q in range(6)}
    preds = {
        qid: PredictionSet("g", qid, ((w, 0.9),)) for qid, w in gts.items()
    }
    report = vlg_recall(preds, gts)
    assert all(mv.value == 1.0 for mv in report.metrics.values())
    assert all(report.render_percent(name) == "100.0" for name in report.metrics)


@pytest.mark.criterion(7, "text metric values; alignment exhaustive for token lengths <= 6")
def test_text_metrics_and_exhaustive_alignment():
    t0 = time.monotonic()
    assert rouge_l_f("in the fridge", "inside the refrigerator") == pytest.approx(
        1.0 / 3.0, abs=1e-6
    )
    assert meteor_exact(
        "the cat sat on mats", "the cat sat on mats"
    ) == pytest.approx(0.996, abs=1e-6)

    def all_seqs(alphabet: tuple[str, ...], max_len: int):
        for length in range(max_len + 1):
            yield from itertools.product(alphabet, repeat=length)

    two = list(all_seqs(("a", "b"), 6))
    for hyp in two:
        for ref in two:
            assert _align(list(hyp), list(ref)) == oracle_align(hyp, ref)
    three = list(all_seqs(("a", "b", "c"), 4))
    for hyp in three:
        for ref in three:
            assert _align(list(hyp), list(ref)) == oracle_align(hyp, ref)
    assert time.monotonic() - t0 < 30.0


@pytest.mark.criterion(8, "closeqa accuracy protocol, shuffle uniformity, blind-filter rates")
def test_closeqa_protocol():
    runs = []
    for n_correct in (4, 4, 4, 4, 9):
        runs.append(
            [("yes" if i < n_correct else "no", "yes") for i in range(10)]
        )
    accuracy = closeqa_accuracy(runs).metrics["accuracy"]
    assert accuracy.value == pytest.approx(0.5, abs=1e-9)
    assert accuracy.dispersion == pytest.approx(0.223607, abs=1e-6)

    sample = QASample(
        "clip-s", "What did I hold?", "a mug",
        TemporalWindow(1.0, 3.0),
        ("a plate", "a spoon", "a jar"),
    )
    n_shuffles = 100_000
    orders = choice_orders(choice_seeds(sample, choice_heads(range(n_shuffles))))
    correct_index = np.argmax(orders == 0, axis=1)
    assert [shuffled_choices(sample, seed)[1] for seed in range(100)] == (
        correct_index[:100].tolist()
    )
    for c in np.bincount(correct_index, minlength=4):
        assert abs(c / n_shuffles - 0.25) <= 0.01

    seeds = [derive_seed("blind-trial", 0, t) for t in range(10)]
    uniform = (
        QASample(
            "clip-u", f"What did I move in round {i}?", "the box",
            TemporalWindow(0.0, 2.0),
            ("the bag", "the cart", "the bin"),
        )
        for i in range(10_000)
    )
    rows = filter_rows(uniform, UniformRandomAnswerer(), seeds)
    removed = sum(all(outcomes) for _, outcomes in rows)
    assert removed <= 1

    def mk(i: int) -> QASample:
        return QASample(
            "clip-p", f"Where did item {i} go?", "the shelf",
            TemporalWindow(0.0, 2.0),
            ("the drawer", "the table", "the floor"),
        )

    samples = [mk(i) for i in range(8)]
    always = {s.question for s in samples[:5]}
    script = {
        s.question: [True] * 10 if s.question in always else [True] * 9 + [False]
        for s in samples
    }
    scripted = ScriptedAnswerer(
        {s.question: s.answer for s in samples}, seeds, script
    )
    rows = list(filter_rows(samples, scripted, seeds))
    assert {s.question for s, outcomes in rows if all(outcomes)} == always
    assert [s.question for s, outcomes in rows if not all(outcomes)] == (
        [s.question for s in samples[5:]]
    )


@pytest.mark.criterion(9, "byte-identical synthesis across runs and parallelism; designed stats")
def test_end_to_end_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("EGOQA_BASE_URL", raising=False)
    t0 = time.monotonic()
    export = os.path.join(DATA_DIR, "narration_export.json")
    mock = os.path.join(DATA_DIR, "mock_completions.json")
    narrations = str(tmp_path / "narrations.jsonl")
    assert cli.main(["ingest", export, "--out", narrations]) == 0

    outputs = set()
    for run in range(3):
        for par in (1, 2, 8):
            out = str(tmp_path / f"qa-{run}-{par}.jsonl")
            code = cli.main([
                "synthesize", narrations, "--out", out,
                "--mock", mock, "--seed", "7", "--split", "test",
                "--parallelism", str(par),
            ])
            assert code == 0
            files = []
            for path in (out, out + ".records.jsonl", out + ".stats.json"):
                with open(path, "rb") as f:
                    files.append(f.read())
            outputs.add(tuple(files))
    assert len(outputs) == 1

    stats_out = str(tmp_path / "stats.json")
    code = cli.main([
        "stats", os.path.join(DATA_DIR, "golden_qa.jsonl"),
        "--out", stats_out, "--narrations", narrations,
    ])
    assert code == 0
    with open(stats_out, "r", encoding="utf-8") as f:
        doc = json.load(f)
    assert doc["question_words_mean"] == 25 / 4
    assert doc["answer_words_mean"] == 9 / 4
    assert doc["distractor_words_mean"] == 26 / 12
    with open(os.path.join(DATA_DIR, "golden_stats.json"), "r", encoding="utf-8") as f:
        golden = json.load(f)
    assert {k: v for k, v in doc.items() if k != "_meta"} == {
        k: v for k, v in golden.items() if k != "_meta"
    }
    assert time.monotonic() - t0 < 10.0


@pytest.mark.criterion(10, "rendered prompts byte-identical to the stored templates")
def test_prompt_fidelity_goldens():
    from egoqa.core import Narration, NarrationTrack
    from egoqa.chunking import NarrationChunk

    texts = [
        "C turns on sink knob.",
        "C washes the cucumber on the sink.",
        "C turns off sink knob.",
    ]
    track = NarrationTrack(
        "clip-x", 30.0, tuple(Narration(t, 2.0 + 5 * i) for i, t in enumerate(texts))
    )
    chunk = NarrationChunk("clip-x", (0, 1, 2), TemporalWindow(1.5, 12.5), 0)

    for template_id, golden in (
        ("openqa_llama", "golden_prompt_openqa_llama.txt"),
        ("openqa_chat", "golden_prompt_openqa_chat.txt"),
    ):
        rendered = render_openqa_prompt(chunk, track, load_template(template_id))
        with open(os.path.join(DATA_DIR, golden), "rb") as f:
            assert rendered.encode("utf-8") == f.read()

    rendered = render_closeqa_prompt(
        "What did i pour in the bowl?", "boiling water", load_template("closeqa_llama")
    )
    with open(os.path.join(DATA_DIR, "golden_prompt_closeqa_llama.txt"), "rb") as f:
        assert rendered.encode("utf-8") == f.read()
