"""Evaluation suite: grounding recall, text metrics, seeded accuracy.

ROUGE-L and METEOR share one tokenization rule (lowercase, ASCII
alphanumeric runs) so goldens stay bit-exact. METEOR is the exact-match
stage only: no stemming or synonymy, which keeps the metric self-contained
and regression-stable; scores are therefore not comparable with
implementations that stem. The fragmentation penalty is that of Banerjee
& Lavie (2005).

The chunk count is exact: the fewest chunks of any maximal one-to-one
matching, an NP-hard problem (Minimum Common String Partition). The search
visits at most `_state_bound` states, a bound computed from the token
counts alone. A pair is searched when the reference has at most 20 tokens
and the bound is at most that of two 20-token strings; any other pair
takes the greedy alignment instead. So the choice never depends on token
order.
"""
from __future__ import annotations

import heapq
import re
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    EvalReport,
    InvariantBreach,
    MetricValue,
    PredictionSet,
    TemporalWindow,
    ValidationError,
    normalize_answer,
)
from .embedding import Embedder

K_VALUES = (1, 5)
M_VALUES = (0.3, 0.5)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class MissingQuery(ValidationError):
    """Ground-truth queries lack prediction entries."""


class RunLengthMismatch(ValidationError):
    """Seeded accuracy runs disagree in count or length."""


class EmptyEvaluation(ValidationError):
    """No data to evaluate."""


def iou_1d(a: TemporalWindow, b: TemporalWindow) -> float:
    """Interval intersection-over-union; 0 when the union has zero length."""
    inter = max(0.0, min(a.end_s, b.end_s) - max(a.start_s, b.start_s))
    union = a.length_s + b.length_s - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def vlg_recall(
    preds: Mapping[str, PredictionSet], gts: Mapping[str, TemporalWindow]
) -> EvalReport:
    """Fraction of queries whose top-k windows contain one with IoU >= m.

    Recall at k in {1, 5} and IoU threshold m in {0.3, 0.5}, plus
    mean_recall@1, the average of the two Recall@1 values. Deeper k and
    looser m never lower recall; a breach is an InvariantBreach.
    """
    missing = sorted(set(gts) - set(preds))
    if missing:
        raise MissingQuery(f"no predictions for queries: {missing}")
    if not gts:
        raise EmptyEvaluation("no ground-truth queries")

    hits = {(k, m): 0 for k in K_VALUES for m in M_VALUES}
    for query_id, gt in gts.items():
        ious = [iou_1d(w, gt) for w, _ in preds[query_id].windows]
        for k in K_VALUES:
            top = ious[:k]
            for m in M_VALUES:
                if any(v >= m for v in top):
                    hits[(k, m)] += 1
    n = len(gts)
    r = {key: count / n for key, count in hits.items()}
    if r[(5, 0.3)] < r[(1, 0.3)] or r[(5, 0.5)] < r[(1, 0.5)]:
        raise InvariantBreach("recall@5 must be >= recall@1 at equal threshold")
    if r[(1, 0.3)] < r[(1, 0.5)] or r[(5, 0.3)] < r[(5, 0.5)]:
        raise InvariantBreach("recall at IoU 0.3 must be >= recall at IoU 0.5")
    metrics = {f"recall@{k}_iou{m}": MetricValue(value) for (k, m), value in r.items()}
    metrics["mean_recall@1"] = MetricValue((r[(1, 0.3)] + r[(1, 0.5)]) / 2.0)
    return EvalReport(metadata={"queries": n}, metrics=metrics)


def tokenize(text: str) -> list[str]:
    """Shared metric tokenization: lowercase ASCII alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge_l_f(hypothesis: str, reference: str) -> float:
    """ROUGE-L f-score with the balanced harmonic mean (beta = 1)."""
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    lcs = _lcs_len(hyp, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(hyp)
    recall = lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def _counts(tokens: Iterable) -> dict:
    out: dict = {}
    for t in tokens:
        out[t] = out.get(t, 0) + 1
    return out


def _state_bound(hyp_count: dict, ref_count: dict, n: int, r: int) -> int:
    """Most `_max_links` states: (n + 1) * min(B(r), product of S_w).

    B(r) counts the subsets of r positions whose runs are all at least 2
    long. A word w found h_w times in the hypothesis and r_w times in the
    reference has S_w = sum of C(r_w, k) over k <= min(h_w - 1, r_w).
    Past `_ALIGN_BUDGET` the product stops growing, so a value above the
    budget says only that the bound exceeds it.
    """
    per_layer = 1
    for w, h in hyp_count.items():
        rw, term, s_w = ref_count.get(w, 0), 1, 1
        for k in range(1, min(h - 1, rw) + 1):
            term = term * (rw - k + 1) // k  # C(rw, k)
            s_w += term
            if per_layer * s_w > _ALIGN_BUDGET:
                break
        per_layer *= s_w
    blocks = [1, 1, 2]  # B(0), B(1), B(2): subsets with every run >= 2 long
    while len(blocks) <= r:
        blocks.append(2 * blocks[-1] - blocks[-2] + blocks[-3])
    return (n + 1) * min(per_layer, blocks[r])


# A reference of at most 20 tokens keeps the work per state small: the
# bound counts at most 74 shared k-grams. The state budget is the bound of
# two 20-token strings, 21 * B(20).
_ALIGN_MAX_REF = 20
_ALIGN_BUDGET = 1_163_505


def _align(hyp: list[str], ref: list[str]) -> tuple[int, int]:
    """Maximal one-to-one exact alignment; returns (matches, min chunks).

    m is the per-token multiset overlap. Adding a match never removes a
    link (a pair adjacent in both sequences), so the fewest chunks are m
    minus the most links of any one-to-one matching. The greedy links stand
    when they reach min(m - 1, bigram overlap), when the reference is longer
    than `_ALIGN_MAX_REF` or when the state bound exceeds the budget.
    """
    hyp_count, ref_count = _counts(hyp), _counts(ref)
    m = sum(min(c, ref_count.get(w, 0)) for w, c in hyp_count.items())
    if m == 0:
        return 0, 0
    links = _align_greedy(hyp, ref)
    if links < m - 1:
        ref_bigrams = _counts(zip(ref, ref[1:]))
        upper = sum(min(c, ref_bigrams.get(t, 0)) for t, c in _counts(zip(hyp, hyp[1:])).items())
        n, r = len(hyp), len(ref)
        if (links < upper and r <= _ALIGN_MAX_REF
                and _state_bound(hyp_count, ref_count, n, r) <= _ALIGN_BUDGET):
            links = _max_links(hyp, ref)
    return m, m - links


def _max_links(hyp: list[str], ref: list[str]) -> int:
    """Most links of any one-to-one matching, by A* over blocks.

    A block is an equal run hyp[i:i+L] == ref[j:j+L], L >= 2, worth L - 1
    links; blocks are disjoint in both strings. A state is (i, used): the
    reference positions taken by blocks in hyp[:i], kept only where a later
    block could go. The rest can add at most min(T_2, (U + T_3) / 2,
    (2U + T_4) / 3) links, with T_k the free reference k-grams shared with
    hyp[i:] and U the shared tokens: a block of T tokens has T - 1 links
    and T - k + 1 k-grams.
    """
    n, r = len(hyp), len(ref)
    ref_grams: dict[tuple[str, ...], int] = {}  # k-gram -> bits of its starts
    for j in range(r):
        for k in range(j + 1, min(j + 4, r) + 1):
            gram = tuple(ref[j:k])
            ref_grams[gram] = ref_grams.get(gram, 0) | 1 << j
    hyp_grams: dict[tuple[str, ...], int] = {}  # the same, for those in ref
    starts, spans = [], []  # per i: each j a block can start at; bits of j, j + 1
    for i in range(n):
        for k in range(i + 1, min(i + 4, n) + 1):
            gram = tuple(hyp[i:k])
            if gram not in ref_grams:
                break
            hyp_grams[gram] = hyp_grams.get(gram, 0) | 1 << i
        bits = ref_grams.get(tuple(hyp[i:i + 2]), 0) if i < n - 1 else 0
        starts.append([j for j in range(bits.bit_length()) if bits >> j & 1])
        spans.append(bits | bits << 1)
    useful, ahead, linkable = [0] * (n + 1), list(range(n + 1)), 0
    for i in range(n - 1, -1, -1):
        useful[i] = useful[i + 1] | spans[i]
        ahead[i] = i if starts[i] else ahead[i + 1]  # next i a block can start at
        linkable |= 3 << i if starts[i] else 0
    shared = [[], [], [], []]  # per k: (hyp bits, ref bits) of each shared k-gram
    for gram, bits in hyp_grams.items():
        hyp_bits, ref_bits = bits & linkable, ref_grams[gram] & useful[0]
        if hyp_bits and ref_bits:
            shared[len(gram) - 1].append((hyp_bits, ref_bits))

    def bound(used: int, i: int) -> int:
        free, counts = ~used, []
        for k, table in enumerate(shared):
            total = 0
            for hyp_bits, ref_bits in table:
                h, x = (hyp_bits >> i).bit_count(), (ref_bits & free).bit_count()
                total += h if h < x else x
            counts.append(total)
            free &= ~(used >> k + 1)
        u, t2, t3, t4 = counts
        return min(t2, (u + t3) // 2, (2 * u + t4) // 3)

    # (-(links + bound), -i, -links, used); a state with nothing left to gain
    # files as finished (i = n).
    heap = [(-bound(0, ahead[0]), -ahead[0], 0, 0)]
    best: dict[tuple[int, int], int] = {}
    while True:
        _, neg_i, neg_links, used = heapq.heappop(heap)
        i, links = -neg_i, -neg_links
        if i == n:
            return links
        if best.get((i, used), -1) > links:
            continue
        children = [(i + 1, used, links)]
        for j in starts[i]:
            if used >> j & 3:
                continue
            taken, k, jj = used | 3 << j, i + 2, j + 2
            children.append((k, taken, links + 1))
            while k < n and jj < r and hyp[k] == ref[jj] and not used >> jj & 1:
                taken, k, jj = taken | 1 << jj, k + 1, jj + 1  # extend the block
                children.append((k, taken, links + k - i - 1))
        for k, key, v in children:
            k = ahead[k]
            key &= useful[k]
            if best.get((k, key), -1) < v:
                best[(k, key)] = v
                gain = bound(key, k)
                heapq.heappush(heap, (-v - gain, -k if gain else -n, -v, key))


def _align_greedy(hyp: list[str], ref: list[str]) -> int:
    """Deterministic fallback: match left-to-right, continuing runs first.

    Never skips a matchable token, so the matching stays maximal; only the
    link count may fall short of the optimum.
    """
    used = [False] * len(ref)
    prev_j = -2
    links = 0
    for word in hyp:
        nxt = prev_j + 1
        if 0 <= nxt < len(ref) and ref[nxt] == word and not used[nxt]:
            j = nxt
        else:
            j = next((k for k, w in enumerate(ref) if w == word and not used[k]), -1)
        if j == -1:
            prev_j = -2
            continue
        used[j] = True
        if prev_j >= 0 and j == prev_j + 1:
            links += 1
        prev_j = j
    return links


def meteor_exact(hypothesis: str, reference: str) -> float:
    """Exact-match METEOR: unigram F-mean with a fragmentation penalty.

    m matched unigrams give P = m/|hyp|, R = m/|ref|, F = 10PR/(R + 9P);
    penalty = 0.5 * (chunks/m)^3; score = F * (1 - penalty). Zero overlap
    scores 0.
    """
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    if not hyp or not ref:
        return 0.0
    m, chunks = _align(hyp, ref)
    if m == 0:
        return 0.0
    precision = m / len(hyp)
    recall = m / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1.0 - penalty)


def sentence_similarity(hypothesis: str, reference: str, embedder: Embedder) -> float:
    """Cosine similarity of the two embedded sentences."""
    v1 = embedder.embed(hypothesis)
    v2 = embedder.embed(reference)
    return float(np.clip(np.dot(v1, v2), -1.0, 1.0))


def closeqa_accuracy(runs: Sequence[Sequence[tuple[str, str]]]) -> EvalReport:
    """Mean and sample standard deviation of accuracy over five seeded runs.

    Each run is a sequence of (predicted, correct) pairs over the same
    question set; a prediction counts when the normalized strings match.
    Each distinct correct answer is normalized once, not once per run.
    """
    if len(runs) != 5:
        raise RunLengthMismatch(f"exactly 5 runs required, got {len(runs)}")
    lengths = {len(run) for run in runs}
    if len(lengths) != 1:
        raise RunLengthMismatch(f"runs disagree in length: {sorted(lengths)}")
    if lengths == {0}:
        raise EmptyEvaluation("runs contain no question pairs")
    gold = lru_cache(maxsize=None)(normalize_answer)
    accuracies = [
        sum(1 for predicted, correct in run if normalize_answer(predicted) == gold(correct))
        / len(run)
        for run in runs
    ]
    return EvalReport(
        metadata={"queries": len(runs[0]), "runs": 5},
        metrics={"accuracy": MetricValue(
            float(np.mean(accuracies)), float(np.std(accuracies, ddof=1))
        )},
    )


def openqa_report(
    pairs: Sequence[tuple[str, str]], embedder: Embedder
) -> EvalReport:
    """Mean similarity, ROUGE-L and METEOR over (hypothesis, reference) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyEvaluation("no hypothesis/reference pairs")
    sim = float(np.mean([sentence_similarity(h, r, embedder) for h, r in pairs]))
    rouge = float(np.mean([rouge_l_f(h, r) for h, r in pairs]))
    meteor = float(np.mean([meteor_exact(h, r) for h, r in pairs]))
    return EvalReport(
        metadata={"embedder": getattr(embedder, "name", type(embedder).__name__),
                  "pairs": len(pairs)},
        metrics={
            "similarity": MetricValue(sim),
            "rouge_l": MetricValue(rouge),
            "meteor": MetricValue(meteor),
        },
    )
