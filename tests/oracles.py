"""Independent brute-force reference implementations used by the tests.

Everything here is written from the documented contracts alone, in the
plainest possible style, so a disagreement with the package points at the
package (or at the contract), never at shared code. ScriptedAnswerer is
the exception: a test double that scripts a blind answerer's per-trial
outcomes, not a reference implementation.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from egoqa.core import TemporalWindow, normalize_answer


def interval_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


def oracle_align(hyp: tuple[str, ...], ref: tuple[str, ...]) -> tuple[int, int]:
    """(matches, chunks) by exhaustive search over all one-to-one matchings.

    Lexicographically maximizes (matches, adjacency links) over every
    possible matching; chunks = matches - links. Exponential state space,
    cached per (position, used-reference bitmask, previous match).
    """
    n = len(ref)

    @lru_cache(maxsize=None)
    def best(i: int, mask: int, prev_j: int) -> tuple[int, int]:
        if i == len(hyp):
            return (0, 0)
        out = best(i + 1, mask, -1)
        for j in range(n):
            if ref[j] == hyp[i] and not (mask >> j) & 1:
                sub_m, sub_l = best(i + 1, mask | (1 << j), j)
                link = 1 if prev_j >= 0 and j == prev_j + 1 else 0
                cand = (sub_m + 1, sub_l + link)
                if cand > out:
                    out = cand
        return out

    m, links = best(0, 0, -1)
    best.cache_clear()
    return (m, m - links) if m else (0, 0)


def capped_search_align(
    hyp: list[str], ref: list[str], max_states: int = 200_000
) -> tuple[int, int] | None:
    """(matches, chunks) by the memoised depth-first search METEOR used to run.

    The search walks the hypothesis, memoised on (i, used-reference
    bitmask, previous match), with per-token skip budgets that keep every
    branch a maximal matching. It gives up (None) on references over 20
    tokens and once the memo holds more than max_states entries; the
    package then used a greedy alignment instead.
    """
    ref_count: dict[str, int] = {}
    for w in ref:
        ref_count[w] = ref_count.get(w, 0) + 1
    hyp_count: dict[str, int] = {}
    for w in hyp:
        hyp_count[w] = hyp_count.get(w, 0) + 1
    m = sum(min(c, ref_count.get(w, 0)) for w, c in hyp_count.items())
    if m == 0:
        return 0, 0
    if len(ref) > 20:
        return None
    skip_budget = {w: c - min(c, ref_count.get(w, 0)) for w, c in hyp_count.items()}
    occ_before = []
    seen: dict[str, int] = {}
    for w in hyp:
        occ_before.append(seen.get(w, 0))
        seen[w] = seen.get(w, 0) + 1
    ref_positions: dict[str, list[int]] = {}
    for j, w in enumerate(ref):
        ref_positions.setdefault(w, []).append(j)
    memo: dict[tuple[int, int, int], int] = {}
    n = len(hyp)

    def best(i: int, mask: int, prev_j: int) -> int | None:
        if i == n:
            return 0
        key = (i, mask, prev_j)
        if key in memo:
            return memo[key]
        if len(memo) > max_states:
            return None
        word = hyp[i]
        out = -1
        matched = sum(1 for j in ref_positions.get(word, ()) if mask >> j & 1)
        if occ_before[i] - matched < skip_budget.get(word, 0):
            sub = best(i + 1, mask, -1)
            if sub is None:
                return None
            out = max(out, sub)
        for j in ref_positions.get(word, ()):
            if mask >> j & 1:
                continue
            sub = best(i + 1, mask | (1 << j), j)
            if sub is None:
                return None
            out = max(out, sub + (1 if j == prev_j + 1 and prev_j >= 0 else 0))
        memo[key] = out
        return out

    links = best(0, 0, -1)
    return None if links is None else (m, m - links)


def oracle_meteor(hyp: list[str], ref: list[str]) -> float:
    if not hyp or not ref:
        return 0.0
    m, chunks = oracle_align(tuple(hyp), tuple(ref))
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f = 10.0 * p * r / (r + 9.0 * p)
    return f * (1.0 - 0.5 * (chunks / m) ** 3)


def oracle_vlg(
    windows_by_query: dict[str, list[tuple[float, float]]],
    gts: dict[str, tuple[float, float]],
) -> dict[str, float]:
    """Recall table by direct recount over raw interval tuples."""
    out = {}
    n = len(gts)
    for k in (1, 5):
        for m in (0.3, 0.5):
            hits = 0
            for qid, gt in gts.items():
                ious = [interval_iou(w, gt) for w in windows_by_query[qid][:k]]
                if any(v >= m for v in ious):
                    hits += 1
            out[f"recall@{k}_iou{m}"] = hits / n
    out["mean_recall@1"] = (out["recall@1_iou0.3"] + out["recall@1_iou0.5"]) / 2.0
    return out


def oracle_nms(
    scores: list[float],
    offsets: list[tuple[float, float]],
    duration: float,
    threshold: float = 0.05,
    nms_iou: float = 0.5,
    top_k: int = 5,
) -> list[tuple[float, float, float]]:
    """Literal simulation of the decoding contract on plain tuples."""
    n = len(scores)
    if n == 0:
        return []
    step = duration / n
    cands = []
    for t in range(n):
        if scores[t] < threshold:
            continue
        s = min(max(0.0, (t - offsets[t][0]) * step), duration)
        e = min(max(0.0, (t + offsets[t][1]) * step), duration)
        cands.append((s, e, scores[t], t))
    cands.sort(key=lambda c: (-c[2], c[0], c[3]))
    taken: list[tuple[float, float, float]] = []
    for s, e, score, _ in cands:
        if len(taken) >= top_k:
            break
        if all(interval_iou((s, e), (s2, e2)) < nms_iou for s2, e2, _ in taken):
            taken.append((s, e, score))
    return taken


def merge_windows(windows: Iterable[TemporalWindow]) -> TemporalWindow:
    """Hull of the inputs: (min start, max end). Raises ValueError on none."""
    windows = tuple(windows)
    return TemporalWindow(min(w.start_s for w in windows), max(w.end_s for w in windows))


def fixed_point_normalize(text: str) -> str:
    """normalize_answer as first written: lowercase, collapse whitespace, then
    strip terminal punctuation and whitespace in turn until nothing changes."""
    out = " ".join(text.lower().split())
    while True:
        stripped = out.rstrip(".,!?;:").rstrip()
        if stripped == out:
            return out
        out = stripped


def oracle_shuffle(seed: int) -> tuple[list[int], int]:
    """(order, uint32 draws used) of numpy's Generator.shuffle of range(4).

    Reads the raw 64-bit PCG64 outputs for the seed, splits each into its
    low then high 32 bits (next_uint32), and runs the Fisher-Yates swaps
    for i = 3, 2, 1 with a draw masked to the smallest all-ones mask >= i,
    redrawn while it exceeds i.
    """
    draws = []
    for raw in np.random.PCG64(seed).random_raw(16).tolist():
        draws += [raw & 0xFFFFFFFF, raw >> 32]
    order, used = [0, 1, 2, 3], 0
    for i in (3, 2, 1):
        mask = (1 << i.bit_length()) - 1
        while True:
            j = draws[used] & mask
            used += 1
            if j <= i:
                break
        order[i], order[j] = order[j], order[i]
    return order, used


class ScriptedAnswerer:
    """Blind answerer that follows a fixed script of per-trial outcomes.

    script maps a question to its per-trial correctness booleans (missing
    questions default to all wrong); correct_by_question supplies the string
    to return on a correct trial. The seeds list identifies trial indices.
    """

    def __init__(
        self,
        correct_by_question: Mapping[str, str],
        seeds: Sequence[int],
        script: Mapping[str, Sequence[bool]] | None = None,
    ):
        self._correct = dict(correct_by_question)
        self._trial_of_seed = {seed: i for i, seed in enumerate(seeds)}
        self._script = {q: list(flags) for q, flags in (script or {}).items()}

    def answer(self, question: str, choices: Sequence[str], seed: int) -> str:
        trial = self._trial_of_seed[seed]
        flags = self._script.get(question)
        correct = self._correct.get(question)
        want_correct = flags[trial] if flags is not None else correct is not None
        if want_correct and correct is not None:
            for choice in choices:
                if normalize_answer(choice) == normalize_answer(correct):
                    return choice
        for choice in choices:
            if correct is None or normalize_answer(choice) != normalize_answer(correct):
                return choice
        return choices[0]
