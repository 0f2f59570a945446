"""Independent brute-force reference implementations used by the tests.

Everything here is written from the documented contracts alone, in the
plainest possible style, so a disagreement with the package points at the
package (or at the contract), never at shared code. ScriptedAnswerer is
the exception: a test double that scripts a blind answerer's per-trial
outcomes, not a reference implementation.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from functools import lru_cache
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from egoqa.core import (
    Narration,
    NarrationTrack,
    PredictionSet,
    QASample,
    TemporalWindow,
    ValidationError,
    normalize_answer,
)
from egoqa.jsonl_io import SchemaMismatch


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


def array_nms(
    scores: np.ndarray,
    offsets: np.ndarray,
    duration: float,
    threshold: float = 0.05,
    nms_iou: float = 0.5,
    top_k: int = 5,
) -> list[tuple[float, float, float]]:
    """Greedy NMS as whole-array passes: every candidate's bounds, one sort
    of all of them, then one suppression pass over the rest per pick. A
    bound that overflows clamps like any other, without a warning."""
    n = len(scores)
    if n == 0:
        return []
    step = duration / n

    def clamp(x):  # min(max(0.0, x), duration), never -0.0
        return np.where(x > 0.0, np.where(duration < x, duration, x), 0.0)

    with np.errstate(over="ignore"):
        t = np.flatnonzero(~(scores < threshold))
        score = scores[t]
        start = clamp((t - offsets[t, 0]) * step)
        end = clamp((t + offsets[t, 1]) * step)
        order = np.lexsort((t, start, -score))
        score, start, end = score[order], start[order], end[order]
        taken: list[tuple[float, float, float]] = []
        while len(taken) < top_k and score.size:
            s0, e0 = start[0], end[0]
            taken.append((float(s0), float(e0), float(score[0])))
            score, start, end = score[1:], start[1:], end[1:]
            inter = np.maximum(0.0, np.minimum(end, e0) - np.maximum(start, s0))
            union = (end - start) + (e0 - s0) - inter
            iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
            live = ~(iou >= nms_iou)
            score, start, end = score[live], start[live], end[live]
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


# ------------------------------------------------- row decoders, field by field
# The JSONL row decoders and the HeadOutputs conversion as they were before
# each tested a whole row's field types in one check. Every field is read and
# checked in turn, so the first bad field names the error.

_TEXT = (str,)
_NUMBER = (int, float)
_LIST = (list,)
_KIND = {_TEXT: "a string", _NUMBER: "a number", _LIST: "an array"}


def _need(row: Mapping[str, Any], key: str, where: str, kind=None) -> Any:
    if key not in row:
        raise SchemaMismatch(f"{where}: missing field {key!r}")
    value = row[key]
    if kind is not None and type(value) not in kind:
        raise TypeError(f"{key} must be {_KIND[kind]}, got {type(value).__name__}")
    return value


def _array(value: Any, size: int, name: str, kind=_NUMBER) -> list:
    if type(value) is not list or len(value) != size:
        raise TypeError(f"{name} must be an array of {size} items")
    for item in value:
        if type(item) not in kind:
            raise TypeError(f"each {name} item must be {_KIND[kind]}, got {type(item).__name__}")
    return value


def field_row_to_track(row: Mapping[str, Any], where: str = "row") -> NarrationTrack:
    try:
        narrations = tuple(
            Narration(_need(n, "text", where, _TEXT), float(_need(n, "t_s", where, _NUMBER)))
            for n in _need(row, "narrations", where, _LIST)
        )
        return NarrationTrack(
            clip_uid=_need(row, "clip_uid", where, _TEXT),
            duration_s=float(_need(row, "duration_s", where, _NUMBER)),
            narrations=narrations,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"{where}: bad narration track: {exc}") from exc


def field_row_to_qa(row: Mapping[str, Any], where: str = "row") -> QASample:
    try:
        start, end = map(float, _array(_need(row, "window", where), 2, "window"))
        wrong = row.get("wrong_answers")
        return QASample(
            clip_uid=_need(row, "clip_uid", where, _TEXT),
            question=_need(row, "question", where, _TEXT),
            answer=_need(row, "answer", where, _TEXT),
            window=TemporalWindow(start, end),
            wrong_answers=(
                None if wrong is None else tuple(_array(wrong, 3, "wrong_answers", _TEXT))
            ),
            split=_need(row, "split", where, _TEXT),
            source=_need(row, "source", where, _TEXT),
        )
    except (TypeError, ValueError, OverflowError, LookupError, ValidationError) as exc:
        if isinstance(exc, SchemaMismatch):
            raise
        raise SchemaMismatch(f"{where}: bad qa sample: {exc}") from exc


def field_row_to_pred(row: Mapping[str, Any], where: str = "row") -> PredictionSet:
    try:
        triples = [
            (TemporalWindow(float(start), float(end)), float(score))
            for start, end, score in (
                _array(w, 3, "prediction window") for w in _need(row, "windows", where, _LIST)
            )
        ]
        triples.sort(key=lambda pair: -pair[1])
        return PredictionSet(
            clip_uid=_need(row, "clip_uid", where, _TEXT),
            query_id=_need(row, "query_id", where, _TEXT),
            windows=tuple(triples),
            answer_text=_need(row, "answer_text", where, _TEXT) if "answer_text" in row else "",
        )
    except (TypeError, ValueError, OverflowError, LookupError, ValidationError) as exc:
        if isinstance(exc, SchemaMismatch):
            raise
        raise SchemaMismatch(f"{where}: bad prediction set: {exc}") from exc


def nested_head_arrays(scores_in: Any, offsets_in: Any) -> tuple[np.ndarray, np.ndarray]:
    """HeadOutputs' fields, converted by np.array of the nested lists as they
    are; raises what HeadOutputs raises for inputs it rejects."""
    scores = np.array(scores_in)
    offsets = np.array(offsets_in)
    if any(a.dtype.kind in "bUS" or a.dtype.kind == "O" and {*map(type, a.flat)} - {int, float}
           for a in (scores, offsets)):
        raise ValidationError(
            f"scores and offsets must be numbers, got {scores.dtype} and {offsets.dtype}"
        )
    scores = scores.astype(np.float64, copy=False)
    offsets = offsets.astype(np.float64, copy=False)
    if offsets.shape == (0,):
        offsets = offsets.reshape(0, 2)
    if scores.ndim != 1 or offsets.ndim != 2 or offsets.shape[1] != 2:
        raise ValidationError(
            "scores must be a list of numbers and offsets a list of "
            f"[left, right] pairs, got shapes {scores.shape} and {offsets.shape}"
        )
    if len(scores) != len(offsets):
        raise ValidationError(f"{len(scores)} scores vs {len(offsets)} offsets")
    bad = ~((scores > 0.0) & (scores < 1.0))
    if bad.any():
        raise ValidationError(f"scores must lie strictly in (0, 1), got {float(scores[bad][0])}")
    bad = ~(np.isfinite(offsets) & (offsets >= 0.0)).all(axis=1)
    if bad.any():
        left, right = offsets[bad][0].tolist()
        raise ValidationError(f"offsets must be finite and >= 0, got ({left}, {right})")
    if not isinstance(offsets_in, np.ndarray):
        for i, j in zip(*np.nonzero((offsets == 0.0) | (offsets == 1.0))):
            if isinstance(offsets_in[i][j], (bool, np.bool_)):
                raise ValidationError("offsets must be numbers, got a bool")
    return scores, offsets


# ------------------------------------------------------------- text metrics


def dp_lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by the row-by-row dynamic programme."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def trigram_counts(text: str, buckets: int = 256) -> Counter:
    """Occurrences of each blake2b bucket of the lowercased text's character
    trigrams (of the whole text when it is shorter than 3 characters)."""
    text = text.lower()
    grams = [text[i : i + 3] for i in range(len(text) - 2)] or [text]
    out: Counter = Counter()
    for gram in grams:
        digest = hashlib.blake2b(gram.encode(), digest_size=8).digest()
        out[int.from_bytes(digest, "big") % buckets] += 1
    return out


def count_cosine(a: Mapping[int, int], b: Mapping[int, int]) -> float:
    """Cosine of two count vectors: dot / sqrt(|a|^2 * |b|^2), at most 1."""
    dot = sum(n * b.get(k, 0) for k, n in a.items())
    norms = sum(n * n for n in a.values()) * sum(n * n for n in b.values())
    return min(dot / math.sqrt(norms), 1.0)


def dense_cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine of two equal-length vectors with every sum exact (math.fsum):
    fsum(a_i b_i) / sqrt(fsum(a_i^2) * fsum(b_i^2)), clamped to [-1, 1]."""
    dot = math.fsum(x * y for x, y in zip(a, b))
    norms = math.fsum(x * x for x in a) * math.fsum(y * y for y in b)
    return min(max(dot / math.sqrt(norms), -1.0), 1.0)


def mean_and_sample_std(xs: Sequence[float]) -> tuple[float, float]:
    """fsum(xs) / n and the two-pass sample deviation about that mean."""
    mean = math.fsum(xs) / len(xs)
    return mean, math.sqrt(math.fsum((x - mean) * (x - mean) for x in xs) / (len(xs) - 1))
