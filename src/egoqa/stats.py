"""Streaming dataset statistics.

The builder consumes QA rows one at a time and keeps only counters, so
stats over million-row files run in constant memory. Word counts use the
normalized form of each string; window durations land in 1-second bins.
Each fact is counted once: the histograms are the only store of lengths,
and the sample count and means are read off them when the document is built.
"""
from __future__ import annotations

from collections import Counter
from typing import Any

from .core import QASample, ValidationError, normalize_answer

TOP_ANSWERS = 30
PREFIX_WORDS = 4
# Histogram names in the stats document and in TSV file names.
HISTOGRAMS = ("window_duration_s", "question_words", "answer_words", "distractor_words")


def _ranked(counts: Counter[str]) -> list[tuple[str, int]]:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _mean(hist: Counter[int]) -> float:
    return sum(k * v for k, v in hist.items()) / sum(hist.values())


class StatsBuilder:
    """Accumulates one sample at a time; call finalize() when done."""

    def __init__(self) -> None:
        self.hists: dict[str, Counter[int]] = {name: Counter() for name in HISTOGRAMS}
        self.clip_uids: set[str] = set()
        self.prefixes: Counter[str] = Counter()
        self.answers: Counter[str] = Counter()
        self.narration_count = 0
        self.narrated_seconds = 0.0

    @property
    def sample_count(self) -> int:
        return sum(self.hists["window_duration_s"].values())

    def add(self, sample: QASample) -> None:
        hists = self.hists
        self.clip_uids.add(sample.clip_uid)
        hists["window_duration_s"][int(sample.window.length_s)] += 1
        q_words = normalize_answer(sample.question).split()
        answer, *wrongs = sample.normalized or (normalize_answer(sample.answer),)
        hists["question_words"][len(q_words)] += 1
        hists["answer_words"][len(answer.split())] += 1
        self.prefixes[" ".join(q_words[:PREFIX_WORDS])] += 1
        self.answers[answer] += 1
        for wrong in wrongs:
            hists["distractor_words"][len(wrong.split())] += 1

    def add_narration_stats(self, narration_count: int, duration_s: float) -> None:
        self.narration_count += narration_count
        self.narrated_seconds += duration_s

    def finalize(self) -> dict[str, Any]:
        """The stats document. distractor_words_mean is present only when some
        sample has distractors, narration_per_minute only when narrated time
        was added."""
        sample_count = self.sample_count
        if sample_count == 0:
            raise ValidationError("no samples accumulated")
        hists = self.hists
        doc: dict[str, Any] = {
            "clip_count": len(self.clip_uids),
            "sample_count": sample_count,
            "question_words_mean": _mean(hists["question_words"]),
            "answer_words_mean": _mean(hists["answer_words"]),
            "histograms": {
                name: {str(k): v for k, v in sorted(hist.items())}
                for name, hist in hists.items()
            },
            "question_prefixes": dict(_ranked(self.prefixes)),
            "top_answers": [[a, c] for a, c in _ranked(self.answers)[:TOP_ANSWERS]],
        }
        if hists["distractor_words"]:
            doc["distractor_words_mean"] = _mean(hists["distractor_words"])
        if self.narrated_seconds > 0:
            doc["narration_per_minute"] = self.narration_count / (self.narrated_seconds / 60.0)
        return doc

    def tsv_lines(self, name: str) -> list[str]:
        """Rows 'bin<TAB>count' of one histogram, sorted by bin, for plotting."""
        return [f"{k}\t{v}" for k, v in sorted(self.hists[name].items())]
