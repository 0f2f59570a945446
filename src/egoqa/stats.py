"""Streaming dataset statistics.

The builder consumes QA rows one at a time and keeps only counters, so
stats over million-row files run in constant memory. Word counts use the
normalized form of each string; window durations land in 1-second bins.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .core import QASample, ValidationError, normalize_answer

TOP_ANSWERS = 30
PREFIX_WORDS = 4

# Histogram name in reports and TSV file names -> DatasetStats attribute.
HISTOGRAMS = {
    "window_duration_s": "window_duration_hist",
    "question_words": "question_word_hist",
    "answer_words": "answer_word_hist",
    "distractor_words": "distractor_word_hist",
}


def words_of(text: str) -> list[str]:
    return normalize_answer(text).split()


@dataclass(frozen=True)
class DatasetStats:
    """Aggregated dataset statistics; histogram masses equal sample_count."""

    clip_count: int
    sample_count: int
    window_duration_hist: Mapping[int, int]
    question_word_hist: Mapping[int, int]
    answer_word_hist: Mapping[int, int]
    distractor_word_hist: Mapping[int, int]
    question_words_mean: float
    answer_words_mean: float
    distractor_words_mean: float | None
    question_prefixes: Mapping[str, int]
    top_answers: tuple[tuple[str, int], ...]
    narration_per_minute: float | None = None

    def __post_init__(self) -> None:
        for name in ("window_duration_hist", "question_word_hist", "answer_word_hist"):
            hist: Mapping[int, int] = getattr(self, name)
            if sum(hist.values()) != self.sample_count:
                raise ValidationError(f"{name} mass must equal sample_count")
        for name, mean in (
            ("question_word_hist", self.question_words_mean),
            ("answer_word_hist", self.answer_words_mean),
        ):
            hist = getattr(self, name)
            total = sum(hist.values())
            expect = sum(k * v for k, v in hist.items()) / total if total else 0.0
            if abs(expect - mean) > 1e-9:
                raise ValidationError(f"{name} mean inconsistent with histogram")

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "clip_count": self.clip_count,
            "sample_count": self.sample_count,
            "question_words_mean": self.question_words_mean,
            "answer_words_mean": self.answer_words_mean,
            "histograms": {
                name: {str(k): v for k, v in sorted(getattr(self, attr).items())}
                for name, attr in HISTOGRAMS.items()
            },
            "question_prefixes": dict(
                sorted(self.question_prefixes.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
            "top_answers": [[a, c] for a, c in self.top_answers],
        }
        if self.distractor_words_mean is not None:
            out["distractor_words_mean"] = self.distractor_words_mean
        if self.narration_per_minute is not None:
            out["narration_per_minute"] = self.narration_per_minute
        return out


@dataclass
class StatsBuilder:
    """Accumulates one sample at a time; call finalize() when done."""

    clip_uids: set[str] = field(default_factory=set)
    sample_count: int = 0
    window_hist: dict[int, int] = field(default_factory=dict)
    question_hist: dict[int, int] = field(default_factory=dict)
    answer_hist: dict[int, int] = field(default_factory=dict)
    distractor_hist: dict[int, int] = field(default_factory=dict)
    question_word_sum: int = 0
    answer_word_sum: int = 0
    distractor_word_sum: int = 0
    distractor_count: int = 0
    prefixes: dict[str, int] = field(default_factory=dict)
    answer_freq: dict[str, int] = field(default_factory=dict)
    narration_count: int = 0
    narrated_seconds: float = 0.0

    def add(self, sample: QASample) -> None:
        self.clip_uids.add(sample.clip_uid)
        self.sample_count += 1
        bin_idx = int(sample.window.length_s)
        self.window_hist[bin_idx] = self.window_hist.get(bin_idx, 0) + 1

        q_words = words_of(sample.question)
        a_words = words_of(sample.answer)
        self.question_hist[len(q_words)] = self.question_hist.get(len(q_words), 0) + 1
        self.answer_hist[len(a_words)] = self.answer_hist.get(len(a_words), 0) + 1
        self.question_word_sum += len(q_words)
        self.answer_word_sum += len(a_words)

        prefix = " ".join(q_words[:PREFIX_WORDS])
        self.prefixes[prefix] = self.prefixes.get(prefix, 0) + 1
        normed = normalize_answer(sample.answer)
        self.answer_freq[normed] = self.answer_freq.get(normed, 0) + 1

        if sample.wrong_answers:
            for wrong in sample.wrong_answers:
                n = len(words_of(wrong))
                self.distractor_hist[n] = self.distractor_hist.get(n, 0) + 1
                self.distractor_word_sum += n
                self.distractor_count += 1

    def add_narration_stats(self, narration_count: int, duration_s: float) -> None:
        self.narration_count += narration_count
        self.narrated_seconds += duration_s

    def finalize(self) -> DatasetStats:
        if self.sample_count == 0:
            raise ValidationError("no samples accumulated")
        top = sorted(self.answer_freq.items(), key=lambda kv: (-kv[1], kv[0]))
        density = None
        if self.narrated_seconds > 0:
            density = self.narration_count / (self.narrated_seconds / 60.0)
        return DatasetStats(
            clip_count=len(self.clip_uids),
            sample_count=self.sample_count,
            window_duration_hist=dict(self.window_hist),
            question_word_hist=dict(self.question_hist),
            answer_word_hist=dict(self.answer_hist),
            distractor_word_hist=dict(self.distractor_hist),
            question_words_mean=self.question_word_sum / self.sample_count,
            answer_words_mean=self.answer_word_sum / self.sample_count,
            distractor_words_mean=(
                self.distractor_word_sum / self.distractor_count
                if self.distractor_count
                else None
            ),
            question_prefixes=dict(self.prefixes),
            top_answers=tuple(top[:TOP_ANSWERS]),
            narration_per_minute=density,
        )


def stats_tsv_lines(stats: DatasetStats, histogram: str) -> list[str]:
    """Rows 'bin<TAB>count' for one histogram, for external plotting."""
    if histogram not in HISTOGRAMS:
        raise ValidationError(f"unknown histogram {histogram!r}")
    return [f"{k}\t{v}" for k, v in sorted(getattr(stats, HISTOGRAMS[histogram]).items())]
