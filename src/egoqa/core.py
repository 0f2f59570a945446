"""Shared domain types, identity rules, and validation.

Every other module builds on the value types defined here. All types are
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

# Absolute tolerance for timestamp comparisons, in seconds. Narration
# timestamps are sub-second floats; a fixed tolerance keeps invariant
# checks deterministic.
TIME_EPS = 1e-6

SPLITS = ("train", "val", "test")
SOURCES = ("manual", "synthesized")


class EgoqaError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EgoqaError):
    """Input failed a documented precondition or schema check."""


class ServiceError(EgoqaError):
    """A remote dependency (chat or embedding endpoint) failed."""


class InvariantBreach(EgoqaError):
    """An internal consistency guarantee was violated; indicates a bug."""


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class Narration:
    """One timestamped narration sentence."""

    text: str
    t_s: float


@dataclass(frozen=True)
class NarrationTrack:
    """One clip's ordered narration sentences plus the clip duration.

    Construction does not validate; use validate_track to obtain the full
    list of invariant violations as data.
    """

    clip_uid: str
    duration_s: float
    narrations: tuple[Narration, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "narrations", tuple(self.narrations))


@dataclass(frozen=True)
class TemporalWindow:
    """A [start, end] interval in seconds within one clip."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not (_finite(self.start_s) and _finite(self.end_s)):
            raise ValidationError(f"window endpoints must be finite, got {self!r}")
        if self.start_s < 0:
            raise ValidationError(f"window start must be >= 0, got {self.start_s}")
        if self.start_s > self.end_s:
            raise ValidationError(
                f"window start {self.start_s} exceeds end {self.end_s}"
            )

    @property
    def length_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def center_s(self) -> float:
        return (self.start_s + self.end_s) / 2.0


@dataclass(frozen=True)
class QASample:
    """A question, its answer, and the grounding window within a clip.

    wrong_answers, when present, holds exactly three distractors that are
    pairwise distinct and distinct from the answer after normalization.
    """

    clip_uid: str
    question: str
    answer: str
    window: TemporalWindow
    wrong_answers: tuple[str, str, str] | None = None
    split: str = "train"
    source: str = "synthesized"

    def __post_init__(self) -> None:
        if not self.clip_uid:
            raise ValidationError("clip_uid must be non-empty")
        if not self.question.strip():
            raise ValidationError("question must be non-empty")
        if not self.answer.strip():
            raise ValidationError("answer must be non-empty")
        if self.split not in SPLITS:
            raise ValidationError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.source not in SOURCES:
            raise ValidationError(
                f"source must be one of {SOURCES}, got {self.source!r}"
            )
        if self.wrong_answers is not None:
            wrong = tuple(self.wrong_answers)
            object.__setattr__(self, "wrong_answers", wrong)
            if len(wrong) != 3:
                raise ValidationError(
                    f"wrong_answers must hold exactly 3 strings, got {len(wrong)}"
                )
            normed = [normalize_answer(w) for w in wrong]
            if len(set(normed)) != 3 or normalize_answer(self.answer) in normed:
                raise ValidationError(
                    "wrong_answers must be pairwise distinct and distinct from "
                    "the answer after normalization"
                )


@dataclass(frozen=True)
class PredictionSet:
    """Ranked candidate windows with scores, plus an answer string.

    answer_text may be empty for grounding-only submissions.
    """

    clip_uid: str
    query_id: str
    windows: tuple[tuple[TemporalWindow, float], ...]
    answer_text: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))
        prev = None
        for window, score in self.windows:
            if not _finite(score) or not (0.0 <= score <= 1.0):
                raise ValidationError(f"score must lie in [0, 1], got {score}")
            if prev is not None and score > prev:
                raise ValidationError("windows must be sorted by score descending")
            prev = score
            if not isinstance(window, TemporalWindow):
                raise ValidationError("each entry must pair a TemporalWindow with a score")


@dataclass(frozen=True)
class MetricValue:
    value: float
    dispersion: float | None = None


@dataclass(frozen=True)
class EvalReport:
    """Metric name to (value, dispersion) mapping with run metadata."""

    metadata: Mapping[str, Any]
    metrics: Mapping[str, MetricValue]

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "metrics", dict(self.metrics))
        for name, mv in self.metrics.items():
            if not _finite(mv.value):
                raise InvariantBreach(f"metric {name!r} has non-finite value {mv.value}")
            if mv.dispersion is not None and not _finite(mv.dispersion):
                raise InvariantBreach(f"metric {name!r} has non-finite dispersion")
            lowered = name.lower()
            if "recall" in lowered or "accuracy" in lowered:
                if not -1e-9 <= mv.value <= 1.0 + 1e-9:
                    raise InvariantBreach(
                        f"metric {name!r} must lie in [0, 1], got {mv.value}"
                    )

    def render_percent(self, name: str) -> str:
        """Render one metric as a percentage with one decimal, e.g. '50.0±22.4'."""
        mv = self.metrics[name]
        out = f"{mv.value * 100:.1f}"
        if mv.dispersion is not None:
            out += f"±{mv.dispersion * 100:.1f}"
        return out


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_track."""

    code: str
    detail: str
    index: int | None = None


def validate_track(track: NarrationTrack) -> list[Violation]:
    """Check every NarrationTrack invariant; return violations as data.

    An empty result means the track is valid. Violations are never raised:
    callers decide whether a broken track is a rejection or a fault.
    """
    out: list[Violation] = []
    if not track.clip_uid:
        out.append(Violation("empty_clip_uid", "clip_uid must be non-empty"))
    duration_finite = _finite(track.duration_s)
    if not duration_finite:
        out.append(Violation("nonfinite_duration", f"duration_s = {track.duration_s}"))
    elif track.duration_s <= 0:
        out.append(Violation("nonpositive_duration", f"duration_s = {track.duration_s}"))
    if not track.narrations:
        out.append(Violation("no_narrations", "the track has no narrations"))
    prev_t = None
    for i, narration in enumerate(track.narrations):
        if not narration.text.strip():
            out.append(Violation("empty_text", "narration text blank after trim", i))
        t = narration.t_s
        if not _finite(t):
            out.append(Violation("nonfinite_timestamp", f"t_s = {t}", i))
            prev_t = None
            continue
        if t < -TIME_EPS:
            out.append(Violation("timestamp_before_start", f"t_s = {t}", i))
        if duration_finite and t > track.duration_s + TIME_EPS:
            out.append(
                Violation(
                    "timestamp_after_end",
                    f"t_s = {t} exceeds duration {track.duration_s}",
                    i,
                )
            )
        if prev_t is not None and t < prev_t - TIME_EPS:
            out.append(
                Violation("non_monotonic_timestamps", f"t_s {t} after {prev_t}", i)
            )
        prev_t = t
    return out


def normalize_answer(text: str) -> str:
    """Canonical answer form used by every string-equality comparison.

    Lowercase, trim, collapse internal whitespace runs to one space, then
    strip any tail of punctuation and spaces, such as "?! .;". After the
    join the only whitespace left is single spaces, so the function is
    idempotent.
    """
    return " ".join(text.lower().split()).rstrip(".,!?;: ")
