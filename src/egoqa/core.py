"""Shared domain types, identity rules, validation, and lazy imports.

Every other module builds on the value types defined here. All types are
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Mapping, Sequence

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

    Construction does not validate; use validate_track to obtain the
    reason code of every invariant violation.
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


@dataclass(frozen=True)
class QASample:
    """A question, its answer, and the grounding window within a clip.

    wrong_answers, when present, holds three distractors that pass
    choice_forms with the answer, the one rule for a valid choice set.
    normalized then holds the normalized answer and distractors, in that
    order, as choice_forms returns them; it is None without distractors.
    """

    clip_uid: str
    question: str
    answer: str
    window: TemporalWindow
    wrong_answers: tuple[str, str, str] | None = None
    split: str = "train"
    source: str = "synthesized"
    normalized: tuple[str, str, str, str] | None = field(
        init=False, default=None, compare=False, repr=False
    )

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
            object.__setattr__(self, "normalized", choice_forms(self.answer, wrong))


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


def validate_track(track: NarrationTrack) -> list[str]:
    """Check every NarrationTrack invariant; return the reason codes of the
    violations in the order found.

    An empty result means the track is valid. Violations are never raised:
    callers decide whether a broken track is a rejection or a fault.
    """
    out: list[str] = []
    if not track.clip_uid:
        out.append("empty_clip_uid")
    duration_finite = _finite(track.duration_s)
    if not duration_finite:
        out.append("nonfinite_duration")
    elif track.duration_s <= 0:
        out.append("nonpositive_duration")
    if not track.narrations:
        out.append("no_narrations")
    prev_t = None
    for narration in track.narrations:
        if not narration.text.strip():
            out.append("empty_text")
        t = narration.t_s
        if not _finite(t):
            out.append("nonfinite_timestamp")
            prev_t = None
            continue
        if t < -TIME_EPS:
            out.append("timestamp_before_start")
        if duration_finite and t > track.duration_s + TIME_EPS:
            out.append("timestamp_after_end")
        if prev_t is not None and t < prev_t - TIME_EPS:
            out.append("non_monotonic_timestamps")
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


def choice_forms(answer: str, distractors: Sequence[str]) -> tuple[str, str, str, str]:
    """The normalized answer and three distractors of a close-ended sample;
    ValidationError names the first rule they break, in the order below."""
    answer = normalize_answer(answer)
    if not answer:
        raise ValidationError("answer has no text after normalization")
    if len(distractors) != 3:
        raise ValidationError(f"wrong_answers must hold exactly 3 strings, got {len(distractors)}")
    wrong = tuple(map(normalize_answer, distractors))
    if len(set(wrong)) != 3:
        raise ValidationError("duplicate distractor")
    if answer in wrong:
        raise ValidationError("distractor equals the correct answer")
    if "" in wrong:
        raise ValidationError("empty distractor")
    return (answer, *wrong)


def lazy_import(name: str) -> ModuleType:
    """Module `name`, found now and executed on its first attribute access.

    The `importlib.util.LazyLoader` recipe of the importlib docs; a module
    already in sys.modules is returned as it is. A module that cannot be
    found, or that sys.modules blocks with None, raises ModuleNotFoundError
    here, at import. It takes this package's modules too (cli registers
    them), and binds a submodule on its parent package as the import system
    does: `import egoqa.synthesis` then `egoqa.synthesis.synthesize` works.

    Before Python 3.12 LazyLoader is not thread-safe, so a first attribute
    access must not race: every module a worker thread (the synthesis
    pool's) touches must have executed on the main thread before the pool
    starts. synthesis executes there, and its imports execute the rest.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
