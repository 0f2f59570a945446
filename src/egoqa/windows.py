"""Per-narration temporal windows from corpus timing statistics.

Each narration timestamp t_j is expanded into the window
(t_j - beta_i/(2*alpha), t_j + beta_i/(2*alpha)), where beta_i is the mean
interval between consecutive narrations of clip i and alpha is the corpus
mean of the beta values. The half-width ratio is treated as seconds, so a
clip whose pacing matches the corpus average gets windows of length 1 s
before clamping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import TIME_EPS, NarrationTrack, TemporalWindow, ValidationError

class NoIntervalData(ValidationError):
    """No track, or none with two or more narrations and a positive gap."""


@dataclass(frozen=True)
class CorpusTimingStats:
    """alpha plus the per-clip beta values.

    fallback_clips had no usable interval data (fewer than 2 narrations, or
    all gaps zero) and were assigned beta = alpha.
    """

    alpha_s: float
    beta_by_clip: Mapping[str, float]
    fallback_clips: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_by_clip", dict(self.beta_by_clip))
        object.__setattr__(self, "fallback_clips", frozenset(self.fallback_clips))
        if not self.beta_by_clip:
            raise ValidationError("beta_by_clip must not be empty")
        if self.alpha_s <= 0:
            raise ValidationError(f"alpha_s must be > 0, got {self.alpha_s}")
        for uid, beta in self.beta_by_clip.items():
            if beta <= 0:
                raise ValidationError(f"beta for clip {uid!r} must be > 0, got {beta}")
        mean = sum(self.beta_by_clip.values()) / len(self.beta_by_clip)
        if abs(mean - self.alpha_s) > 1e-9 * max(abs(self.alpha_s), 1e-300):
            raise ValidationError(
                f"alpha_s {self.alpha_s} is not the mean of the stored betas ({mean})"
            )


def compute_stats(tracks: Iterable[NarrationTrack]) -> CorpusTimingStats:
    """Derive alpha and per-clip beta from narration timestamps.

    beta_i = mean consecutive-timestamp difference of clip i; alpha = mean of
    the beta_i over clips that contribute interval data. Clips without usable
    intervals fall back to beta_i = alpha and are flagged. Tracks are
    consumed streaming; only one number per clip is retained. The sum behind
    alpha is exact (math.fsum), so alpha does not depend on the clip order.
    """
    raw_beta: dict[str, float | None] = {}
    for track in tracks:
        if track.clip_uid in raw_beta:
            raise ValidationError(f"duplicate clip_uid {track.clip_uid!r}")
        ts = [n.t_s for n in track.narrations]
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        beta = sum(gaps) / len(gaps) if gaps else 0.0
        # No gap, or only zero gaps: no pacing signal, so beta falls back to alpha.
        raw_beta[track.clip_uid] = beta if beta > 0 else None

    if not raw_beta:
        raise NoIntervalData("no clips")
    informative = [b for b in raw_beta.values() if b is not None]
    if not informative:
        raise NoIntervalData(
            "no clip has >= 2 narrations with a positive mean interval"
        )
    alpha = math.fsum(informative) / len(informative)
    return CorpusTimingStats(
        alpha,
        {uid: alpha if beta is None else beta for uid, beta in raw_beta.items()},
        frozenset(uid for uid, beta in raw_beta.items() if beta is None),
    )


def narration_window(
    t_j: float, clip_uid: str, stats: CorpusTimingStats, duration_s: float
) -> TemporalWindow:
    """Expand one narration timestamp into its clamped temporal window.

    Pre-clamp the window is centered on t_j with length beta_i/alpha seconds.
    """
    return hull_window((t_j,), clip_uid, stats, duration_s)


def hull_window(
    ts: Sequence[float], clip_uid: str, stats: CorpusTimingStats, duration_s: float
) -> TemporalWindow:
    """The hull of the clamped windows of one clip's timestamps ts (non-empty).

    Computed in one step from min(ts) and max(ts): IEEE rounding is
    monotone, so max(0, min(ts) - half) is the least window start and
    min(duration, max(ts) + half) the greatest end. Every timestamp must
    lie in [0, duration_s] within TIME_EPS, the tolerance validate_track
    allows; one inside the tolerance is clamped into the clip first.
    """
    if clip_uid not in stats.beta_by_clip:
        raise ValidationError(f"clip {clip_uid!r} absent from timing statistics")
    for t in ts:
        if not -TIME_EPS <= t <= duration_s + TIME_EPS:
            raise ValidationError(
                f"timestamp {t} outside clip duration [0, {duration_s}]"
            )
    half = stats.beta_by_clip[clip_uid] / (2.0 * stats.alpha_s)
    first = min(max(min(ts), 0.0), duration_s)
    last = min(max(max(ts), 0.0), duration_s)
    return TemporalWindow(max(0.0, first - half), min(duration_s, last + half))
