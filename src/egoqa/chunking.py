"""Greedy segmentation of narration tracks into QA-generation chunks.

A narration joins the open chunk while the chunk stays under the sentence
cap and the narration's timestamp is within the span limit of the chunk's
first member; otherwise a new chunk opens. Both bounds are inclusive. The
span limit is anchored at the first member's timestamp, not at the merged
window's start.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import NarrationTrack, TemporalWindow, ValidationError
from .windows import CorpusTimingStats, hull_window


@dataclass(frozen=True)
class NarrationChunk:
    """A run of consecutive narrations from one clip.

    members are indices into the parent track's narration sequence; span is
    the hull of the members' estimated windows.
    """

    clip_uid: str
    members: tuple[int, ...]
    span: TemporalWindow
    chunk_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValidationError("chunk must have at least one member")
        for a, b in zip(self.members, self.members[1:]):
            if b != a + 1:
                raise ValidationError("chunk members must be contiguous indices")


def chunk_track(
    track: NarrationTrack,
    stats: CorpusTimingStats,
    max_sentences: int = 5,
    max_span_s: float = 30.0,
) -> tuple[NarrationChunk, ...]:
    """Partition a validated track into greedy left-to-right chunks."""
    if max_sentences < 1:
        raise ValidationError(f"max_sentences must be >= 1, got {max_sentences}")
    if not max_span_s > 0:
        raise ValidationError(f"max_span_s must be > 0, got {max_span_s}")
    if not track.narrations:
        raise ValidationError(f"clip {track.clip_uid!r} has no narrations")

    ts = [narration.t_s for narration in track.narrations]
    starts: list[int] = []
    open_first_t = 0.0
    for i, t in enumerate(ts):
        if not (starts and i - starts[-1] < max_sentences and t - open_first_t <= max_span_s):
            starts.append(i)
            open_first_t = t
    ends = starts[1:] + [len(ts)]
    return tuple(
        NarrationChunk(
            track.clip_uid,
            tuple(range(start, end)),
            hull_window(ts[start:end], track.clip_uid, stats, track.duration_s),
            chunk_index,
        )
        for chunk_index, (start, end) in enumerate(zip(starts, ends))
    )
