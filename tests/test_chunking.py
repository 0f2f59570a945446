"""Greedy chunking bounds, partition property, maximality, and chunk spans."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoqa.chunking import EmptyTrack, NarrationChunk, chunk_track
from egoqa.core import TIME_EPS, TemporalWindow, ValidationError
from egoqa.windows import compute_stats, narration_window

from .conftest import make_track
from .oracles import merge_windows


def _stats_for(*tracks):
    return compute_stats(list(tracks))


def test_worked_example_sizes():
    track = make_track("a", 60.0, [0, 8, 16, 24, 33, 40])
    stats = _stats_for(track, make_track("b", 60.0, [0, 9, 18]))
    sizes = tuple(len(c.members) for c in chunk_track(track, stats))
    assert sizes == (4, 2)


def test_sentence_cap_splits():
    track = make_track("a", 60.0, [0, 1, 2, 3, 4, 5, 6])
    stats = _stats_for(track)
    sizes = tuple(len(c.members) for c in chunk_track(track, stats))
    assert sizes == (5, 2)


def test_span_bound_is_inclusive():
    # second narration exactly 30 s after the first still joins
    track = make_track("a", 60.0, [0.0, 30.0])
    stats = _stats_for(track)
    assert len(chunk_track(track, stats)) == 1
    # a hair past the bound splits
    track2 = make_track("a2", 60.0, [0.0, 30.0000001])
    stats2 = _stats_for(track2)
    assert len(chunk_track(track2, stats2)) == 2


def test_span_anchored_at_first_member_timestamp():
    # hull start is below t=10 after window expansion, but the span rule
    # measures from the first member's timestamp, so t=40 joins
    track = make_track("a", 100.0, [10.0, 40.0])
    stats = _stats_for(track)
    chunks = chunk_track(track, stats)
    assert len(chunks) == 1


def test_chunk_span_is_hull_of_member_windows():
    track = make_track("a", 60.0, [5.0, 15.0])
    stats = _stats_for(track)
    (chunk,) = chunk_track(track, stats)
    # beta == alpha, half-width 0.5
    assert chunk.span.start_s == pytest.approx(4.5)
    assert chunk.span.end_s == pytest.approx(15.5)


def test_empty_track_raises():
    stats = _stats_for(make_track("b", 10.0, [1, 5]))
    with pytest.raises(EmptyTrack):
        chunk_track(make_track("a", 10.0, []), stats)


def test_parameter_validation():
    track = make_track("a", 10.0, [1, 5])
    stats = _stats_for(track)
    with pytest.raises(ValidationError):
        chunk_track(track, stats, max_sentences=0)
    with pytest.raises(ValidationError):
        chunk_track(track, stats, max_span_s=0.0)
    # NaN fails every comparison, so a `<= 0` guard let it through and
    # every narration became its own chunk.
    with pytest.raises(ValidationError, match="max_span_s must be > 0"):
        chunk_track(track, stats, max_span_s=float("nan"))


def test_noncontiguous_members_rejected():
    with pytest.raises(ValidationError):
        NarrationChunk("a", (0, 2), TemporalWindow(0, 1), 0)


def test_random_tracks_satisfy_bounds_partition_maximality():
    rng = np.random.default_rng(13)
    for _ in range(200):
        duration = float(rng.uniform(30, 300))
        count = int(rng.integers(1, 40))
        ts = np.sort(rng.uniform(0, duration, size=count))
        track = make_track("a", duration, ts)
        stats = _stats_for(track, make_track("b", duration, [0, duration / 3]))
        chunks = chunk_track(track, stats)

        # partition: members cover 0..n-1 in order with no gaps or overlap
        flat = [i for c in chunks for i in c.members]
        assert flat == list(range(count))
        assert [c.chunk_index for c in chunks] == list(range(len(chunks)))

        for c in chunks:
            assert 1 <= len(c.members) <= 5
            first_t = track.narrations[c.members[0]].t_s
            last_t = track.narrations[c.members[-1]].t_s
            assert last_t - first_t <= 30.0 + 1e-12

        # greedy maximality: the first member of each later chunk could not
        # have joined its predecessor
        for prev, nxt in zip(chunks, chunks[1:]):
            first_prev_t = track.narrations[prev.members[0]].t_s
            head_t = track.narrations[nxt.members[0]].t_s
            assert len(prev.members) == 5 or head_t - first_prev_t > 30.0


def _edge_timestamps(duration):
    """Timestamps at, and within TIME_EPS of, both ends of a clip."""
    return st.sampled_from([
        0.0, TIME_EPS, TIME_EPS / 2, -TIME_EPS / 2, -TIME_EPS,
        duration, duration - TIME_EPS, duration - TIME_EPS / 2,
        duration + TIME_EPS / 2, duration + TIME_EPS,
    ])


@st.composite
def tolerant_tracks(draw):
    """A track whose timestamps lie in [0, duration] within TIME_EPS.

    Some clips are short-interval: their narrations sit nanoseconds apart
    near one point, so beta is far below alpha and the windows nearly
    collapse. The others mix uniform draws with edge timestamps.
    """
    duration = draw(st.floats(1.0, 600.0))
    n = draw(st.integers(1, 25))
    if draw(st.booleans()):
        base = draw(st.floats(0.0, duration) | _edge_timestamps(duration))
        ts = [min(base + k * 1e-9, duration + TIME_EPS) for k in range(n)]
    else:
        ts = sorted(draw(st.lists(
            st.floats(0.0, duration) | _edge_timestamps(duration), min_size=n, max_size=n,
        )))
    return make_track("t", duration, ts)


# A chunk's span is computed from its members' least and greatest
# timestamps; it must equal, exactly, the hull of the members' own windows,
# and each window must be the formula's on the timestamp clamped into the clip.
@settings(max_examples=300, deadline=None)
@given(track=tolerant_tracks(), max_sentences=st.integers(1, 6),
       max_span_s=st.sampled_from([1e-9, 0.5, 30.0, 1e6]))
def test_chunk_span_equals_hull_of_member_windows(track, max_sentences, max_span_s):
    stats = _stats_for(track, make_track("aux", 100.0, [0.0, 7.0, 19.0]))
    half = stats.beta_by_clip["t"] / (2.0 * stats.alpha_s)
    duration = track.duration_s
    for chunk in chunk_track(track, stats, max_sentences, max_span_s):
        windows = []
        for i in chunk.members:
            t = track.narrations[i].t_s
            window = narration_window(t, "t", stats, duration)
            clamped = min(max(t, 0.0), duration)
            assert window == TemporalWindow(
                max(0.0, clamped - half), min(duration, clamped + half)
            )
            windows.append(window)
        assert chunk.span == merge_windows(windows)


@pytest.mark.parametrize("beyond", [-2 * TIME_EPS, 60.0 + 2 * TIME_EPS, float("nan")])
def test_timestamp_beyond_tolerance_still_raises(beyond):
    stats = _stats_for(make_track("b", 60.0, [0.0, 9.0]))
    with pytest.raises(ValidationError, match="outside clip duration"):
        chunk_track(make_track("b", 60.0, [5.0, beyond, 20.0]), stats)
    with pytest.raises(ValidationError, match="outside clip duration"):
        narration_window(beyond, "b", stats, 60.0)
