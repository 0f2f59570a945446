"""Timing statistics and the narration-window expansion rule."""
from __future__ import annotations

import numpy as np
import pytest

from egoqa.core import TemporalWindow, ValidationError
from egoqa.windows import (
    CorpusTimingStats,
    NoIntervalData,
    compute_stats,
    narration_window,
)

from .conftest import make_track
from .oracles import merge_windows


def test_worked_example():
    # betas 8, 9, 10 -> alpha 9; half-widths 8/18, 9/18, 10/18
    tracks = [
        make_track("a", 60.0, [0, 8, 16, 24, 33, 40]),
        make_track("b", 30.0, [2, 10, 20]),
        make_track("c", 45.0, [1, 11, 21, 31]),
    ]
    stats = compute_stats(tracks)
    assert stats.alpha_s == pytest.approx(9.0, rel=1e-12)
    assert stats.beta_by_clip == pytest.approx({"a": 8.0, "b": 9.0, "c": 10.0})
    assert stats.fallback_clips == frozenset()

    w = narration_window(20.0, "b", stats, 30.0)
    assert w.start_s == pytest.approx(19.5)
    assert w.end_s == pytest.approx(20.5)


def test_matching_pace_gives_unit_window():
    # a clip with beta == alpha must yield a pre-clamp length of exactly 1 s
    tracks = [make_track("a", 100.0, [0, 5, 10]), make_track("b", 100.0, [0, 5, 10])]
    stats = compute_stats(tracks)
    w = narration_window(50.0, "a", stats, 100.0)
    assert w.length_s == 1.0


def test_clamping_at_clip_edges():
    tracks = [make_track("a", 10.0, [0, 4, 8]), make_track("b", 10.0, [0, 4, 8])]
    stats = compute_stats(tracks)
    start_edge = narration_window(0.0, "a", stats, 10.0)
    assert start_edge.start_s == 0.0
    assert start_edge.end_s == pytest.approx(0.5)
    end_edge = narration_window(10.0, "a", stats, 10.0)
    assert end_edge.end_s == 10.0


def test_alpha_does_not_depend_on_clip_order():
    # betas 0.1, 0.2, 0.3: a left-to-right float sum gives 0.6000000000000001
    # in this order and 0.6 in reverse; the exact sum gives 0.6 in both
    tracks = [make_track(uid, 1.0, [0.0, beta]) for uid, beta in zip("abc", (0.1, 0.2, 0.3))]
    forward, backward = compute_stats(tracks), compute_stats(tracks[::-1])
    assert forward.alpha_s == backward.alpha_s == 0.6 / 3
    assert forward.beta_by_clip == backward.beta_by_clip


def test_fallback_for_single_narration_clip():
    tracks = [make_track("a", 30.0, [2, 10, 20]), make_track("solo", 30.0, [5])]
    stats = compute_stats(tracks)
    assert stats.fallback_clips == frozenset({"solo"})
    # fallback clips take beta = alpha, computed from informative clips only
    assert stats.alpha_s == pytest.approx(9.0)
    assert stats.beta_by_clip["solo"] == pytest.approx(9.0)


def test_all_zero_gaps_treated_as_fallback():
    tracks = [make_track("a", 30.0, [2, 10, 20]), make_track("dup", 30.0, [5, 5, 5])]
    stats = compute_stats(tracks)
    assert stats.fallback_clips == frozenset({"dup"})
    assert stats.beta_by_clip["dup"] == pytest.approx(9.0)


def test_short_interval_flagging():
    # A genuine sub-microsecond interval is pacing data, not a fallback.
    tracks = [
        make_track("a", 30.0, [2, 10, 20]),
        make_track("fast", 30.0, [5.0, 5.0 + 4e-7]),
    ]
    stats = compute_stats(tracks)
    assert stats.fallback_clips == frozenset()


def test_no_interval_data_raises():
    with pytest.raises(NoIntervalData):
        compute_stats([make_track("a", 10.0, [3]), make_track("b", 10.0, [4, 4])])


def test_duplicate_clip_uid_rejected():
    with pytest.raises(ValidationError):
        compute_stats([make_track("a", 10.0, [1, 5]), make_track("a", 10.0, [2, 6])])


def test_unknown_clip_rejected():
    stats = compute_stats([make_track("a", 10.0, [1, 5])])
    with pytest.raises(ValidationError, match="clip 'zzz' absent from timing statistics"):
        narration_window(3.0, "zzz", stats, 10.0)


def test_timestamp_outside_duration_rejected():
    stats = compute_stats([make_track("a", 10.0, [1, 5])])
    with pytest.raises(ValidationError):
        narration_window(11.0, "a", stats, 10.0)


def test_stats_invariant_enforced():
    with pytest.raises(ValidationError):
        CorpusTimingStats(5.0, {"a": 1.0, "b": 2.0})
    # honest mean passes
    CorpusTimingStats(1.5, {"a": 1.0, "b": 2.0})


def test_compute_stats_accepts_generator():
    def gen():
        yield make_track("a", 30.0, [2, 10, 20])
        yield make_track("b", 30.0, [0, 10])

    stats = compute_stats(gen())
    assert set(stats.beta_by_clip) == {"a", "b"}


def test_merge_windows_hull():
    hull = merge_windows(
        [TemporalWindow(3, 5), TemporalWindow(1, 2), TemporalWindow(4, 9)]
    )
    assert (hull.start_s, hull.end_s) == (1, 9)
    with pytest.raises(ValueError):
        merge_windows([])


def test_random_corpora_match_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_clips = int(rng.integers(1, 8))
        tracks = []
        betas = {}
        for i in range(n_clips):
            uid = f"c{i}"
            duration = float(rng.uniform(20, 200))
            count = int(rng.integers(1, 12))
            ts = np.sort(rng.uniform(0, duration, size=count))
            tracks.append(make_track(uid, duration, ts))
            if count >= 2:
                gaps = np.diff(ts)
                if gaps.mean() > 0:
                    betas[uid] = float(gaps.mean())
        if not betas:
            with pytest.raises(NoIntervalData):
                compute_stats(tracks)
            continue
        stats = compute_stats(tracks)
        alpha = sum(betas.values()) / len(betas)
        assert stats.alpha_s == pytest.approx(alpha, rel=1e-12)
        for track in tracks:
            expected = betas.get(track.clip_uid, alpha)
            assert stats.beta_by_clip[track.clip_uid] == pytest.approx(expected, rel=1e-12)
            for narration in track.narrations:
                w = narration_window(narration.t_s, track.clip_uid, stats, track.duration_s)
                half = expected / (2 * alpha)
                assert w.start_s == pytest.approx(max(0.0, narration.t_s - half), abs=1e-12)
                assert w.end_s == pytest.approx(
                    min(track.duration_s, narration.t_s + half), abs=1e-12
                )
