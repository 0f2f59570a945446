"""Value-type validation and the answer normalization contract."""
from __future__ import annotations

import math

import numpy as np
import pytest

from egoqa.core import (
    EvalReport,
    MetricValue,
    Narration,
    NarrationTrack,
    PredictionSet,
    QASample,
    TemporalWindow,
    ValidationError,
    normalize_answer,
    validate_track,
)

from .conftest import make_track


class TestTemporalWindow:
    def test_length_and_center(self):
        w = TemporalWindow(2.0, 8.0)
        assert w.length_s == 6.0
        assert w.center_s == 5.0

    def test_degenerate_point_allowed(self):
        w = TemporalWindow(3.0, 3.0)
        assert w.length_s == 0.0

    @pytest.mark.parametrize(
        "start,end",
        [(-0.1, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.inf)],
    )
    def test_rejects_bad_endpoints(self, start, end):
        with pytest.raises(ValidationError):
            TemporalWindow(start, end)


class TestQASample:
    def _sample(self, **kw):
        base = dict(
            clip_uid="c1",
            question="What did I hold?",
            answer="a cup",
            window=TemporalWindow(0.0, 4.0),
        )
        base.update(kw)
        return QASample(**base)

    def test_valid_without_distractors(self):
        s = self._sample()
        assert s.wrong_answers is None

    def test_valid_with_distractors(self):
        s = self._sample(wrong_answers=("a plate", "a fork", "a spoon"))
        assert len(s.wrong_answers) == 3

    def test_rejects_wrong_count(self):
        with pytest.raises(ValidationError):
            self._sample(wrong_answers=("a plate", "a fork"))

    def test_rejects_distractor_equal_to_answer_after_normalization(self):
        # "A Cup." normalizes to "a cup", colliding with the answer
        with pytest.raises(ValidationError):
            self._sample(wrong_answers=("A Cup.", "a fork", "a spoon"))

    def test_rejects_duplicate_distractors(self):
        with pytest.raises(ValidationError):
            self._sample(wrong_answers=("a fork", "a  fork ", "a spoon"))

    def test_rejects_blank_question(self):
        with pytest.raises(ValidationError):
            self._sample(question="   ")

    def test_rejects_unknown_split(self):
        with pytest.raises(ValidationError):
            self._sample(split="dev")


class TestPredictionSet:
    def test_accepts_descending_scores(self):
        PredictionSet(
            "c1",
            "c1::0",
            ((TemporalWindow(0, 2), 0.9), (TemporalWindow(3, 5), 0.9), (TemporalWindow(1, 2), 0.2)),
        )

    def test_rejects_ascending_scores(self):
        with pytest.raises(ValidationError):
            PredictionSet("c1", "c1::0", ((TemporalWindow(0, 2), 0.2), (TemporalWindow(3, 5), 0.9)))

    def test_rejects_score_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            PredictionSet("c1", "c1::0", ((TemporalWindow(0, 2), 1.5),))


class TestEvalReport:
    def test_render_percent_with_dispersion(self):
        report = EvalReport({}, {"accuracy": MetricValue(0.5, 0.2236068)})
        assert report.render_percent("accuracy") == "50.0±22.4"

    def test_render_percent_without_dispersion(self):
        report = EvalReport({}, {"rouge_l": MetricValue(0.333333)})
        assert report.render_percent("rouge_l") == "33.3"

    def test_rejects_out_of_range_recall(self):
        from egoqa.core import InvariantBreach

        with pytest.raises(InvariantBreach):
            EvalReport({}, {"recall@1_iou0.3": MetricValue(1.5)})


class TestValidateTrack:
    def test_clean_track_has_no_violations(self):
        assert validate_track(make_track("c1", 30.0, [1.0, 5.0, 9.0])) == []

    def test_codes_for_each_defect(self):
        track = NarrationTrack(
            clip_uid="",
            duration_s=100.0,
            narrations=(
                Narration("   ", 1.0),
                Narration("C walks.", math.nan),
                Narration("C sits.", -5.0),
                Narration("C stands.", 199.0),
                Narration("C waves.", 4.0),
            ),
        )
        codes = [v.code for v in validate_track(track)]
        assert "empty_clip_uid" in codes
        assert "empty_text" in codes
        assert "nonfinite_timestamp" in codes
        assert "timestamp_before_start" in codes
        assert "timestamp_after_end" in codes
        assert "non_monotonic_timestamps" in codes

    def test_nonpositive_duration_code(self):
        codes = [v.code for v in validate_track(make_track("c1", -3.0, [1.0]))]
        assert codes == ["nonpositive_duration", "timestamp_after_end"]

    def test_nonfinite_duration_skips_end_check(self):
        codes = [v.code for v in validate_track(make_track("c1", math.inf, [1.0]))]
        assert codes == ["nonfinite_duration"]

    def test_empty_track_code(self):
        codes = [v.code for v in validate_track(make_track("c1", 10.0, []))]
        assert codes == ["no_narrations"]

    def test_timestamp_after_end(self):
        track = make_track("c1", 10.0, [1.0, 12.0])
        codes = [v.code for v in validate_track(track)]
        assert codes == ["timestamp_after_end"]

    def test_tolerance_absorbs_rounding(self):
        # within TIME_EPS of the boundary counts as inside
        track = make_track("c1", 10.0, [0.0, 10.0 + 5e-7])
        assert validate_track(track) == []


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  In the Fridge. ", "in the fridge"),
            ("TWO   pieces!", "two pieces"),
            ("a cup", "a cup"),
            ("On the shelf?!", "on the shelf"),
            ("", ""),
            ("...", ""),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_answer(raw) == expected

    def test_idempotent_on_random_strings(self):
        rng = np.random.default_rng(20240817)
        alphabet = list("abcXYZ012 .,!?;:\t\n")
        for _ in range(500):
            n = int(rng.integers(0, 30))
            raw = "".join(rng.choice(alphabet) for _ in range(n))
            once = normalize_answer(raw)
            assert normalize_answer(once) == once
