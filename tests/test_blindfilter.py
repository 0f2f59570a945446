"""Blind-filter trials, answerers, and removal rule."""
from __future__ import annotations

import pytest

from egoqa.blindfilter import (
    TRIALS,
    FilterReport,
    FilterRow,
    FrequencyPriorAnswerer,
    MissingDistractors,
    UniformRandomAnswerer,
    filter_test_set,
    trial_outcomes,
)
from egoqa.core import QASample, TemporalWindow, ValidationError

from .oracles import ScriptedAnswerer

SEEDS = list(range(100, 100 + TRIALS))


def _sample(question, answer, wrong, uid="c1"):
    return QASample(
        clip_uid=uid,
        question=question,
        answer=answer,
        window=TemporalWindow(0.0, 5.0),
        wrong_answers=wrong,
        split="test",
    )


def test_frequency_prior_picks_common_answer():
    answerer = FrequencyPriorAnswerer(["yes"] * 5 + ["red"])
    picked = answerer.answer("Did I?", ["maybe", "yes", "never", "red"], seed=1)
    assert picked == "yes"


def test_frequency_prior_normalizes_before_counting():
    answerer = FrequencyPriorAnswerer(["Yes.", "YES", "yes"])
    picked = answerer.answer("Did I?", ["no", "yes", "later", "red"], seed=1)
    assert picked == "yes"


def test_frequency_prior_tie_breaks_deterministically():
    answerer = FrequencyPriorAnswerer([])
    choices = ["a", "b", "c", "d"]
    first = answerer.answer("Q?", choices, seed=7)
    assert all(answerer.answer("Q?", choices, seed=7) == first for _ in range(5))


def test_uniform_answerer_deterministic_per_seed():
    answerer = UniformRandomAnswerer()
    choices = ["a", "b", "c", "d"]
    assert answerer.answer("Q?", choices, 3) == answerer.answer("Q?", choices, 3)


def test_trial_outcomes_length_and_determinism():
    s = _sample("Did I close the door?", "yes", ("no", "maybe", "later"))
    answerer = UniformRandomAnswerer()
    outcomes = trial_outcomes(s, answerer, SEEDS)
    assert len(outcomes) == TRIALS
    assert outcomes == trial_outcomes(s, answerer, SEEDS)


def test_trial_outcomes_requires_distractors():
    s = QASample("c1", "Did I?", "yes", TemporalWindow(0, 1), split="test")
    with pytest.raises(MissingDistractors):
        trial_outcomes(s, UniformRandomAnswerer(), SEEDS)


def test_removal_requires_all_ten_correct():
    always = _sample("Q always?", "yes", ("n1", "n2", "n3"))
    nine = _sample("Q nine?", "yes", ("n1", "n2", "n3"))
    answerer = ScriptedAnswerer(
        {always.question: "yes", nine.question: "yes"},
        SEEDS,
        script={
            always.question: [True] * 10,
            nine.question: [True] * 9 + [False],
        },
    )
    kept, report = filter_test_set([always, nine], answerer, SEEDS)
    assert [s.question for s in kept] == ["Q nine?"]
    assert report.total == 2 and report.removed == 1 and report.kept == 1
    row = next(r for r in report.rows if r.question == "Q nine?")
    assert row.outcomes.count(True) == 9


def test_filter_preserves_kept_order():
    samples = [
        _sample(f"Q{i}?", "yes", ("n1", "n2", "n3"), uid=f"c{i}") for i in range(4)
    ]
    answerer = ScriptedAnswerer({}, SEEDS)  # unknown questions: never correct
    kept, report = filter_test_set(samples, answerer, SEEDS)
    assert [s.clip_uid for s in kept] == ["c0", "c1", "c2", "c3"]
    assert report.removed == 0


def test_seed_count_enforced():
    s = _sample("Q?", "yes", ("n1", "n2", "n3"))
    with pytest.raises(ValidationError):
        filter_test_set([s], UniformRandomAnswerer(), SEEDS[:9])


def test_reshuffle_toggle_changes_choice_order_exposure():
    s = _sample("Did I wave?", "yes", ("no", "maybe", "later"))

    class Recorder:
        def __init__(self):
            self.seen = []

        def answer(self, question, choices, seed):
            self.seen.append(tuple(choices))
            return choices[0]

    rec = Recorder()
    trial_outcomes(s, rec, SEEDS, reshuffle_per_trial=False)
    assert len(set(rec.seen)) == 1
    rec2 = Recorder()
    trial_outcomes(s, rec2, SEEDS, reshuffle_per_trial=True)
    assert len(set(rec2.seen)) > 1


def test_report_consistency_enforced():
    with pytest.raises(ValidationError):
        FilterReport(total=2, removed=1, kept=0, rows=())
    with pytest.raises(ValidationError):
        FilterReport(
            total=1,
            removed=1,
            kept=0,
            rows=(FilterRow("c1", "Q?", (True, False), True),),
        )
