"""Blind-filter trials, answerers, and removal rule."""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import egoqa
import egoqa.blindfilter as blindfilter
from egoqa.blindfilter import (
    BLOCK,
    TRIALS,
    FrequencyPriorAnswerer,
    MissingDistractors,
    UniformRandomAnswerer,
    filter_rows,
    trial_outcomes,
)
from egoqa.core import QASample, TemporalWindow, ValidationError, normalize_answer
from egoqa.seeding import choice_orders, derive_seed

from .oracles import ScriptedAnswerer, oracle_shuffle

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


def test_frequency_prior_memo_is_bounded_and_changes_no_pick(monkeypatch):
    monkeypatch.setattr(blindfilter, "COUNT_MEMO", 3)
    training = ["yes"] * 3 + ["Red."] * 2 + ["blue"]
    answerer = FrequencyPriorAnswerer(training)
    counts = {"yes": 3, "red": 2, "blue": 1}
    for choices in (["yes", "RED", "x", "y"], ["red!", "Blue", "z", "w"],
                    ["blue", "x", "YES.", "red"], ["q", "r", "blue ", "s"]) * 3:
        best = max(choices, key=lambda c: counts.get(normalize_answer(c), 0))
        assert answerer.answer("Q?", choices, seed=1) == best
        assert answerer._count.cache_info().currsize <= 3


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
    rows = list(filter_rows([always, nine], answerer, SEEDS))
    assert [(s.question, all(o)) for s, o in rows] == [("Q always?", True), ("Q nine?", False)]
    assert rows[1][1].count(True) == 9


def test_filter_preserves_kept_order():
    samples = [
        _sample(f"Q{i}?", "yes", ("n1", "n2", "n3"), uid=f"c{i}") for i in range(4)
    ]
    answerer = ScriptedAnswerer({}, SEEDS)  # unknown questions: never correct
    rows = list(filter_rows(samples, answerer, SEEDS))
    assert [s.clip_uid for s, o in rows if not all(o)] == ["c0", "c1", "c2", "c3"]


def test_seed_count_enforced():
    s = _sample("Q?", "yes", ("n1", "n2", "n3"))
    with pytest.raises(ValidationError):
        next(filter_rows([s], UniformRandomAnswerer(), SEEDS[:9]))
    with pytest.raises(ValidationError):
        trial_outcomes(s, UniformRandomAnswerer(), SEEDS + [1])


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


# ------------------------------------------------ choice-order kernel

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# Seeds whose shuffle needs 9, 11, 13 and 15 uint32 draws (5 to 8 PCG64
# outputs), found by search; a shuffle needs 3 draws or more, and most
# rows are done after the first 2 outputs.
DEEP_SEEDS = [57, 188235, 1180610, 11032431]
RANDOM_SEEDS = np.random.default_rng(20261018).integers(
    0, 2**64, size=50_000, dtype=np.uint64
).tolist()


def test_choice_orders_match_numpy_on_a_fixed_sweep():
    seeds = [*range(50_000), *RANDOM_SEEDS, *EDGE_SEEDS, *DEEP_SEEDS]
    got = choice_orders(seeds)
    want = np.array([np.random.default_rng(s).permutation(4) for s in seeds])
    assert got.dtype == want.dtype and got.shape == (len(seeds), 4)
    assert np.array_equal(got, want)


def test_sweep_reaches_rows_that_need_extra_draws():
    assert [oracle_shuffle(s) for s in DEEP_SEEDS] == [
        (np.random.default_rng(s).permutation(4).tolist(), n)
        for s, n in zip(DEEP_SEEDS, (9, 11, 13, 15))
    ]
    draws = [oracle_shuffle(s)[1] for s in RANDOM_SEEDS[:2000]]
    assert {3, 4, 5, 6, 7} <= set(draws)


class ChoiceRecorder:
    """Blind answerer that logs every choice tuple it is shown."""

    def __init__(self):
        self.seen = []

    def answer(self, question, choices, seed):
        self.seen.append((question, tuple(choices), seed))
        return choices[seed % 4]


def _corpus(n):
    return [
        _sample(f"Q{i}?", f"a{i % 7}", (f"n{i}", f"m{i % 5}", "other"), uid=f"c{i % 13}")
        for i in range(n)
    ]


@pytest.mark.parametrize("reshuffle", [True, False])
def test_filter_rows_equal_per_sample_trials_across_blocks(reshuffle):
    samples = _corpus(2 * BLOCK + 37)
    blocked, single = ChoiceRecorder(), ChoiceRecorder()
    rows = [outcomes for _, outcomes in filter_rows(samples, blocked, SEEDS, reshuffle)]
    want = [trial_outcomes(s, single, SEEDS, reshuffle) for s in samples]
    assert rows == want
    assert blocked.seen == single.seen


class OffPoolAnswerer:
    """Returns a spelling of a choice that is not in the pool, or no choice."""

    def answer(self, question, choices, seed):
        if seed % 3 == 0:
            return "none of these"
        return " " + choices[seed % 4].upper() + " ?!"


def _naive_outcomes(sample, answerer, seeds, reshuffle):
    """The protocol as written: each trial's order from numpy, each pick
    normalized and compared with the normalized answer."""
    pool = (sample.answer, *sample.wrong_answers)
    outcomes = []
    for seed in seeds:
        order_seed = derive_seed("choices", seed if reshuffle else seeds[0],
                                 sample.clip_uid, sample.question, sample.answer)
        order = np.random.default_rng(order_seed).permutation(4)
        pick = answerer.answer(sample.question, tuple(pool[p] for p in order), seed)
        outcomes.append(normalize_answer(pick) == normalize_answer(sample.answer))
    return tuple(outcomes)


@pytest.mark.parametrize("reshuffle", [True, False])
@pytest.mark.parametrize("make_answerer", [
    lambda samples: FrequencyPriorAnswerer([s.answer for s in samples]),
    lambda samples: UniformRandomAnswerer(),
    lambda samples: OffPoolAnswerer(),
], ids=["frequency", "uniform", "off-pool"])
def test_filter_rows_equal_trial_outcomes_and_the_naive_protocol(make_answerer, reshuffle):
    # A distractor that is another sample's answer ties or beats the answer
    # under the frequency prior, so that answerer does not win every trial.
    samples = [
        _sample(f"Q{i}?", f"a{i % 7}", (f"a{(i + 1 + i // 7 % 6) % 7}", f"m{i % 5}", f"n{i}"),
                uid=f"c{i % 13}")
        for i in range(BLOCK + 44)
    ]
    seeds = list(range(-5, 5))
    rows = [outcomes for _, outcomes in filter_rows(
        samples, make_answerer(samples), seeds, reshuffle)]
    single = [trial_outcomes(s, make_answerer(samples), seeds, reshuffle) for s in samples]
    naive = [_naive_outcomes(s, make_answerer(samples), seeds, reshuffle) for s in samples]
    assert rows == single == naive
    assert any(any(r) for r in rows) and not all(all(r) for r in rows)


def test_missing_distractors_mid_block_raises_after_earlier_rows():
    samples = _corpus(BLOCK + 20)
    samples[BLOCK + 5] = QASample("bad", "Q?", "yes", TemporalWindow(0, 1), split="test")
    seen = []
    with pytest.raises(MissingDistractors):
        for sample, _ in filter_rows(samples, ChoiceRecorder(), SEEDS):
            seen.append(sample)
    assert seen == samples[:BLOCK + 5]


def test_import_leaves_out_synthesis_and_transport():
    # The filter needs only core and seeding; a fresh interpreter shows
    # which modules `import egoqa.blindfilter` really pulls in.
    src = os.path.dirname(os.path.dirname(os.path.abspath(egoqa.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, egoqa.blindfilter; "
        "print(sorted({'egoqa.synthesis', 'egoqa.endpoint', 'http.client'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class FirstChoice:
    """Blind answerer that logs the choices it is shown and picks the first."""

    def __init__(self):
        self.seen = []

    def answer(self, question, choices, seed):
        self.seen.append(tuple(choices))
        return choices[0]


@pytest.mark.parametrize("reshuffle", [True, False])
def test_trial_seeds_are_encoded_per_run_by_their_text(reshuffle):
    # filter_rows encodes its seeds once a run. 1 == True == 1.0, yet "1",
    # "True" and "1.0" derive different choice orders, so a cache that
    # outlived its run, or was keyed by seed value, would show one run the
    # orders of another. All runs share this process.
    samples = _corpus(BLOCK + 3)
    shown = {}
    for seeds in (SEEDS, list(range(TRIALS)), [1] * TRIALS, [True] * TRIALS,
                  [1.0] * TRIALS, [1, True, 1.0, 0, False, 0.0, 2, 3, 4, 5]):
        answerer, naive = FirstChoice(), FirstChoice()
        rows = [outcomes for _, outcomes in filter_rows(samples, answerer, seeds, reshuffle)]
        assert rows == [_naive_outcomes(s, naive, seeds, reshuffle) for s in samples]
        assert answerer.seen == naive.seen
        shown[repr(seeds[0])] = answerer.seen
    assert shown["1"] != shown["True"] != shown["1.0"] != shown["1"]
