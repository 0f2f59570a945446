"""Blind filtering of close-ended test sets.

A question is removed when a text-only answerer picks the correct choice in
every one of ten seeded trials: such questions are answerable without the
video. Choices are reshuffled per trial by default (configurable), and the
whole procedure is a pure function of the seed list.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .core import QASample, ValidationError, normalize_answer
from .seeding import choice_order, choice_orders, choice_seeds, derive_seed

TRIALS = 10
# Samples per choice_orders call. At 2,560 trial seeds the kernel's fixed
# cost (about 0.4 ms a call) is about 1% of the block's trials.
BLOCK = 256
# Distinct choice strings whose training count FrequencyPriorAnswerer keeps.
COUNT_MEMO = 4096


class MissingDistractors(ValidationError):
    """A sample submitted for blind filtering lacks its three distractors."""


class BlindAnswerer(Protocol):
    """Text-only answerer: picks one of the shuffled choices for a question.

    Implementations must be deterministic in (question, choices, seed).
    """

    def answer(self, question: str, choices: Sequence[str], seed: int) -> str: ...


class FrequencyPriorAnswerer:
    """Picks the choice most frequent among training answers.

    A strong no-video baseline: rare distractors lose to common answers.
    Ties (including all-unseen choices) break by a seeded draw. Counts are
    memoized by raw choice text (at most COUNT_MEMO), so the same choices
    shown in a sample's ten trials are normalized once.
    """

    def __init__(self, training_answers: Iterable[str]):
        counts = Counter(map(normalize_answer, training_answers))
        self._count = lru_cache(COUNT_MEMO)(lambda choice: counts[normalize_answer(choice)])

    def answer(self, question: str, choices: Sequence[str], seed: int) -> str:
        scores = [self._count(c) for c in choices]
        best = max(scores)
        tied = [i for i, s in enumerate(scores) if s == best]
        if len(tied) == 1:
            return choices[tied[0]]
        rng = np.random.default_rng(derive_seed("freq-prior", seed, question))
        return choices[tied[int(rng.integers(len(tied)))]]


class UniformRandomAnswerer:
    """Picks uniformly at random among the choices, seeded per question."""

    def answer(self, question: str, choices: Sequence[str], seed: int) -> str:
        rng = np.random.default_rng(derive_seed("uniform", seed, question))
        return choices[int(rng.integers(len(choices)))]


@dataclass(frozen=True)
class FilterRow:
    clip_uid: str
    question: str
    outcomes: tuple[bool, ...]
    removed: bool


@dataclass(frozen=True)
class FilterReport:
    total: int
    removed: int
    kept: int
    rows: tuple[FilterRow, ...]

    def __post_init__(self) -> None:
        if self.removed + self.kept != self.total:
            raise ValidationError("removed + kept must equal total")
        for row in self.rows:
            if row.removed != all(row.outcomes):
                raise ValidationError(
                    f"row for {row.question!r} marked removed={row.removed} but "
                    f"outcomes are {row.outcomes}"
                )

    @classmethod
    def from_rows(cls, rows: Sequence[FilterRow]) -> "FilterReport":
        removed = sum(1 for r in rows if r.removed)
        return cls(len(rows), removed, len(rows) - removed, tuple(rows))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "removed": self.removed,
            "kept": self.kept,
            "rows": [
                {
                    "clip_uid": r.clip_uid,
                    "question": r.question,
                    "outcomes": list(r.outcomes),
                    "removed": r.removed,
                }
                for r in self.rows
            ],
        }


def trial_outcomes(
    sample: QASample,
    answerer: BlindAnswerer,
    seeds: Sequence[int],
    reshuffle_per_trial: bool = True,
) -> tuple[bool, ...]:
    """Run the ten seeded trials for one sample; True marks a correct pick.

    Each trial shuffles the four choices with its own seed (or reuses the
    first trial's shuffle when reshuffle_per_trial is False) and asks the
    answerer; correctness is normalized string equality.
    """
    if sample.wrong_answers is None:
        raise _missing_distractors(sample)
    orders = [choice_order(s) for s in _choice_seeds(sample, seeds, reshuffle_per_trial)]
    return _trials(sample, answerer, seeds, orders)


def _missing_distractors(sample: QASample) -> MissingDistractors:
    return MissingDistractors(
        f"sample {sample.clip_uid!r}/{sample.question!r} has no distractors"
    )


def _choice_seeds(
    sample: QASample, seeds: Sequence[int], reshuffle_per_trial: bool
) -> list[int]:
    """Each trial's choice-order seed: from its own seed, or from the first trial's."""
    if reshuffle_per_trial:
        return choice_seeds(sample, seeds)
    return choice_seeds(sample, seeds[:1]) * len(seeds)


def _trials(
    sample: QASample,
    answerer: BlindAnswerer,
    seeds: Sequence[int],
    orders: Sequence[Sequence[int]],
) -> tuple[bool, ...]:
    """The answerer's trials for one sample, trial t showing the choices in orders[t].

    Each choice is normalized once; only a pick outside the choices is
    normalized on its own.
    """
    pool = (sample.answer, *sample.wrong_answers)
    target = normalize_answer(sample.answer)
    correct = {choice: normalize_answer(choice) == target for choice in pool}
    outcomes = []
    for seed, order in zip(seeds, orders):
        pick = answerer.answer(sample.question, tuple(pool[p] for p in order), seed)
        hit = correct.get(pick)
        outcomes.append(normalize_answer(pick) == target if hit is None else hit)
    return tuple(outcomes)


def filter_rows(
    samples: Iterable[QASample],
    answerer: BlindAnswerer,
    seeds: Sequence[int],
    reshuffle_per_trial: bool = True,
) -> Iterator[tuple[QASample, FilterRow]]:
    """Stream (sample, outcome row) pairs, one per input sample, in order.

    Samples are read BLOCK at a time, and one `choice_orders` call gives
    the choice orders of a whole block: the orders `trial_outcomes` gets
    from numpy one at a time. The seed count is checked before the first
    sample is read. A sample without distractors ends its block: the rows
    of the samples before it are yielded, then MissingDistractors is
    raised. An error from `samples` itself propagates as the block is read.
    """
    seeds = list(seeds)
    if len(seeds) != TRIALS:
        raise ValidationError(f"exactly {TRIALS} seeds required, got {len(seeds)}")
    samples = iter(samples)
    while True:
        block: list[QASample] = []
        missing = None
        for sample in samples:
            if sample.wrong_answers is None:
                missing = sample
                break
            block.append(sample)
            if len(block) == BLOCK:
                break
        orders = choice_orders(
            [s for sample in block for s in _choice_seeds(sample, seeds, reshuffle_per_trial)]
        ).tolist()
        for i, sample in enumerate(block):
            outcomes = _trials(sample, answerer, seeds, orders[i * TRIALS:(i + 1) * TRIALS])
            yield sample, FilterRow(sample.clip_uid, sample.question, outcomes, all(outcomes))
        if missing is not None:
            raise _missing_distractors(missing)
        if len(block) < BLOCK:
            return


def filter_test_set(
    samples: Iterable[QASample],
    answerer: BlindAnswerer,
    seeds: Sequence[int],
    reshuffle_per_trial: bool = True,
) -> tuple[tuple[QASample, ...], FilterReport]:
    """Drop samples the answerer gets right in all ten trials.

    Kept samples retain their input order; the report carries every
    sample's per-trial outcome row.
    """
    pairs = list(filter_rows(samples, answerer, seeds, reshuffle_per_trial))
    kept = tuple(sample for sample, row in pairs if not row.removed)
    return kept, FilterReport.from_rows([row for _, row in pairs])
