"""Blind filtering of close-ended test sets.

A question is removed when a text-only answerer picks the correct choice in
every one of ten seeded trials: such questions are answerable without the
video. Choices are reshuffled per trial by default (configurable), and the
whole procedure is a pure function of the seed list.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .core import QASample, ValidationError, normalize_answer
from .seeding import derive_seed
from .synthesis import shuffled_choices

TRIALS = 10


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
    Ties (including all-unseen choices) break by a seeded draw.
    """

    def __init__(self, training_answers: Sequence[str]):
        self._counts: dict[str, int] = {}
        for answer in training_answers:
            key = normalize_answer(answer)
            self._counts[key] = self._counts.get(key, 0) + 1

    def answer(self, question: str, choices: Sequence[str], seed: int) -> str:
        scores = [self._counts.get(normalize_answer(c), 0) for c in choices]
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
        raise MissingDistractors(
            f"sample {sample.clip_uid!r}/{sample.question!r} has no distractors"
        )
    target = normalize_answer(sample.answer)
    outcomes = []
    for seed in seeds:
        shuffle_seed = seed if reshuffle_per_trial else seeds[0]
        choices, _ = shuffled_choices(sample, shuffle_seed)
        picked = answerer.answer(sample.question, choices, seed)
        outcomes.append(normalize_answer(picked) == target)
    return tuple(outcomes)


def filter_rows(
    samples: Iterable[QASample],
    answerer: BlindAnswerer,
    seeds: Sequence[int],
    reshuffle_per_trial: bool = True,
) -> Iterator[tuple[QASample, FilterRow]]:
    """Stream (sample, outcome row) pairs, one per input sample, in order.

    The seed count is checked before the first sample is read; a sample
    without distractors fails when it arrives.
    """
    seeds = list(seeds)
    if len(seeds) != TRIALS:
        raise ValidationError(f"exactly {TRIALS} seeds required, got {len(seeds)}")
    for sample in samples:
        outcomes = trial_outcomes(sample, answerer, seeds, reshuffle_per_trial)
        yield sample, FilterRow(sample.clip_uid, sample.question, outcomes, all(outcomes))


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
