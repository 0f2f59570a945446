"""Blind filtering of close-ended test sets.

A question is removed when a text-only answerer picks the correct choice in
every one of ten seeded trials: such questions are answerable without the
video. Choices are reshuffled per trial by default (configurable), and the
whole procedure is a pure function of the seed list. `filter_rows` is the
one trial loop; `seeding.choice_orders` gives its choice orders.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .core import QASample, ValidationError, normalize_answer
from .seeding import choice_heads, choice_orders, choice_seeds, derive_seed

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


def trial_outcomes(
    sample: QASample,
    answerer: BlindAnswerer,
    seeds: Sequence[int],
    reshuffle_per_trial: bool = True,
) -> tuple[bool, ...]:
    """One sample's outcomes from `filter_rows`; True marks a correct pick.

    Takes exactly TRIALS seeds and raises MissingDistractors for a sample
    without distractors, as `filter_rows` does.
    """
    ((_, outcomes),) = filter_rows((sample,), answerer, seeds, reshuffle_per_trial)
    return outcomes


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
    for seed, (a, b, c, d) in zip(seeds, orders):
        pick = answerer.answer(sample.question, (pool[a], pool[b], pool[c], pool[d]), seed)
        hit = correct.get(pick)
        outcomes.append(normalize_answer(pick) == target if hit is None else hit)
    return tuple(outcomes)


def filter_rows(
    samples: Iterable[QASample],
    answerer: BlindAnswerer,
    seeds: Sequence[int],
    reshuffle_per_trial: bool = True,
) -> Iterator[tuple[QASample, tuple[bool, ...]]]:
    """Stream (sample, outcomes) pairs, one per input sample, in order.

    outcomes[t] is True when the answerer picked the correct choice in the
    trial with seeds[t], shown in the order of the sample's choice seed for
    seeds[t] (for seeds[0] in every trial if reshuffle_per_trial is False).
    A sample is removed when every outcome is True. Samples are read BLOCK
    at a time, and one `choice_orders` call orders a whole block. The seed
    count is checked before the first sample is read. A sample without
    distractors ends its block: the pairs before it are yielded, then
    MissingDistractors is raised. An error from `samples` itself
    propagates as the block is read.
    """
    seeds = list(seeds)
    if len(seeds) != TRIALS:
        raise ValidationError(f"exactly {TRIALS} seeds required, got {len(seeds)}")
    # Each trial's choice order comes from its own seed, or every trial's from the first.
    heads = choice_heads(seeds if reshuffle_per_trial else seeds[:1])
    repeat = TRIALS // len(heads)
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
            [s for sample in block for s in choice_seeds(sample, heads) * repeat]
        ).tolist()
        for i, sample in enumerate(block):
            yield sample, _trials(sample, answerer, seeds, orders[i * TRIALS:(i + 1) * TRIALS])
        if missing is not None:
            raise MissingDistractors(
                f"sample {missing.clip_uid!r}/{missing.question!r} has no distractors"
            )
        if len(block) < BLOCK:
            return
