"""Blind filtering of close-ended test sets.

A question is removed when a text-only answerer picks the correct choice in
every one of ten seeded trials: such questions are answerable without the
video. Choices are reshuffled per trial by default (configurable), and the
whole procedure is a pure function of the seed list. `filter_rows` is the
one trial loop; `seeding.choice_orders` gives its choice orders, and a
seeded pick among n choices is a derived seed modulo n. A frequency prior
whose top count is held by one choice picks it in every order and under
every seed, so `filter_rows` decides such a sample's ten trials at once,
with the same outcomes; choice seeds are derived only for samples without
such a sure pick.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Protocol, Sequence

from .core import QASample, ValidationError, normalize_answer
from .seeding import choice_heads, choice_orders, choice_seeds, derive_seed

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
    Ties (including all-unseen choices) break by a seeded draw: tied choice
    `derive_seed("freq-prior", seed, question) % len(tied)`.
    """

    def __init__(self, training_answers: Iterable[str]):
        self._counts = Counter(map(normalize_answer, training_answers))

    def answer(self, question: str, choices: Sequence[str], seed: int) -> str:
        scores = [self._counts[normalize_answer(c)] for c in choices]
        best = max(scores)
        tied = [i for i, s in enumerate(scores) if s == best]
        if len(tied) == 1:
            return choices[tied[0]]
        return choices[tied[derive_seed("freq-prior", seed, question) % len(tied)]]

    def sure_pick(self, normalized: Sequence[str]) -> str | None:
        """Of normalized choices, the one `answer` picks in any order and
        under any seed: the unique top count, or None when top counts tie."""
        scores = [self._counts[n] for n in normalized]
        best = max(scores)
        return normalized[scores.index(best)] if scores.count(best) == 1 else None


class UniformRandomAnswerer:
    """Picks choice `derive_seed("uniform", seed, question) % len(choices)`."""

    def answer(self, question: str, choices: Sequence[str], seed: int) -> str:
        return choices[derive_seed("uniform", seed, question) % len(choices)]


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
    pool: tuple[str, ...],
    answerer: BlindAnswerer,
    seeds: Sequence[int],
    orders: Sequence[Sequence[int]],
) -> tuple[bool, ...]:
    """The answerer's trials for one sample, trial t showing pool in orders[t].

    The choices' normalized forms are the sample's own; only a pick outside
    the choices is normalized on its own.
    """
    target = sample.normalized[0]
    correct = {choice: normed == target for choice, normed in zip(pool, sample.normalized)}
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
    A sample is removed when every outcome is True. The seed count is
    checked before the first sample is read. A sample without distractors
    raises MissingDistractors once the pairs before it are yielded; an
    error from `samples` itself propagates as it is read. An answerer with a
    `sure_pick` method (FrequencyPriorAnswerer) gets each sample's normalized
    choices once; a pick it returns is that sample's pick in every trial.
    """
    seeds = list(seeds)
    if len(seeds) != TRIALS:
        raise ValidationError(f"exactly {TRIALS} seeds required, got {len(seeds)}")
    # Each trial's choice order comes from its own seed, or every trial's from the first.
    heads = choice_heads(seeds if reshuffle_per_trial else seeds[:1])
    repeat = TRIALS // len(heads)
    sure_pick = getattr(answerer, "sure_pick", None)
    for sample in samples:
        if sample.wrong_answers is None:
            raise MissingDistractors(
                f"sample {sample.clip_uid!r}/{sample.question!r} has no distractors"
            )
        pick = sure_pick(sample.normalized) if sure_pick else None
        if pick is not None:
            # The distractors differ from the answer after normalization (a
            # QASample invariant), so the pick is correct exactly when it is the answer.
            yield sample, (pick == sample.normalized[0],) * TRIALS
            continue
        pool = (sample.answer, *sample.wrong_answers)
        orders = choice_orders(choice_seeds(sample, heads)) * repeat
        yield sample, _trials(sample, pool, answerer, seeds, orders)
