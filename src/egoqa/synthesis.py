"""QA pair and distractor generation against a chat endpoint.

openqa_unit makes one chunk's QA request and distractor_unit one sample's
distractor request; each leaves an audit record, so the number of records
always equals the number of chunks (or samples) submitted. _run_jobs is the
one scheduler: a bounded worker pool fed lazily from a job iterable that
yields results in input order, never completion order, and stops at the
first job that fails. generate_openqa and attach_distractors run one batch
of units through it; the synthesize command runs its whole input through a
single call, each job a chunk's QA request chained with its distractor
request.
"""
from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .chunking import NarrationChunk
from .core import NarrationTrack, QASample, ValidationError
from .endpoint import ChatEndpoint, EndpointConfig, EndpointUnavailable
from .prompts import (
    PARSE_MALFORMED,
    PARSE_OK,
    ParsedCompletion,
    PromptTemplate,
    parse_closeqa_completion,
    parse_openqa_completion,
    render_closeqa_prompt,
    render_openqa_prompt,
)
from .seeding import choice_order, derive_seed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GenerationRecord:
    """Audit trail for one generation request.

    ref identifies the unit: the chunk index for openqa, the question text
    for closeqa. raw_completion is the last attempt's raw text.
    """

    kind: str
    clip_uid: str
    ref: str
    raw_completion: str
    parse_status: str
    attempts: int
    question: str | None = None
    answer: str | None = None
    wrong_answers: tuple[str, ...] | None = None
    reason: str | None = None


def _attempt_loop(
    endpoint: ChatEndpoint, prompt: str, parse, max_retries: int
) -> tuple[ParsedCompletion, str, int]:
    """Call the endpoint until the completion parses or retries run out.

    Only malformed completions are retried; constraint violations are final
    (resubmitting an identical prompt cannot fix an over-length answer at
    temperature 0, and truncating would fabricate data).
    """
    raw = ""
    parsed = ParsedCompletion(PARSE_MALFORMED, reason="no attempt made")
    attempts = 0
    for attempt in range(max_retries + 1):
        raw = endpoint.complete(prompt)
        attempts = attempt + 1
        parsed = parse(raw)
        if parsed.status != PARSE_MALFORMED:
            break
    return parsed, raw, attempts


# Jobs a pool may hold per worker, running or finished but not yet yielded.
WINDOW_PER_WORKER = 4


def _run_jobs(jobs: Iterable, worker: Callable, parallelism: int) -> Iterator:
    """Yield worker(job) for every job, in input order.

    jobs is consumed lazily: at most WINDOW_PER_WORKER * parallelism jobs
    are submitted ahead of the oldest result not yet yielded. An exception
    a job raised is raised in that job's turn and ends the run: no job is
    submitted after it, jobs already queued are cancelled, and the results
    of jobs behind it are dropped. What is yielded before a failure is
    therefore the same at every parallelism.
    """
    if parallelism == 1:
        for job in jobs:
            yield worker(job)
        return
    window = WINDOW_PER_WORKER * parallelism
    pending: deque[Future] = deque()
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        try:
            for job in jobs:
                pending.append(pool.submit(worker, job))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def openqa_unit(
    chunk: NarrationChunk,
    track: NarrationTrack,
    config: EndpointConfig,
    template: PromptTemplate,
    endpoint: ChatEndpoint,
    split: str,
) -> tuple[QASample | None, GenerationRecord]:
    """One chunk's QA request: (sample, or None if it did not parse; record)."""
    prompt = render_openqa_prompt(chunk, track, template)
    parsed, raw, attempts = _attempt_loop(
        endpoint, prompt, parse_openqa_completion, config.max_retries
    )
    record = GenerationRecord(
        kind="openqa",
        clip_uid=chunk.clip_uid,
        ref=str(chunk.chunk_index),
        raw_completion=raw,
        parse_status=parsed.status,
        attempts=attempts,
        question=parsed.question,
        answer=parsed.answer,
        reason=parsed.reason,
    )
    sample = None
    if parsed.status == PARSE_OK:
        sample = QASample(
            clip_uid=chunk.clip_uid,
            question=parsed.question,
            answer=parsed.answer,
            window=chunk.span,
            split=split,
            source="synthesized",
        )
    return sample, record


def distractor_unit(
    sample: QASample,
    config: EndpointConfig,
    template: PromptTemplate,
    endpoint: ChatEndpoint,
) -> tuple[QASample, GenerationRecord | None]:
    """One sample's distractor request: (sample, with wrong_answers if they
    parsed; record). A sample that already has distractors passes through
    with no request and no record."""
    if sample.wrong_answers is not None:
        return sample, None
    prompt = render_closeqa_prompt(sample.question, sample.answer, template)
    parsed, raw, attempts = _attempt_loop(
        endpoint,
        prompt,
        lambda r: parse_closeqa_completion(r, sample.answer),
        config.max_retries,
    )
    record = GenerationRecord(
        kind="closeqa",
        clip_uid=sample.clip_uid,
        ref=sample.question,
        raw_completion=raw,
        parse_status=parsed.status,
        attempts=attempts,
        question=sample.question,
        answer=sample.answer,
        wrong_answers=parsed.distractors,
        reason=parsed.reason,
    )
    if parsed.status == PARSE_OK:
        return replace(sample, wrong_answers=parsed.distractors), record
    return sample, record


def _run_batch(units: Iterable, worker: Callable, parallelism: int):
    """Run one batch through _run_jobs: (finished results, first failure or None)."""
    done: list = []
    try:
        for result in _run_jobs(units, worker, parallelism):
            done.append(result)
    except EndpointUnavailable as exc:
        return done, exc
    return done, None


def generate_openqa(
    chunks: Sequence[NarrationChunk],
    tracks: Mapping[str, NarrationTrack],
    config: EndpointConfig,
    template: PromptTemplate,
    endpoint: ChatEndpoint,
    split: str = "train",
) -> tuple[tuple[QASample, ...], tuple[GenerationRecord, ...]]:
    """One QA pair per chunk; window = the chunk's merged narration span.

    Output is sorted by (clip_uid, chunk_index). Completions that stay
    malformed after retries, or violate the length constraints, are dropped
    with a record. Raises EndpointUnavailable (with the results finished
    before the first failing chunk as exc.partial) if the endpoint dies
    mid-batch.
    """
    for chunk in chunks:
        if chunk.clip_uid not in tracks:
            raise ValidationError(f"chunk references unknown clip {chunk.clip_uid!r}")

    ordered = sorted(chunks, key=lambda c: (c.clip_uid, c.chunk_index))
    start = time.monotonic()
    done, failure = _run_batch(
        ordered,
        lambda c: openqa_unit(c, tracks[c.clip_uid], config, template, endpoint, split),
        config.parallelism,
    )
    samples = tuple(s for s, _ in done if s is not None)
    records = tuple(r for _, r in done)
    elapsed = max(time.monotonic() - start, 1e-9)
    errors = sum(1 for r in records if r.parse_status != PARSE_OK)
    log.info(
        "openqa: %d/%d pairs in %.2fs (%.0f pairs/hour, %.1f%% generation errors)",
        len(samples),
        len(records),
        elapsed,
        len(samples) / elapsed * 3600.0,
        100.0 * errors / max(len(records), 1),
    )
    if failure is not None:
        raise EndpointUnavailable(f"openqa batch aborted: {failure}", (samples, records))
    return samples, records


def attach_distractors(
    samples: Sequence[QASample],
    config: EndpointConfig,
    template: PromptTemplate,
    endpoint: ChatEndpoint,
) -> tuple[tuple[QASample, ...], tuple[GenerationRecord, ...]]:
    """Generate three wrong answers per sample, preserving input order.

    Samples whose distractors cannot be generated are kept without
    wrong_answers and accounted for in the records. Samples that already
    carry distractors pass through untouched (no request, no record).
    """
    start = time.monotonic()
    done, failure = _run_batch(
        samples,
        lambda s: distractor_unit(s, config, template, endpoint),
        config.parallelism,
    )
    out = tuple(s for s, _ in done)
    records = tuple(r for _, r in done if r is not None)
    elapsed = max(time.monotonic() - start, 1e-9)
    ok = sum(1 for r in records if r.parse_status == PARSE_OK)
    if records:
        log.info(
            "closeqa: %d/%d distractor sets in %.2fs (%.0f samples/hour)",
            ok,
            len(records),
            elapsed,
            ok / elapsed * 3600.0,
        )
    if failure is not None:
        raise EndpointUnavailable(f"distractor batch aborted: {failure}", (out, records))
    return out, records


def shuffled_choices(sample: QASample, seed: int) -> tuple[tuple[str, str, str, str], int]:
    """Materialize the four answer choices in a seeded deterministic order.

    The shuffle is a pure function of (seed, clip_uid, question, answer), so
    serialization and blind-filter trials agree without storing the order on
    the sample. Returns (choices, index of the correct answer).
    """
    if sample.wrong_answers is None:
        raise ValidationError(
            f"sample {sample.clip_uid!r}/{sample.question!r} has no distractors"
        )
    pool = (sample.answer, *sample.wrong_answers)
    perm = choice_order(choice_seed(sample, seed))
    choices = tuple(pool[p] for p in perm)
    return choices, perm.index(0)


def choice_seed(sample: QASample, seed: int) -> int:
    """The RNG seed of a sample's choice order under a trial or run seed."""
    return derive_seed("choices", seed, sample.clip_uid, sample.question, sample.answer)
