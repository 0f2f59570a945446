"""QA pair and distractor generation against a chat endpoint.

openqa_unit makes one chunk's QA request and distractor_unit one sample's
distractor request; each leaves an audit record, so the number of records
always equals the number of chunks (or samples) submitted. _run_jobs is the
one scheduler: a bounded worker pool fed lazily from a job iterable that
yields results in input order, never completion order, and stops at the
first job that fails. synthesize, the library entry point of the
synthesize command, runs a whole corpus through one _run_jobs call and
yields each clip's records and samples as its last chunk completes.
generate_openqa and attach_distractors run one batch of units each.

Only an endpoint that waits on a socket (an HttpClient) gets the pool: an
in-process endpoint such as MockChatEndpoint runs its jobs inline, one at
a time, whatever config.parallelism says. Under the GIL, worker threads
would only add hand-offs to CPU-bound jobs, and the output is the same
either way.
"""
from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .chunking import NarrationChunk, chunk_track
from .core import NarrationTrack, QASample, ValidationError
from .endpoint import ChatEndpoint, EndpointConfig, EndpointUnavailable, HttpClient
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
from .seeding import choice_heads, choice_orders, choice_seeds
from .windows import CorpusTimingStats


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


def _parallelism(config: EndpointConfig, endpoint: ChatEndpoint) -> int:
    """Jobs to run at once: config.parallelism for an HttpClient, else 1."""
    return config.parallelism if isinstance(endpoint, HttpClient) else 1


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
        sample = QASample(sample.clip_uid, sample.question, sample.answer, sample.window,
                          parsed.distractors, sample.split, sample.source)
    return sample, record


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
    with a record. Raises EndpointUnavailable if the endpoint dies mid-batch.
    """
    for chunk in chunks:
        if chunk.clip_uid not in tracks:
            raise ValidationError(f"chunk references unknown clip {chunk.clip_uid!r}")
    done = tuple(_run_jobs(
        sorted(chunks, key=lambda c: (c.clip_uid, c.chunk_index)),
        lambda c: openqa_unit(c, tracks[c.clip_uid], config, template, endpoint, split),
        _parallelism(config, endpoint),
    ))
    return tuple(s for s, _ in done if s is not None), tuple(r for _, r in done)


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
    Raises EndpointUnavailable if the endpoint dies mid-batch.
    """
    done = tuple(_run_jobs(
        samples,
        lambda s: distractor_unit(s, config, template, endpoint),
        _parallelism(config, endpoint),
    ))
    return tuple(s for s, _ in done), tuple(r for _, r in done if r is not None)


def synthesize(
    tracks: Iterable[NarrationTrack],
    stats: CorpusTimingStats,
    config: EndpointConfig,
    openqa_template: PromptTemplate,
    closeqa_template: PromptTemplate | None,
    endpoint: ChatEndpoint,
    split: str,
    max_sentences: int,
    max_span_s: float,
) -> Iterator[
    tuple[NarrationTrack, list[GenerationRecord], list[QASample], EndpointUnavailable | None]
]:
    """Yield (track, openqa then closeqa records, samples, failure) per clip.

    tracks is read lazily. Each chunk is one job: its QA request, then its
    distractor request if the QA parsed and closeqa_template is given.
    failure is set only on the last clip yielded, which holds the first job
    whose endpoint failed for good and what that job finished before it.
    The stream is the same at every parallelism.
    """

    def jobs():
        for clip_no, track in enumerate(tracks):
            for chunk in chunk_track(track, stats, max_sentences, max_span_s):
                yield clip_no, track, chunk

    def run(job):
        clip_no, track, chunk = job
        openqa = closeqa = sample = error = None
        try:
            sample, openqa = openqa_unit(chunk, track, config, openqa_template, endpoint, split)
            if sample is not None and closeqa_template is not None:
                sample, closeqa = distractor_unit(sample, config, closeqa_template, endpoint)
        except EndpointUnavailable as exc:
            error = exc
        return clip_no, track, openqa, closeqa, sample, error

    results = _run_jobs(jobs(), run, _parallelism(config, endpoint))
    with closing(results):
        for _, clip in groupby(results, key=itemgetter(0)):
            openqa_records, closeqa_records, samples = [], [], []
            for _, track, openqa, closeqa, sample, failure in clip:
                if openqa is not None:
                    openqa_records.append(openqa)
                if closeqa is not None:
                    closeqa_records.append(closeqa)
                if sample is not None:
                    samples.append(sample)
                if failure is not None:
                    break
            yield track, openqa_records + closeqa_records, samples, failure
            if failure is not None:
                return


def shuffled_choices(sample: QASample, seed: int) -> tuple[tuple[str, str, str, str], int]:
    """Materialize the four answer choices in a seeded deterministic order.

    The order is `choice_orders` of the sample's choice seed: a pure function
    of (seed, clip_uid, question, answer), so serialization and blind-filter
    trials agree without storing the order on the sample. Returns (choices,
    index of the correct answer).
    """
    if sample.wrong_answers is None:
        raise ValidationError(
            f"sample {sample.clip_uid!r}/{sample.question!r} has no distractors"
        )
    pool = (sample.answer, *sample.wrong_answers)
    order = choice_orders(choice_seeds(sample, choice_heads((seed,))))[0].tolist()
    return tuple(pool[p] for p in order), order.index(0)
