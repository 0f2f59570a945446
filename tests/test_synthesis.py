"""Generation orchestration against the mock endpoint."""
from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from egoqa.chunking import chunk_track
from egoqa.core import QASample, TemporalWindow, ValidationError
from egoqa.endpoint import (
    EndpointConfig,
    EndpointUnavailable,
    MockChatEndpoint,
    prompt_digest,
)
from egoqa.prompts import load_template, render_closeqa_prompt, render_openqa_prompt
from egoqa.synthesis import (
    WINDOW_PER_WORKER,
    _run_jobs,
    attach_distractors,
    generate_openqa,
    shuffled_choices,
    synthesize,
)
from egoqa.windows import compute_stats

from .conftest import make_track

OPENQA_T = load_template("openqa_llama")
CLOSEQA_T = load_template("closeqa_llama")


def _fixture_corpus():
    tracks = {
        "c1": make_track("c1", 60.0, [1.0, 9.0], text="C peels a carrot."),
        "c2": make_track("c2", 60.0, [2.0, 10.0], text="C ties a knot."),
    }
    stats = compute_stats(tracks.values())
    chunks = [c for t in tracks.values() for c in chunk_track(t, stats)]
    return tracks, chunks


def _digest_for(chunk, tracks):
    return prompt_digest(render_openqa_prompt(chunk, tracks[chunk.clip_uid], OPENQA_T))


def test_generate_openqa_happy_path():
    tracks, chunks = _fixture_corpus()
    fixture = {
        _digest_for(chunks[0], tracks): '{"Q": "What did I peel?", "A": "a carrot"}',
        _digest_for(chunks[1], tracks): '{"Q": "What did I tie?", "A": "a knot"}',
    }
    endpoint = MockChatEndpoint(fixture)
    samples, records = generate_openqa(
        chunks, tracks, EndpointConfig(), OPENQA_T, endpoint, split="test"
    )
    assert len(samples) == 2
    assert len(records) == 2
    assert [s.clip_uid for s in samples] == ["c1", "c2"]
    assert samples[0].question == "What did I peel?"
    assert samples[0].split == "test"
    # window is the chunk's merged narration span
    assert samples[0].window == chunks[0].span


def test_malformed_completion_is_retried():
    tracks, chunks = _fixture_corpus()
    fixture = {
        _digest_for(chunks[0], tracks): [
            "no json here",
            '{"Q": "What did I peel?", "A": "a carrot"}',
        ],
        "*": '{"Q": "What happened?", "A": "something"}',
    }
    endpoint = MockChatEndpoint(fixture)
    samples, records = generate_openqa(
        chunks, tracks, EndpointConfig(max_retries=2), OPENQA_T, endpoint
    )
    assert len(samples) == 2
    rec = next(r for r in records if r.clip_uid == "c1")
    assert rec.attempts == 2
    assert rec.parse_status == "ok"


def test_retries_exhausted_drops_pair_with_record():
    tracks, chunks = _fixture_corpus()
    endpoint = MockChatEndpoint({"*": "never valid"})
    samples, records = generate_openqa(
        chunks, tracks, EndpointConfig(max_retries=1), OPENQA_T, endpoint
    )
    assert samples == ()
    assert len(records) == len(chunks)
    assert all(r.parse_status == "malformed" for r in records)
    assert all(r.attempts == 2 for r in records)


def test_constraint_violation_is_final_not_retried():
    tracks, chunks = _fixture_corpus()
    # valid json, question lacks "?": must not burn retries
    endpoint = MockChatEndpoint({"*": '{"Q": "Tell me about it", "A": "x"}'})
    samples, records = generate_openqa(
        chunks, tracks, EndpointConfig(max_retries=5), OPENQA_T, endpoint
    )
    assert samples == ()
    assert all(r.parse_status == "constraint_violation" for r in records)
    assert all(r.attempts == 1 for r in records)


def test_audit_records_cover_every_chunk():
    tracks, chunks = _fixture_corpus()
    fixture = {
        _digest_for(chunks[0], tracks): '{"Q": "What did I peel?", "A": "a carrot"}',
        "*": "garbage",
    }
    samples, records = generate_openqa(
        chunks, tracks, EndpointConfig(), OPENQA_T, MockChatEndpoint(fixture)
    )
    assert len(records) == len(chunks)
    assert len(samples) == 1


def test_endpoint_death_raises_with_partial_results():
    tracks, chunks = _fixture_corpus()
    # only the first chunk's prompt is known; no "*" fallback
    fixture = {_digest_for(chunks[0], tracks): '{"Q": "What did I peel?", "A": "a carrot"}'}
    with pytest.raises(EndpointUnavailable):
        generate_openqa(chunks, tracks, EndpointConfig(), OPENQA_T, MockChatEndpoint(fixture))


@pytest.mark.parametrize("parallelism", [1, 4])
def test_synthesize_stream_ends_at_the_clip_that_failed(parallelism):
    tracks, chunks = _fixture_corpus()
    # c1's QA prompt and its distractor prompt are known; c2's QA prompt is not
    fixture = {
        _digest_for(chunks[0], tracks): '{"Q": "What did I peel?", "A": "a carrot"}',
        prompt_digest(render_closeqa_prompt("What did I peel?", "a carrot", CLOSEQA_T)):
            '["a potato", "an onion", "a beet"]',
    }
    clips = list(synthesize(
        tracks.values(), compute_stats(tracks.values()),
        EndpointConfig(parallelism=parallelism), OPENQA_T, CLOSEQA_T,
        MockChatEndpoint(fixture), "test", 5, 30.0,
    ))
    assert [track.clip_uid for track, _, _, _ in clips] == ["c1", "c2"]
    (_, records, samples, failure), (_, more_records, more_samples, last_failure) = clips
    assert [r.kind for r in records] == ["openqa", "closeqa"]
    assert [s.wrong_answers for s in samples] == [("a potato", "an onion", "a beet")]
    assert failure is None
    assert (more_records, more_samples) == ([], [])
    assert isinstance(last_failure, EndpointUnavailable)


def test_unknown_clip_rejected():
    tracks, chunks = _fixture_corpus()
    del tracks["c2"]
    with pytest.raises(ValidationError):
        generate_openqa(chunks, tracks, EndpointConfig(), OPENQA_T, MockChatEndpoint({}))


def test_output_identical_across_parallelism():
    tracks, chunks = _fixture_corpus()
    fixture = {
        _digest_for(chunks[0], tracks): '{"Q": "What did I peel?", "A": "a carrot"}',
        _digest_for(chunks[1], tracks): '{"Q": "What did I tie?", "A": "a knot"}',
    }
    runs = []
    for parallelism in (1, 4):
        samples, records = generate_openqa(
            chunks,
            tracks,
            EndpointConfig(parallelism=parallelism),
            OPENQA_T,
            MockChatEndpoint(fixture),
        )
        runs.append((samples, records))
    assert runs[0] == runs[1]


def test_in_process_endpoint_runs_inline_at_any_parallelism():
    tracks, _ = _fixture_corpus()
    before = set(threading.enumerate())
    seen = []

    class Recording(MockChatEndpoint):
        def complete(self, prompt):
            seen.append((threading.current_thread(), set(threading.enumerate()) - before))
            return super().complete(prompt)

    fixture = {"*": '{"Q": "What did I hold?", "A": "a thing"}'}
    clips = list(synthesize(
        tracks.values(), compute_stats(tracks.values()), EndpointConfig(parallelism=8),
        OPENQA_T, None, Recording(fixture), "test", 5, 30.0,
    ))
    assert [len(samples) for _, _, samples, _ in clips] == [1, 1]
    assert seen and all(
        thread is threading.current_thread() and not started for thread, started in seen
    )


@pytest.mark.parametrize("fail_at", [None, 70])
def test_run_jobs_in_order_within_window_and_stops_at_first_failure(fail_at):
    """More workers than cores, jittered jobs, frequent thread switches."""
    parallelism, n = 16, 200
    stop = n if fail_at is None else fail_at
    pulled = 0

    def jobs():
        nonlocal pulled
        for i in range(n):
            pulled += 1
            yield i

    def worker(i):
        time.sleep(random.random() / 2000)
        if i >= stop:
            raise EndpointUnavailable(f"job {i}")
        return i

    seen, ahead, failed = [], 0, False
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for result in _run_jobs(jobs(), worker, parallelism):
            ahead = max(ahead, pulled - len(seen))
            seen.append(result)
    except EndpointUnavailable:
        failed = True
    finally:
        sys.setswitchinterval(interval)
    assert failed == (fail_at is not None)
    assert seen == list(range(stop))
    assert ahead <= WINDOW_PER_WORKER * parallelism
    assert pulled <= stop + WINDOW_PER_WORKER * parallelism


def _sample(question="What did I peel?", answer="a carrot", wrong=None):
    return QASample(
        clip_uid="c1",
        question=question,
        answer=answer,
        window=TemporalWindow(0.5, 9.5),
        wrong_answers=wrong,
        split="test",
    )


def test_attach_distractors_happy_path():
    s = _sample()
    digest = prompt_digest(render_closeqa_prompt(s.question, s.answer, CLOSEQA_T))
    endpoint = MockChatEndpoint({digest: '["a potato", "an onion", "a beet"]'})
    out, records = attach_distractors([s], EndpointConfig(), CLOSEQA_T, endpoint)
    assert out[0].wrong_answers == ("a potato", "an onion", "a beet")
    assert len(records) == 1
    assert records[0].kind == "closeqa"
    assert records[0].ref == s.question


def test_attach_distractors_passes_through_existing():
    s = _sample(wrong=("a potato", "an onion", "a beet"))
    endpoint = MockChatEndpoint({})
    out, records = attach_distractors([s], EndpointConfig(), CLOSEQA_T, endpoint)
    assert out == (s,)
    assert records == ()


def test_attach_distractors_failure_keeps_sample_bare():
    s = _sample()
    endpoint = MockChatEndpoint({"*": "not a list"})
    out, records = attach_distractors([s], EndpointConfig(max_retries=0), CLOSEQA_T, endpoint)
    assert out[0].wrong_answers is None
    assert records[0].parse_status == "malformed"


def test_shuffled_choices_deterministic_and_complete():
    s = _sample(wrong=("a potato", "an onion", "a beet"))
    choices, idx = shuffled_choices(s, seed=42)
    again, idx2 = shuffled_choices(s, seed=42)
    assert choices == again and idx == idx2
    assert sorted(choices) == sorted((s.answer, *s.wrong_answers))
    assert choices[idx] == s.answer


def test_shuffled_choices_varies_with_seed():
    s = _sample(wrong=("a potato", "an onion", "a beet"))
    orders = {shuffled_choices(s, seed=k)[0] for k in range(24)}
    assert len(orders) > 1


def test_shuffled_choices_requires_distractors():
    with pytest.raises(ValidationError):
        shuffled_choices(_sample(), seed=1)
