"""Property tests for the decode path (greedy NMS against the scalar oracle,
the HeadOutputs acceptance rule), the row decoders' and completion parsers'
error contracts, shuffled choices against the choice-order definition, the
frequency prior's blind-filter outcomes against the trial-by-trial protocol,
answer normalization against its first, fixed-point form, and the canonical
JSON encoder against json.dumps."""
from __future__ import annotations

import hashlib
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egoqa.blindfilter import TRIALS, FrequencyPriorAnswerer, filter_rows
from egoqa.core import QASample, TemporalWindow, ValidationError, normalize_answer
from egoqa.jsonl_io import (
    SchemaMismatch,
    dumps_canonical,
    row_to_head,
    row_to_pred,
    row_to_qa,
    row_to_track,
)
from egoqa.localization import HeadOutputs, LengthMismatch, decode_windows
from egoqa.prompts import ParsedCompletion, parse_closeqa_completion, parse_openqa_completion
from egoqa.seeding import ORDERS, choice_heads, choice_seeds, derive_seed
from egoqa.synthesis import shuffled_choices

from .oracles import fixed_point_normalize, oracle_nms
from .test_blindfilter import _naive_outcomes

PROPERTY = settings(max_examples=300, deadline=None)

# Scores on a 0.1 grid and offsets on a 0.5 grid force ties in score and in
# start, scores exactly at the threshold, and IoUs exactly equal to nms_iou,
# which continuous draws almost never hit.
GRID_SCORE = st.integers(1, 9).map(lambda k: k / 10)
GRID_OFFSET = st.integers(0, 24).map(lambda k: k / 2)


@st.composite
def quantized_heads(draw):
    n = draw(st.integers(0, 64))
    scores = draw(st.lists(GRID_SCORE, min_size=n, max_size=n))
    offsets = draw(st.lists(st.tuples(GRID_OFFSET, GRID_OFFSET), min_size=n, max_size=n))
    return scores, offsets


@PROPERTY
@given(
    heads=quantized_heads(),
    duration=st.integers(1, 480).map(lambda k: k / 4),
    threshold=st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9]),
    nms_iou=st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]),
    top_k=st.integers(0, 8),
)
def test_decode_matches_oracle_on_quantized_inputs(heads, duration, threshold, nms_iou, top_k):
    scores, offsets = heads
    got = decode_windows(HeadOutputs(scores, offsets), duration, threshold, nms_iou, top_k)
    want = oracle_nms(scores, offsets, duration, threshold, nms_iou, top_k)
    # JSON text also tells 0.0 from -0.0, as the written predictions would
    assert json.dumps([(w.start_s, w.end_s, s) for w, s in got]) == json.dumps(want)


EDGE_NUMBERS = st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, 5e-324, 1.0 - 2**-53, -1e-300, math.inf, -math.inf, math.nan]
)
NUMBER = st.floats() | EDGE_NUMBERS | st.integers(-2, 2)


def _valid_score(s) -> bool:
    return math.isfinite(s) and 0.0 < s < 1.0


def _valid_offset(v) -> bool:
    return math.isfinite(v) and v >= 0.0


@PROPERTY
@given(st.lists(st.tuples(NUMBER, st.tuples(NUMBER, NUMBER)), max_size=8))
def test_head_outputs_accepts_exactly_the_valid_inputs(rows):
    scores = [s for s, _ in rows]
    offsets = [pair for _, pair in rows]
    valid = all(map(_valid_score, scores)) and all(
        _valid_offset(v) for pair in offsets for v in pair
    )
    if not valid:
        with pytest.raises(ValidationError):
            HeadOutputs(scores, offsets)
        return
    heads = HeadOutputs(scores, offsets)
    assert heads.scores.tolist() == [float(s) for s in scores]
    assert heads.offsets.tolist() == [[float(l), float(r)] for l, r in offsets]


@PROPERTY
@given(st.lists(GRID_SCORE, max_size=4), st.lists(st.tuples(GRID_OFFSET, GRID_OFFSET), max_size=4))
def test_head_outputs_rejects_unequal_lengths(scores, offsets):
    if len(scores) == len(offsets):
        HeadOutputs(scores, offsets)
    else:
        with pytest.raises(LengthMismatch):
            HeadOutputs(scores, offsets)


JSON_SCALAR = (
    st.none() | st.booleans() | st.integers() | st.just(10**400) | NUMBER | st.text(max_size=4)
)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
# near misses of the valid shapes: flat lists, and lists of short lists
NEAR_SCORES = st.lists(NUMBER | st.text(max_size=3), max_size=4)
NEAR_OFFSETS = st.lists(
    st.lists(NUMBER | st.text(max_size=3), max_size=3) | JSON_SCALAR, max_size=4
)


@PROPERTY
@given(
    scores=JSON_VALUE | NEAR_SCORES,
    offsets=JSON_VALUE | NEAR_OFFSETS,
    duration=JSON_VALUE | NUMBER,
)
def test_row_to_head_raises_only_schema_mismatch(scores, offsets, duration):
    row = {"clip_uid": "c", "query_id": "c::0", "duration_s": duration,
           "scores": scores, "offsets": offsets}
    try:
        _, _, duration_s, heads = row_to_head(row)
    except SchemaMismatch:
        return
    # what row_to_head accepts, decode either decodes or rejects as input
    try:
        decode_windows(heads, duration_s)
    except ValidationError:
        pass


def _rows(fields):
    """Rows holding any subset of fields, each an arbitrary JSON value or a
    near miss of its valid shape."""
    return st.fixed_dictionaries(
        {}, optional={name: JSON_VALUE | near for name, near in fields.items()}
    )


PAIR = st.lists(NUMBER | JSON_VALUE, max_size=3)
TRACK_ROWS = _rows({
    "clip_uid": st.text(max_size=3),
    "duration_s": NUMBER,
    "narrations": st.lists(_rows({"text": st.text(max_size=3), "t_s": NUMBER}), max_size=3),
})
QA_ROWS = _rows({
    "clip_uid": st.text(max_size=3),
    "question": st.text(max_size=3),
    "answer": st.text(max_size=3),
    "window": PAIR,
    "wrong_answers": st.lists(st.text(max_size=3), max_size=4),
    "split": st.sampled_from(["train", "val", "test"]),
    "source": st.text(max_size=3),
})
PRED_ROWS = _rows({
    "clip_uid": st.text(max_size=3),
    "query_id": st.text(max_size=3),
    "windows": st.lists(PAIR, max_size=3),
    "answer_text": st.text(max_size=3),
})


@settings(max_examples=100, deadline=None)
@given(track=TRACK_ROWS, qa=QA_ROWS, pred=PRED_ROWS)
def test_row_decoders_raise_only_schema_mismatch(track, qa, pred):
    for decode, row in ((row_to_track, track), (row_to_qa, qa), (row_to_pred, pred)):
        try:
            decode(row)
        except SchemaMismatch:
            pass


# Shallow nesting, and nesting deeper than the decoder's recursion limit
# (1000 frames by default), optionally inside a Q/A object or a list, with
# arbitrary text around it.
DEEP_TEXT = st.builds(
    lambda head, unit, depth, tail: head + unit * depth + tail,
    st.sampled_from(["", "Sure: ", '{"Q": ', '["a", "b", ']),
    st.sampled_from(["[", '{"Q": ', '[{"A": ']),
    st.integers(0, 50) | st.integers(1_500, 100_000),
    st.text(max_size=8) | st.sampled_from([', "A": "x"}', '"c"]', "]" * 100_000]),
)


@PROPERTY
@given(raw=st.text() | DEEP_TEXT)
def test_completion_parsers_never_raise(raw):
    assert isinstance(parse_openqa_completion(raw), ParsedCompletion)
    assert isinstance(parse_closeqa_completion(raw, "a carrot"), ParsedCompletion)


def reference_derive_seed(*parts):
    """derive_seed as first written: one blake2b update per length prefix and part."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        raw = str(part).encode("utf-8")
        h.update(len(raw).to_bytes(4, "big"))
        h.update(raw)
    return int.from_bytes(h.digest(), "big")


# choice_seeds encodes a sample's parts once for all its seeds' heads; each
# seed must still be the derive_seed of the full part list. Only the three text
# fields are read, so any text is drawn, not just what QASample accepts.
@settings(max_examples=200, deadline=None)
@given(
    clip_uid=st.text(), question=st.text(), answer=st.text(),
    seeds=st.lists(st.integers() | st.integers(-(2**200), 2**200), max_size=12),
)
def test_choice_seeds_equal_derive_seed(clip_uid, question, answer, seeds):
    sample = SimpleNamespace(clip_uid=clip_uid, question=question, answer=answer)
    want = [reference_derive_seed("choices", s, clip_uid, question, answer) for s in seeds]
    assert choice_seeds(sample, choice_heads(seeds)) == want
    assert [derive_seed("choices", s, clip_uid, question, answer) for s in seeds] == want


# shuffled_choices shows the choices in the order ORDERS[s % 24] of the
# sample's choice seed s.
@settings(max_examples=200, deadline=None)
@given(
    clip_uid=st.text(), question=st.text(), answer=st.text(),
    wrong=st.tuples(st.text(), st.text(), st.text()),
    seed=st.integers() | st.integers(-(2**200), 2**200),
)
def test_shuffled_choices_equal_numpy_permutation(clip_uid, question, answer, wrong, seed):
    sample = SimpleNamespace(
        clip_uid=clip_uid, question=question, answer=answer, wrong_answers=wrong
    )
    order = ORDERS[derive_seed("choices", seed, clip_uid, question, answer) % 24]
    pool = (answer, *wrong)
    assert shuffled_choices(sample, seed) == (tuple(pool[p] for p in order), order.index(0))


# Answers distinct after normalization, and spellings of them that only
# match after it.
VOCAB = ("yes", "no", "red", "a cup", "the bowl", "on the shelf", "green", "it slipped")
SPELLINGS = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from([str, str.upper, str.title]),
    st.sampled_from(["", ".", "?!", " .;", " "]),
)


@st.composite
def prior_pools(draw):
    """(training answers, pool, k): k of the pool's four choices share its
    top training count, each training answer and choice in a drawn spelling."""

    def spell(word):
        lead, case, tail = draw(SPELLINGS)
        return lead + case(word) + tail

    words = draw(st.permutations(VOCAB))
    k = draw(st.integers(1, 4))
    top = draw(st.integers(0 if k == 4 else 1, 4))
    counts = [top] * k + [draw(st.integers(0, top - 1)) for _ in range(4 - k)]
    training = [spell(w) for w, c in zip(words, counts) for _ in range(c)]
    training += [spell(w) for w in draw(st.lists(st.sampled_from(words[4:]), max_size=6))]
    pool = draw(st.permutations([spell(w) for w in words[:4]]))
    return draw(st.permutations(training)), pool, k


# A frequency prior whose top count one choice holds is asked once per sample;
# its outcomes must equal the ten trials run one by one, tied or not.
@PROPERTY
@given(drawn=prior_pools(), seeds=st.lists(st.integers(), min_size=TRIALS, max_size=TRIALS))
def test_frequency_prior_outcomes_equal_the_naive_protocol(drawn, seeds):
    training, pool, k = drawn
    answerer = FrequencyPriorAnswerer(training)
    sample = QASample("c", "Did I?", pool[0], TemporalWindow(0.0, 1.0),
                      wrong_answers=pool[1:], split="test")
    assert (answerer.sure_pick(sample.normalized) is None) == (k > 1)
    for reshuffle in (True, False):
        ((_, outcomes),) = filter_rows([sample], answerer, seeds, reshuffle)
        assert outcomes == _naive_outcomes(sample, answerer, seeds, reshuffle)


# normalize_answer strips its tail in one rstrip; the fixed-point loop it
# replaced is the definition. Unicode whitespace (ideographic space, the
# unit separator, NEL) is collapsed by split() before the strip runs.
ANSWER_TEXT = st.text(st.sampled_from(list("aZé ?!.,;:\t\n\u3000\x1f\x85\xa0")) | st.characters())


@settings(max_examples=500, deadline=None)
@given(text=ANSWER_TEXT)
@example(text="a ?! .;")
@example(text="?!. ,;:")
@example(text="...")
@example(text="The cup\u3000.\x1f?\x85!")
@example(text="\x85 \u3000")
def test_normalize_answer_equals_fixed_point_loop(text):
    once = normalize_answer(text)
    assert once == fixed_point_normalize(text)
    assert normalize_answer(once) == once


# dumps_canonical is one shared encoder; json.dumps with the same options is
# the definition.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@PROPERTY
@given(value=JSON_VALUES)
def test_dumps_canonical_equals_json_dumps(value):
    want = json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    assert dumps_canonical(value) == want
