"""Properties holding the one-check row decoders, the flat conversion of
head-output offsets, the batched NMS decoder, the bit-parallel LCS and the
count similarity to their field-by-field, whole-array and textbook
references in tests/oracles.py: equal values, or the same exception type
with the same message."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egoqa import metrics
from egoqa.embedding import TrigramEmbedder
from egoqa.jsonl_io import row_to_pred, row_to_qa, row_to_track
from egoqa.localization import HeadOutputs, decode_windows

from .oracles import (
    array_nms,
    count_cosine,
    dp_lcs_len,
    field_row_to_pred,
    field_row_to_qa,
    field_row_to_track,
    nested_head_arrays,
    trigram_counts,
)

PROPERTY = settings(max_examples=400, deadline=None)

BIG_INTS = st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, 2**64, -(2**63) - 1, 10**400, -(10**400)])
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, -1e-300, math.inf, -math.inf, math.nan])
NUMBER = st.floats() | EDGE_FLOATS | st.integers(-3, 60) | BIG_INTS
ODD_SCALAR = st.none() | st.booleans() | NUMBER | st.text(max_size=3)
ODD_VALUE = ODD_SCALAR | st.recursive(
    ODD_SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
TEXT = st.text(min_size=1, max_size=4) | st.sampled_from(["a cup", "A cup.", "the bowl", "yes", " ", ""])
TIME = st.floats(0, 100) | st.integers(0, 100) | NUMBER


def _nudge(draw, value):
    """value with one part changed: a leaf replaced by an odd JSON value, or
    an item or key dropped or added, at a drawn depth (mostly the deepest)."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        if isinstance(value, dict):
            key = draw(st.sampled_from(sorted(value)))
            return {**value, key: _nudge(draw, value[key])}
        i = draw(st.integers(0, len(value) - 1))
        return [*value[:i], _nudge(draw, value[i]), *value[i + 1 :]]
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace" or not isinstance(value, (dict, list)):
        return draw(ODD_VALUE)
    if isinstance(value, dict):
        if action == "drop" and value:
            key = draw(st.sampled_from(sorted(value)))
            return {k: v for k, v in value.items() if k != key}
        return {**value, draw(st.text(max_size=8)): draw(ODD_VALUE)}
    if action == "drop" and value:
        return value[:-1]
    return [*value, draw(ODD_VALUE)]


@st.composite
def near(draw, valid):
    """A well-formed row, or one with up to three parts changed."""
    row = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        row = _nudge(draw, row)
    return row


WINDOW = st.tuples(TIME, TIME).map(sorted) | st.lists(TIME, min_size=2, max_size=2)
TRACKS = near(st.fixed_dictionaries({
    "clip_uid": TEXT,
    "duration_s": TIME,
    "narrations": st.lists(st.fixed_dictionaries({"text": TEXT, "t_s": TIME}), max_size=4),
}))
QAS = near(st.fixed_dictionaries(
    {
        "clip_uid": TEXT,
        "question": TEXT,
        "answer": TEXT,
        "window": WINDOW,
        "split": st.sampled_from(["train", "val", "test"]),
        "source": st.sampled_from(["manual", "synthesized"]),
    },
    optional={"wrong_answers": st.lists(TEXT, min_size=3, max_size=3) | st.none()},
))
PREDS = near(st.fixed_dictionaries(
    {
        "clip_uid": TEXT,
        "query_id": TEXT,
        "windows": st.lists(
            st.tuples(WINDOW, st.floats(0, 1) | st.sampled_from([0, 1]) | NUMBER)
            .map(lambda w: [*w[0], w[1]]),
            max_size=4,
        ),
    },
    optional={"answer_text": TEXT},
))


def _outcome(fn, *args):
    """What a call gives: the value as its type and repr (exact for floats,
    -0.0 and NaN included) plus the normalized forms of a QASample, or the
    exception's type and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # the error itself is under test
        return "raised", type(exc), str(exc)
    return "returned", type(value), repr(value), getattr(value, "normalized", None)


@PROPERTY
@given(track=TRACKS, qa=QAS, pred=PREDS)
@example(track={"clip_uid": "c", "duration_s": 10**400, "narrations": []},
         qa={"clip_uid": "c", "question": "q", "answer": "a", "window": [0, 10**400],
             "split": "test", "source": "manual"},
         pred={"clip_uid": "c", "query_id": "q", "windows": [[0, 1, 10**400]]})
@example(track={"clip_uid": "c", "duration_s": 1, "narrations": [{"text": "t", "t_s": True}]},
         qa={"clip_uid": "c", "question": "q", "answer": "a", "window": [0, True],
             "split": "test", "source": "manual", "wrong_answers": ["b", "c", "b"]},
         pred={"clip_uid": "c", "query_id": "q", "windows": [[0, 1, 0.5, 0.5], [0, 1]]})
@example(track={"clip_uid": "c", "duration_s": 1, "narrations": [{"text": 1, "t_s": 0}]},
         qa={"clip_uid": "c", "question": "q", "answer": "a", "window": [0, 1, 2],
             "split": "test", "source": "manual"},
         pred={"clip_uid": "c", "query_id": "q", "windows": [[0, True, 0.5]]})
@example(track={"clip_uid": "c", "duration_s": 1, "narrations": "text"},
         qa={"clip_uid": "c", "question": "q", "answer": "a", "window": "ab",
             "split": "test", "source": "manual", "wrong_answers": "abc"},
         pred={"clip_uid": "c", "query_id": "q", "windows": [[0, 1, 0.2], [0, 2, 0.9]],
               "answer_text": None})
def test_row_decoders_equal_the_field_by_field_decoders(track, qa, pred):
    for new, old, row in ((row_to_track, field_row_to_track, track),
                          (row_to_qa, field_row_to_qa, qa),
                          (row_to_pred, field_row_to_pred, pred)):
        assert _outcome(new, row, "f.jsonl:3") == _outcome(old, row, "f.jsonl:3")


HEAD_ODD = st.booleans() | st.none() | st.text(max_size=2) | BIG_INTS | NUMBER
OFFSET = st.floats(0, 50) | st.integers(0, 5) | st.sampled_from([0, 1, 0.0, 1.0])
OFFSET_PAIR = (
    st.lists(OFFSET, min_size=2, max_size=2)
    | st.lists(OFFSET | HEAD_ODD, min_size=2, max_size=2)
    | st.lists(OFFSET, max_size=3)  # ragged
    | st.lists(st.lists(OFFSET, min_size=1, max_size=2), min_size=2, max_size=2)  # deeper
    | st.tuples(OFFSET, OFFSET)
    | HEAD_ODD
)


@st.composite
def head_inputs(draw):
    n = draw(st.integers(0, 6))
    offsets = draw(st.lists(OFFSET_PAIR, min_size=n, max_size=n) | st.lists(OFFSET_PAIR, max_size=6))
    score = st.floats(0.01, 0.99) | HEAD_ODD
    scores = draw(st.lists(score, min_size=n, max_size=n) | st.lists(score, max_size=6))
    return scores, offsets


def _arrays(fn, *args):
    try:
        got = fn(*args)
    except Exception as exc:  # the error itself is under test
        return "raised", type(exc), str(exc)
    return "returned", *((a.dtype, a.shape, a.tobytes()) for a in got)


@PROPERTY
@given(head_inputs())
@example(([], []))
@example(([0.5], [[0, True]]))
@example(([0.5], [[True, False]]))
@example(([0.5], [[2**64, 1]]))
@example(([0.5], [[1, 10**400]]))
@example(([0.5], [[-1, 2**63]]))
@example(([0.5], [["1", 2.0]]))
@example(([0.5], [[None, 1.0]]))
@example(([0.5, 0.5], [[1, 2], [[3], 4]]))
@example(([0.5, 0.5], [[1, 2, 3], [4]]))
@example(([0.5], [{"a": 1, "b": 2}]))
@example(([0.5], ["12"]))
def test_head_outputs_equal_the_nested_conversion(inputs):
    scores, offsets = inputs

    def new(s, o):
        heads = HeadOutputs(s, o)
        return heads.scores, heads.offsets

    assert _arrays(new, scores, offsets) == _arrays(nested_head_arrays, scores, offsets)


@st.composite
def nms_rows(draw):
    """A head-output row of 0-400 steps with its decode settings. Scores on
    a 0.1 grid tie across a batch's cut. Offsets are drawn on a 0.5 grid;
    or most candidates overlap ("wide"); or each repeats one of a few
    windows ("few windows"), so the scan walks past the first batch and
    ties at its cut decide which window comes first; or every candidate
    clamps to the whole clip ("one window"), so the taken window
    suppresses the rest."""
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(1, 10, n) / 10
    shape = draw(st.sampled_from(["grid", "wide", "few windows", "one window"]))
    if shape == "grid":
        offsets = rng.integers(0, 49, (n, 2)) / 2
    elif shape == "few windows":
        t = np.arange(n)
        starts = rng.choice([0, n // 8, n // 4], n)
        ends = rng.choice([n // 2, 3 * n // 4, n], n)
        offsets = np.stack([np.maximum(t - starts, 0), np.maximum(ends - t, 0)], axis=1) * 1.0
    else:
        offsets = np.full((n, 2), n / 2 if shape == "wide" else float(n))
    return (scores.tolist(), offsets.tolist(), draw(st.integers(1, 480)) / 4,
            draw(st.sampled_from([0.0, 0.05, 0.5])),
            draw(st.sampled_from([-0.1, 0.0, 1 / 3, 0.5, 1.0, 1.5])),
            draw(st.integers(0, n + 2)))


@PROPERTY
@given(nms_rows())
# bounds that overflow; one window for all; every score tied at the cut
@example(([0.9, 0.5], [[1e308, 1e308], [1e308, 1e308]], 1000.0, 0.05, 0.5, 5))
@example(([0.5] * 200, [[200.0, 200.0]] * 200, 50.0, 0.05, 0.5, 3))
@example(([0.5] * 130, [[0.0, 1.0]] * 130, 32.5, 0.05, 0.5, 1))
def test_decode_equals_the_whole_array_nms(row):
    scores, offsets, duration, threshold, nms_iou, top_k = row
    heads = HeadOutputs(scores, offsets)
    got = decode_windows(heads, duration, threshold, nms_iou, top_k)
    want = array_nms(heads.scores, heads.offsets, duration, threshold, nms_iou, top_k)
    # JSON text also tells 0.0 from -0.0, as the written predictions would
    assert json.dumps([(w.start_s, w.end_s, s) for w, s in got]) == json.dumps(want)


TOKENS = st.lists(st.sampled_from("abcde"), max_size=90)


@PROPERTY
@given(a=TOKENS, b=TOKENS)
def test_bit_parallel_lcs_equals_the_dynamic_programme(a, b):
    assert metrics._lcs_len(a, b) == dp_lcs_len(a, b)


SENTENCE = st.text(st.sampled_from("abc AB.é"), max_size=40) | st.text(max_size=12)


@PROPERTY
@given(h=SENTENCE, r=SENTENCE)
def test_similarity_equals_the_count_cosine(h, r):
    e = TrigramEmbedder()
    assert e.embed(h) == trigram_counts(h)
    want = count_cosine(trigram_counts(h), trigram_counts(r))
    assert metrics.sentence_similarity(h, r, e) == want
    # within rounding of the dense cosine it replaced
    dense = [np.bincount(list(trigram_counts(t).elements()), minlength=256) for t in (h, r)]
    unit = [v / np.linalg.norm(v) for v in dense]
    assert want == pytest.approx(float(np.dot(*unit)), abs=1e-12)
