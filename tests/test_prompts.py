"""Template loading, rendering, and completion parsing."""
from __future__ import annotations

import os

import pytest

from egoqa.chunking import NarrationChunk
from egoqa.core import Narration, NarrationTrack, TemporalWindow, ValidationError
from egoqa.prompts import (
    PARSE_CONSTRAINT,
    PARSE_MALFORMED,
    PARSE_OK,
    PromptTemplate,
    load_template,
    parse_closeqa_completion,
    parse_openqa_completion,
    render_closeqa_prompt,
    render_openqa_prompt,
)

from .conftest import DATA_DIR


def _sink_track():
    texts = [
        "C turns on sink knob.",
        "C washes the cucumber on the sink.",
        "C turns off sink knob.",
    ]
    track = NarrationTrack(
        "clip-x", 30.0, tuple(Narration(t, 2.0 + 5 * i) for i, t in enumerate(texts))
    )
    chunk = NarrationChunk("clip-x", (0, 1, 2), TemporalWindow(1.5, 12.5), 0)
    return chunk, track


class TestTemplates:
    def test_all_three_load(self):
        for tid in ("openqa_llama", "openqa_chat", "closeqa_llama"):
            t = load_template(tid)
            assert t.template_id == tid
            assert t.text
            assert not t.text.endswith("\n")

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError, match="unknown template id 'nope'"):
            load_template("nope")

    def test_openqa_keeps_format_descriptor_literal(self):
        # "<question>"/"<answer>" inside the openqa templates describe the
        # output format and must never be treated as fill slots
        for tid in ("openqa_llama", "openqa_chat"):
            text = load_template(tid).text
            assert '{"Q": <question>, "A": <answer>}' in text

    def test_slot_count_validation(self):
        with pytest.raises(ValidationError, match="openqa template needs one <narrations> slot"):
            PromptTemplate("openqa_llama", "no slot here")
        with pytest.raises(ValidationError, match="closeqa template needs one <question>"):
            PromptTemplate("closeqa_llama", "only <question> present")


class TestRenderOpenqa:
    def test_matches_golden_llama(self):
        chunk, track = _sink_track()
        rendered = render_openqa_prompt(chunk, track, load_template("openqa_llama"))
        with open(os.path.join(DATA_DIR, "golden_prompt_openqa_llama.txt"), "rb") as f:
            assert rendered.encode("utf-8") == f.read()

    def test_matches_golden_chat(self):
        chunk, track = _sink_track()
        rendered = render_openqa_prompt(chunk, track, load_template("openqa_chat"))
        with open(os.path.join(DATA_DIR, "golden_prompt_openqa_chat.txt"), "rb") as f:
            assert rendered.encode("utf-8") == f.read()

    def test_narration_text_is_not_rescanned(self):
        # slot-like text in narrations must pass through verbatim
        track = NarrationTrack(
            "clip-x", 30.0, (Narration("C holds <narrations> sign.", 2.0),)
        )
        chunk = NarrationChunk("clip-x", (0,), TemporalWindow(1.5, 2.5), 0)
        rendered = render_openqa_prompt(chunk, track, load_template("openqa_llama"))
        assert rendered.count("C holds <narrations> sign.") == 1

    def test_clip_mismatch_rejected(self):
        chunk, track = _sink_track()
        other = NarrationTrack("other", 30.0, track.narrations)
        with pytest.raises(ValidationError, match="not 'other'"):
            render_openqa_prompt(chunk, other, load_template("openqa_llama"))

    def test_wrong_template_kind_rejected(self):
        chunk, track = _sink_track()
        with pytest.raises(ValidationError, match="render_openqa_prompt needs an openqa template"):
            render_openqa_prompt(chunk, track, load_template("closeqa_llama"))


class TestRenderCloseqa:
    def test_matches_golden(self):
        rendered = render_closeqa_prompt(
            "What did i pour in the bowl?", "boiling water", load_template("closeqa_llama")
        )
        with open(os.path.join(DATA_DIR, "golden_prompt_closeqa_llama.txt"), "rb") as f:
            assert rendered.encode("utf-8") == f.read()

    def test_answer_containing_slot_text_not_rescanned(self):
        rendered = render_closeqa_prompt(
            "Why?", "<question> marks", load_template("closeqa_llama")
        )
        assert rendered.count("<question> marks") == 1

    def test_blank_question_rejected(self):
        with pytest.raises(ValidationError, match="question and answer must be non-empty"):
            render_closeqa_prompt("  ", "x", load_template("closeqa_llama"))


class TestParseOpenqa:
    def test_clean_object(self):
        p = parse_openqa_completion('{"Q": "Where is it?", "A": "on the table"}')
        assert p.status == PARSE_OK
        assert p.question == "Where is it?"
        assert p.answer == "on the table"

    def test_object_embedded_in_prose(self):
        raw = 'Sure! Here you go: {"Q": "What broke?", "A": "the glass"} Hope that helps.'
        p = parse_openqa_completion(raw)
        assert p.status == PARSE_OK
        assert p.question == "What broke?"

    def test_first_valid_object_wins(self):
        raw = '{"notes": 1} {"Q": "Who sang?", "A": "the choir"} {"Q": "later?", "A": "no"}'
        p = parse_openqa_completion(raw)
        assert p.answer == "the choir"
        # an object that repeats a key is not a value, so the clean one after it wins
        raw = ('{"Q": "What did I cut?", "A": "a leek", "A": "an onion"} '
               '{"Q": "What did I cut?", "A": "a leek"}')
        assert parse_openqa_completion(raw).answer == "a leek"

    def test_missing_question_mark_is_constraint(self):
        p = parse_openqa_completion('{"Q": "Where is it", "A": "here"}')
        assert p.status == PARSE_CONSTRAINT

    def test_question_over_ten_words_is_constraint(self):
        q = "Why did the very long question keep on going and going?"
        p = parse_openqa_completion('{"Q": "%s", "A": "x"}' % q)
        assert p.status == PARSE_CONSTRAINT

    def test_answer_over_five_words_is_constraint(self):
        p = parse_openqa_completion(
            '{"Q": "Where?", "A": "one two three four five six"}'
        )
        assert p.status == PARSE_CONSTRAINT

    def test_ten_word_question_and_five_word_answer_pass(self):
        q = "What did I do with the cup on the table?"
        a = "put it on the shelf"
        p = parse_openqa_completion('{"Q": "%s", "A": "%s"}' % (q, a))
        assert p.status == PARSE_OK

    def test_blank_field_is_constraint(self):
        p = parse_openqa_completion('{"Q": "   ", "A": "a cup"}')
        assert (p.status, p.reason) == (PARSE_CONSTRAINT, "empty field")

    def test_no_object_is_malformed(self):
        p = parse_openqa_completion("I cannot answer that.")
        assert p.status == PARSE_MALFORMED

    def test_non_string_fields_are_malformed(self):
        p = parse_openqa_completion('{"Q": 5, "A": "x"}')
        assert p.status == PARSE_MALFORMED

    def test_repeated_key_is_malformed(self):
        # ambiguous, not resolved to its last value
        p = parse_openqa_completion('{"Q": "What did I cut?", "A": "a leek", "A": "an onion"}')
        assert p.status == PARSE_MALFORMED

    def test_nesting_deeper_than_the_decoder_is_malformed(self):
        raw = '{"Q": ' + "[" * 100_000 + "]" * 100_000 + ', "A": "x"}'
        assert parse_openqa_completion(raw).status == PARSE_MALFORMED


class TestParseCloseqa:
    def test_clean_list(self):
        p = parse_closeqa_completion('["a plate", "a fork", "a spoon"]', "a cup")
        assert p.status == PARSE_OK
        assert p.distractors == ("a plate", "a fork", "a spoon")

    def test_list_embedded_in_prose(self):
        raw = 'Wrong answers: ["red", "green", "blue"] as requested.'
        p = parse_closeqa_completion(raw, "yellow")
        assert p.status == PARSE_OK

    def test_skips_wrong_arity_lists(self):
        raw = '["just one"] ["a", "b", "c", "d"] ["x", "y", "z"]'
        p = parse_closeqa_completion(raw, "w")
        assert p.distractors == ("x", "y", "z")

    def test_distractor_equal_to_answer_is_constraint(self):
        p = parse_closeqa_completion('["A Cup.", "a fork", "a spoon"]', "a cup")
        assert p.status == PARSE_CONSTRAINT

    def test_duplicate_distractors_is_constraint(self):
        p = parse_closeqa_completion('["a fork", "A   fork", "a spoon"]', "a cup")
        assert p.status == PARSE_CONSTRAINT

    def test_empty_distractor_is_constraint(self):
        p = parse_closeqa_completion('["", "a pan", "a lid"]', "a cup")
        assert (p.status, p.reason) == (PARSE_CONSTRAINT, "empty distractor")

    def test_no_list_is_malformed(self):
        p = parse_closeqa_completion("Sorry, no.", "a cup")
        assert p.status == PARSE_MALFORMED

    def test_nesting_deeper_than_the_decoder_is_malformed(self):
        assert parse_closeqa_completion("[" * 100_000, "a").status == PARSE_MALFORMED
        # a list before the nest is still found
        p = parse_closeqa_completion('["x", "y", "z"] ' + "[" * 100_000, "a")
        assert p.distractors == ("x", "y", "z")
