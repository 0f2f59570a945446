"""Prompt templates and completion parsing for QA generation.

The three bundled templates carry their instruction text and in-context
examples verbatim, including the original wording quirks; tests pin them
byte-for-byte against golden renderings. Slots are spliced by position so
slot-like text inside user data is never re-expanded.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .core import NarrationTrack, ValidationError, choice_forms
from .jsonl_io import json_values

if TYPE_CHECKING:
    from .chunking import NarrationChunk

TEMPLATE_IDS = ("openqa_llama", "openqa_chat", "closeqa_llama")

MAX_QUESTION_WORDS = 10
MAX_ANSWER_WORDS = 5

PARSE_OK = "ok"
PARSE_MALFORMED = "malformed"
PARSE_CONSTRAINT = "constraint_violation"


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    text: str

    def __post_init__(self) -> None:
        if self.template_id not in TEMPLATE_IDS:
            raise ValidationError(f"unknown template id {self.template_id!r}")
        if self.template_id.startswith("openqa"):
            # The openqa templates also mention "<question>"/"<answer>" in
            # their format description; only <narrations> is a fill slot.
            if self.text.count("<narrations>") != 1:
                raise ValidationError("openqa template needs one <narrations> slot")
        else:
            if self.text.count("<question>") != 1 or self.text.count("<answer>") != 1:
                raise ValidationError(
                    "closeqa template needs one <question> and one <answer> slot"
                )


def load_template(template_id: str) -> PromptTemplate:
    """Load a bundled template by id."""
    if template_id not in TEMPLATE_IDS:
        raise ValidationError(
            f"unknown template id {template_id!r}; expected one of {TEMPLATE_IDS}"
        )
    path = resources.files("egoqa").joinpath("templates", f"{template_id}.txt")
    return PromptTemplate(template_id, path.read_bytes().decode("utf-8"))


def render_openqa_prompt(
    chunk: NarrationChunk, track: NarrationTrack, template: PromptTemplate
) -> str:
    """Splice the chunk's narration sentences into an openqa template."""
    if not template.template_id.startswith("openqa"):
        raise ValidationError(
            f"render_openqa_prompt needs an openqa template, got {template.template_id}"
        )
    if chunk.clip_uid != track.clip_uid:
        raise ValidationError(
            f"chunk belongs to {chunk.clip_uid!r}, not {track.clip_uid!r}"
        )
    for i in chunk.members:
        if not 0 <= i < len(track.narrations):
            raise ValidationError(f"member index {i} outside track")
    joined = " ".join(track.narrations[i].text.strip() for i in chunk.members)
    if not joined:
        raise ValidationError("chunk has no narration text")
    head, tail = template.text.split("<narrations>")
    return head + joined + tail


def render_closeqa_prompt(
    question: str, answer: str, template: PromptTemplate
) -> str:
    """Splice a question/answer pair into the distractor-generation template."""
    if template.template_id != "closeqa_llama":
        raise ValidationError(
            f"render_closeqa_prompt needs the closeqa template, got {template.template_id}"
        )
    if not question.strip() or not answer.strip():
        raise ValidationError("question and answer must be non-empty")
    head, rest = template.text.split("<question>")
    mid, tail = rest.split("<answer>")
    return head + question + mid + answer + tail


@dataclass(frozen=True)
class ParsedCompletion:
    """Outcome of parsing one raw completion.

    status is one of ok / malformed / constraint_violation; payload fields
    are populated only when status is ok.
    """

    status: str
    question: str | None = None
    answer: str | None = None
    distractors: tuple[str, str, str] | None = None
    reason: str | None = None


def word_count(text: str) -> int:
    return len(text.split())


def parse_openqa_completion(raw: str) -> ParsedCompletion:
    """Extract the first {"Q": ..., "A": ...} object, tolerating prose.

    Enforces the generation constraints: the question ends with "?" and has
    at most 10 words; the answer has at most 5. Violating pairs are reported
    as constraint_violation and dropped by callers, never truncated.
    """
    for value in json_values(raw, "{"):
        if (
            isinstance(value, dict)
            and isinstance(value.get("Q"), str)
            and isinstance(value.get("A"), str)
        ):
            question = value["Q"].strip()
            answer = value["A"].strip()
            if not question or not answer:
                return ParsedCompletion(PARSE_CONSTRAINT, reason="empty field")
            if not question.endswith("?"):
                return ParsedCompletion(
                    PARSE_CONSTRAINT, reason="question must end with '?'"
                )
            if word_count(question) > MAX_QUESTION_WORDS:
                return ParsedCompletion(
                    PARSE_CONSTRAINT,
                    reason=f"question over {MAX_QUESTION_WORDS} words",
                )
            if word_count(answer) > MAX_ANSWER_WORDS:
                return ParsedCompletion(
                    PARSE_CONSTRAINT, reason=f"answer over {MAX_ANSWER_WORDS} words"
                )
            return ParsedCompletion(PARSE_OK, question=question, answer=answer)
    return ParsedCompletion(PARSE_MALFORMED, reason="no object with string Q and A")


def parse_closeqa_completion(raw: str, correct_answer: str) -> ParsedCompletion:
    """Extract the first well-formed 3-string list of distractors.

    The stripped list and the correct answer must pass core.choice_forms,
    the rule QASample applies to wrong_answers: a list that breaks it is a
    constraint violation with the rule's message as reason, such as "empty
    distractor" for "?!". Lists of the wrong arity are skipped; if none of
    the right shape exists the completion is malformed.
    """
    for value in json_values(raw, "["):
        if (
            isinstance(value, list)
            and len(value) == 3
            and all(isinstance(v, str) for v in value)
        ):
            distractors = tuple(v.strip() for v in value)
            try:
                choice_forms(correct_answer, distractors)
            except ValidationError as exc:
                return ParsedCompletion(PARSE_CONSTRAINT, reason=str(exc))
            return ParsedCompletion(PARSE_OK, distractors=distractors)
    return ParsedCompletion(PARSE_MALFORMED, reason="no 3-element string list")
