"""Streaming JSONL persistence with deterministic metadata headers.

Every dataset file is UTF-8 JSON objects, one per line, preceded by a
{"_meta": ...} header carrying the tool version, a configuration hash and
the seed. The header deliberately has no timestamp, and each command
hashes only the settings that change its payload (never parallelism,
timeouts or paths), so equal-configuration runs produce byte-identical
files. Keys are sorted and separators compact, making the encoding
canonical.

Readers are generators: rows are decoded as they stream, so memory stays
bounded by the largest row, not the corpus.
"""
from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from contextlib import contextmanager, suppress
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, TextIO

from .core import (
    Narration,
    NarrationTrack,
    PredictionSet,
    QASample,
    TemporalWindow,
    ValidationError,
    lazy_import,
)

# Only decode's head rows need the decoder module (and numpy with it).
localization = lazy_import("egoqa.localization")

TOOL_NAME = "egoqa"

class UnreadableInput(ValidationError):
    """File missing, undecodable, or not JSONL."""


class SchemaMismatch(ValidationError):
    """A row decoded but does not match the expected record shape."""


class EmptyCorpus(ValidationError):
    """An input dataset contains no payload rows."""


class UnwritableOutput(ValidationError):
    """An output path that cannot be created or replaced."""


# Canonical JSON: sorted keys, compact separators, raw UTF-8. One encoder
# serves every writer; json.dumps with these options builds one per call.
dumps_canonical: Callable[[Any], str] = json.JSONEncoder(
    ensure_ascii=False, sort_keys=True, separators=(",", ":")
).encode


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable hex digest of config, every key included.

    The caller decides what identifies an output: it passes exactly the
    settings that change the payload, never execution shape (parallelism,
    timeouts) or locations (paths).
    """
    return hashlib.sha256(dumps_canonical(config).encode("utf-8")).hexdigest()[:16]


def make_meta(config: Mapping[str, Any], seed: int | None = None) -> dict[str, Any]:
    from . import __version__

    return {
        "_meta": {
            "tool": TOOL_NAME,
            "version": __version__,
            "config_hash": config_hash(config),
            "seed": seed,
        }
    }


@contextmanager
def staged_writer(path: str) -> Iterator[TextIO]:
    """Open a text file that replaces path only if the block completes.

    Writes go to a uniquely named temp file beside path, created exclusively
    with open()'s usual mode (0666 & ~umask). On success it is renamed onto
    path; on any exception it is removed, so neither a partial target nor a
    stray temp file is left behind, and concurrent writers never collide.
    UnwritableOutput names path when the temp file cannot be created or
    renamed onto it; errors raised in the caller's block propagate unchanged.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        f = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UnwritableOutput(f"{path}: cannot create output: {exc.strerror}") from None
    try:
        with f:
            yield f
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise UnwritableOutput(f"{path}: cannot replace output: {exc.strerror}") from None
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def check_outputs(*paths: str, inputs: Iterable[str | None] = ()) -> None:
    """Raise UnwritableOutput for the first path that is a directory, lies
    in a directory that does not exist, or names one of the inputs (None
    entries are skipped) or an earlier output again.

    A command checks all its outputs before its first write, so a bad later
    path leaves no earlier output behind, and no output can ever replace an
    input or another output.
    """
    taken = dict.fromkeys(map(os.path.realpath, filter(None, inputs)), "both input and output")
    for path in paths:
        if os.path.isdir(path):
            raise UnwritableOutput(f"{path}: cannot replace output: Is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UnwritableOutput(f"{path}: cannot create output: No such file or directory")
        real = os.path.realpath(path)
        if real in taken:
            raise UnwritableOutput(f"{path}: named as {taken[real]}")
        taken[real] = "more than one output"


@contextmanager
def jsonl_writer(
    path: str, meta: Mapping[str, Any] | None = None
) -> Iterator[Callable[[Mapping[str, Any]], None]]:
    """Yield a function that appends one row to path, after a header if meta
    is given. Like staged_writer, path is replaced only if the block
    completes."""
    with staged_writer(path) as f:
        if meta is not None:
            f.write(dumps_canonical(meta) + "\n")
        yield lambda row: f.write(dumps_canonical(row) + "\n")


def write_jsonl(
    path: str, rows: Iterable[Mapping[str, Any]], meta: Mapping[str, Any] | None = None
) -> int:
    """Write a header (if given) plus rows; returns the payload row count."""
    count = 0
    with jsonl_writer(path, meta) as write:
        for count, row in enumerate(rows, 1):
            write(row)
    return count


def write_json(path: str, doc: Mapping[str, Any]) -> None:
    """Write one canonical JSON document (stats, reports) atomically."""
    with staged_writer(path) as f:
        f.write(dumps_canonical(doc) + "\n")


class _RepeatedKey(ValueError):
    """A JSON object names one key twice."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise _RepeatedKey(next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1))
    return obj


# The one decoder, for input files, completions and HTTP replies alike. json.loads
# given a hook would build a decoder per call, costing more than the hook.
DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _decode(text: str, where: str) -> Any:
    """DECODER.decode, raising UnreadableInput for any text it rejects:
    syntax errors, integers over the interpreter's digit limit (a plain
    ValueError), nesting deeper than the recursion limit, and an object
    that repeats a key."""
    try:
        return DECODER.decode(text)
    except _RepeatedKey as exc:
        raise UnreadableInput(f"{where}: repeated key {exc.args[0]!r}") from exc
    except (ValueError, RecursionError) as exc:
        raise UnreadableInput(f"{where}: not JSON: {exc}") from exc


def read_json_object(path: str, what: str) -> dict[str, Any]:
    """Load a whole-file JSON object (config, export, mock fixture)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, ValueError) as exc:
        raise UnreadableInput(f"cannot read {what} {path}: {exc}") from exc
    doc = _decode(text, f"{what} {path}")
    if not isinstance(doc, dict):
        raise UnreadableInput(f"{what} {path} must hold a JSON object")
    return doc


def read_jsonl(path: str) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (1-based line number, row) for each payload row, lazily.

    A leading {"_meta": ...} row is skipped. Lines are decoded one at a
    time, so bytes that are not UTF-8 are reported with their line.
    """
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise UnreadableInput(f"cannot open {path}: {exc}") from exc
    scan = DECODER.raw_decode
    with f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise UnreadableInput(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            # One scan of a stripped line, which DECODER.decode would take
            # whole; a line it rejects is decoded again for its message.
            try:
                row, end = scan(line)
            except (ValueError, RecursionError):
                end = -1
            if end != len(line):
                row = _decode(line, f"{path}:{lineno}")
            if not isinstance(row, dict):
                raise SchemaMismatch(f"{path}:{lineno}: row is not an object")
            if lineno == 1 and "_meta" in row:
                continue
            yield lineno, row


def read_rows(
    path: str, decode: Callable[[dict[str, Any], str], Any], unique: str | None = None
) -> Iterator[tuple[str, Any]]:
    """Yield ('<path>:<line>', decode(row, that location)) for each payload
    row. With unique, a value whose attribute of that name repeats an earlier
    row's is a SchemaMismatch."""
    seen: set[Any] = set()
    for lineno, row in read_jsonl(path):
        where = f"{path}:{lineno}"
        value = decode(row, where)
        if unique is not None:
            key = getattr(value, unique)
            if key in seen:
                raise SchemaMismatch(f"{where}: duplicate {unique} {key!r}")
            seen.add(key)
        yield where, value


def read_first_row(path: str) -> tuple[dict[str, Any] | None, bool]:
    """The first line as a JSON object (None when it is blank or not one),
    and whether it is the file's only non-blank line. A repeated key is an
    error in an export and a JSONL row alike, so it raises UnreadableInput."""
    try:
        with open(path, encoding="utf-8") as f:
            first = f.readline()
            sole = not any(line.strip() for line in f)
    except (OSError, ValueError) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc
    try:
        row = _decode(first, f"{path}:1")
    except UnreadableInput as exc:
        if isinstance(exc.__cause__, _RepeatedKey):
            raise
        return None, sole
    return (row if isinstance(row, dict) else None), sole


def json_values(raw: str, opener: str) -> Iterator[Any]:
    """Yield every JSON value (an object that repeats a key is none) that
    starts at an opener character of raw, up to the first nest deeper than
    DECODER can follow (retrying each opener inside it would take time
    quadratic in its depth)."""
    idx = raw.find(opener)
    while idx != -1:
        try:
            value, _ = DECODER.raw_decode(raw, idx)
        except RecursionError:
            return
        except ValueError:
            pass
        else:
            yield value
        idx = raw.find(opener, idx + 1)


# Exact JSON types: no number is read from a string or a bool, no text from a number.
_TEXT, _NUMBER, _LIST = frozenset((str,)), frozenset((int, float)), frozenset((list,))
_OBJECT, _THREE = frozenset((dict,)), frozenset((3,))
_KIND = {_TEXT: "a string", _NUMBER: "a number", _LIST: "an array"}
# Each row decoder first tests all of a row's field types in one expression
# and builds the value directly. A row that fails the test, or whose values
# the value types reject, takes the field-by-field path after it, the only
# one that raises, so every message names the field it always named. Both
# paths meet a bad field as one of _FIELD_ERRORS.
_FIELD_ERRORS = (LookupError, TypeError, ValueError, OverflowError, ValidationError)


@contextmanager
def _bad(where: str, what: str) -> Iterator[None]:
    """Raise a field error of the block as SchemaMismatch '<where>: bad
    <what>: <error>'; a SchemaMismatch (a missing field) passes unchanged."""
    try:
        yield
    except SchemaMismatch:
        raise
    except _FIELD_ERRORS as exc:
        raise SchemaMismatch(f"{where}: bad {what}: {exc}") from exc


def _need(row: Mapping[str, Any], key: str, where: str, kind=None) -> Any:
    """row[key], which must be of kind (_TEXT, _NUMBER or _LIST) when it is given."""
    if key not in row:
        raise SchemaMismatch(f"{where}: missing field {key!r}")
    value = row[key]
    if kind is not None and type(value) not in kind:
        raise TypeError(f"{key} must be {_KIND[kind]}, got {type(value).__name__}")
    return value


def _array(value: Any, size: int, name: str, kind=_NUMBER) -> list:
    if type(value) is not list or len(value) != size:
        raise TypeError(f"{name} must be an array of {size} items")
    for item in value:
        if type(item) not in kind:
            raise TypeError(f"each {name} item must be {_KIND[kind]}, got {type(item).__name__}")
    return value


def track_to_row(track: NarrationTrack) -> dict[str, Any]:
    return {
        "clip_uid": track.clip_uid,
        "duration_s": track.duration_s,
        "narrations": [{"text": n.text, "t_s": n.t_s} for n in track.narrations],
    }


def row_to_track(row: Mapping[str, Any], where: str = "row") -> NarrationTrack:
    try:
        narrations = row["narrations"]
        texts = [n["text"] for n in narrations]
        times = [n["t_s"] for n in narrations]
        clip_uid, duration_s = row["clip_uid"], row["duration_s"]
        if (type(clip_uid) is str and type(duration_s) in _NUMBER
                and type(narrations) is list and _OBJECT.issuperset(map(type, narrations))
                and _TEXT.issuperset(map(type, texts)) and _NUMBER.issuperset(map(type, times))):
            return NarrationTrack(
                clip_uid, float(duration_s), tuple(map(Narration, texts, map(float, times)))
            )
    except _FIELD_ERRORS:
        pass
    with _bad(where, "narration track"):
        narrations = tuple(
            Narration(_need(n, "text", where, _TEXT), float(_need(n, "t_s", where, _NUMBER)))
            for n in _need(row, "narrations", where, _LIST)
        )
        return NarrationTrack(
            clip_uid=_need(row, "clip_uid", where, _TEXT),
            duration_s=float(_need(row, "duration_s", where, _NUMBER)),
            narrations=narrations,
        )


def qa_to_row(sample: QASample) -> dict[str, Any]:
    row: dict[str, Any] = {
        "clip_uid": sample.clip_uid,
        "question": sample.question,
        "answer": sample.answer,
        "window": [sample.window.start_s, sample.window.end_s],
        "split": sample.split,
        "source": sample.source,
    }
    if sample.wrong_answers is not None:
        row["wrong_answers"] = list(sample.wrong_answers)
    return row


def row_to_qa(row: Mapping[str, Any], where: str = "row") -> QASample:
    try:
        window, wrong = row["window"], row.get("wrong_answers")
        texts = (row["clip_uid"], row["question"], row["answer"])
        split, source = row["split"], row["source"]
        if (type(window) is list and len(window) == 2 and _NUMBER.issuperset(map(type, window))
                and (wrong is None or type(wrong) is list and len(wrong) == 3)
                and _TEXT.issuperset(map(type, (*texts, split, source, *(wrong or ()))))):
            window = TemporalWindow(float(window[0]), float(window[1]))
            return QASample(*texts, window, wrong if wrong is None else tuple(wrong),
                            split, source)
    except _FIELD_ERRORS:
        pass
    with _bad(where, "qa sample"):
        start, end = map(float, _array(_need(row, "window", where), 2, "window"))
        wrong = row.get("wrong_answers")
        return QASample(
            clip_uid=_need(row, "clip_uid", where, _TEXT),
            question=_need(row, "question", where, _TEXT),
            answer=_need(row, "answer", where, _TEXT),
            window=TemporalWindow(start, end),
            wrong_answers=(
                None if wrong is None else tuple(_array(wrong, 3, "wrong_answers", _TEXT))
            ),
            split=_need(row, "split", where, _TEXT),
            source=_need(row, "source", where, _TEXT),
        )


def pred_to_row(pred: PredictionSet) -> dict[str, Any]:
    return {
        "clip_uid": pred.clip_uid,
        "query_id": pred.query_id,
        "windows": [[w.start_s, w.end_s, score] for w, score in pred.windows],
        "answer_text": pred.answer_text,
    }


def row_to_pred(row: Mapping[str, Any], where: str = "row") -> PredictionSet:
    try:
        windows = row["windows"]
        clip_uid, query_id = row["clip_uid"], row["query_id"]
        answer_text = row.get("answer_text", "")
        if (type(windows) is list and type(clip_uid) is str and type(query_id) is str
                and type(answer_text) is str
                and (not windows or _LIST.issuperset(map(type, windows))
                     and _THREE.issuperset(map(len, windows))
                     and _NUMBER.issuperset(map(type, chain.from_iterable(windows))))):
            triples = [
                (TemporalWindow(float(start), float(end)), float(score))
                for start, end, score in windows
            ]
            triples.sort(key=lambda pair: -pair[1])
            return PredictionSet(clip_uid, query_id, tuple(triples), answer_text)
    except _FIELD_ERRORS:
        pass
    with _bad(where, "prediction set"):
        triples = [
            (TemporalWindow(float(start), float(end)), float(score))
            for start, end, score in (
                _array(w, 3, "prediction window") for w in _need(row, "windows", where, _LIST)
            )
        ]
        # Tolerate unranked exports: order by score descending, stable.
        triples.sort(key=lambda pair: -pair[1])
        return PredictionSet(
            clip_uid=_need(row, "clip_uid", where, _TEXT),
            query_id=_need(row, "query_id", where, _TEXT),
            windows=tuple(triples),
            answer_text=_need(row, "answer_text", where, _TEXT) if "answer_text" in row else "",
        )


def row_to_head(
    row: Mapping[str, Any], where: str = "row"
) -> tuple[str, str, float, localization.HeadOutputs]:
    with _bad(where, "head outputs"):
        heads = localization.HeadOutputs(
            scores=_need(row, "scores", where), offsets=_need(row, "offsets", where)
        )
        clip_uid = _need(row, "clip_uid", where, _TEXT)
        query_id = _need(row, "query_id", where, _TEXT)
        duration_s = float(_need(row, "duration_s", where, _NUMBER))
        localization.check_duration(duration_s)
        return clip_uid, query_id, duration_s, heads


def query_id_for(clip_uid: str, ordinal: int) -> str:
    """Positional query id for ground-truth rows: '<clip_uid>::<k>'.

    Ground-truth files carry no explicit query ids; the k-th sample of a
    clip (0-based, in file order) gets this id, and prediction files must
    reference it.
    """
    return f"{clip_uid}::{ordinal}"
