"""Input formats and streaming JSONL persistence with deterministic headers.

Every dataset file is UTF-8 JSON objects, one per line, preceded by a
{"_meta": ...} header carrying the tool version, a configuration hash and
the seed. The header deliberately has no timestamp, and each command
hashes only the settings that change its payload (never parallelism,
timeouts or paths), so equal-configuration runs produce byte-identical
files. Keys are sorted and separators compact, making the encoding
canonical. The writers place the header and the readers skip it.

Every input-format rule is here: the row decoders, the raw narration export
(export_tracks), the narrations sniff (read_narrations) and the positional
query ids of ground truth (read_ground_truth). The row readers are
generators that decode one row at a time, but not every reader is bounded
by the row: read_rows with unique keeps each key it has seen,
read_ground_truth returns every sample, and a raw export is read whole.
README "File formats" lists what each command holds.
"""
from __future__ import annotations

import hashlib
import json
import math
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

class SchemaMismatch(ValidationError):
    """A row decoded but does not match the expected record shape."""


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
    ValidationError names path when the temp file cannot be created or
    renamed onto it; errors raised in the caller's block propagate unchanged.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        f = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot create output: {exc.strerror}") from None
    try:
        with f:
            yield f
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ValidationError(f"{path}: cannot replace output: {exc.strerror}") from None
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def check_outputs(*paths: str, inputs: Iterable[str | None] = ()) -> None:
    """Raise ValidationError for the first path that is a directory, lies
    in a directory that does not exist, or names one of the inputs (None
    entries are skipped) or an earlier output again.

    A command checks all its outputs before its first write, so a bad later
    path leaves no earlier output behind, and no output can ever replace an
    input or another output.
    """
    taken = dict.fromkeys(map(os.path.realpath, filter(None, inputs)), "both input and output")
    for path in paths:
        if os.path.isdir(path):
            raise ValidationError(f"{path}: cannot replace output: Is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValidationError(f"{path}: cannot create output: No such file or directory")
        real = os.path.realpath(path)
        if real in taken:
            raise ValidationError(f"{path}: named as {taken[real]}")
        taken[real] = "more than one output"


@contextmanager
def jsonl_writer(
    path: str, meta: Mapping[str, Any]
) -> Iterator[Callable[[Mapping[str, Any]], None]]:
    """Yield a function that appends one row to path, after the header meta.
    Like staged_writer, path is replaced only if the block completes."""
    with staged_writer(path) as f:
        f.write(dumps_canonical(meta) + "\n")
        yield lambda row: f.write(dumps_canonical(row) + "\n")


def write_jsonl(path: str, rows: Iterable[Mapping[str, Any]], meta: Mapping[str, Any]) -> int:
    """Write the header meta plus rows; returns the payload row count."""
    count = 0
    with jsonl_writer(path, meta) as write:
        for count, row in enumerate(rows, 1):
            write(row)
    return count


def write_json(path: str, doc: Mapping[str, Any], meta: Mapping[str, Any]) -> None:
    """Write one canonical JSON document (stats, reports) atomically, the
    header's key beside doc's."""
    with staged_writer(path) as f:
        f.write(dumps_canonical({**meta, **doc}) + "\n")


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
    """DECODER.decode, raising ValidationError for any text it rejects:
    syntax errors, integers over the interpreter's digit limit (a plain
    ValueError), nesting deeper than the recursion limit, and an object
    that repeats a key."""
    try:
        return DECODER.decode(text)
    except _RepeatedKey as exc:
        raise ValidationError(f"{where}: repeated key {exc.args[0]!r}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{where}: not JSON: {exc}") from exc


def read_json_object(path: str, what: str) -> dict[str, Any]:
    """Load a whole-file JSON object (config, export, mock fixture)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    doc = _decode(text, f"{what} {path}")
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return doc


def read_jsonl(path: str) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (1-based line number, row) for each payload row, lazily.

    A leading {"_meta": ...} row is skipped. Lines are decoded one at a
    time, so bytes that are not UTF-8 are reported with their line.
    """
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    scan = DECODER.raw_decode
    with f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
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


def read_ground_truth(path: str) -> dict[str, QASample]:
    """The samples of a ground-truth qa file keyed by positional query id:
    '<clip_uid>::<k>' for the k-th sample of its clip (0-based, in file
    order). Ground truth carries no ids, so prediction rows name these."""
    gts: dict[str, QASample] = {}
    ordinals: dict[str, int] = {}
    for _, sample in read_rows(path, row_to_qa):
        k = ordinals.get(sample.clip_uid, 0)
        ordinals[sample.clip_uid] = k + 1
        gts[f"{sample.clip_uid}::{k}"] = sample
    if not gts:
        raise ValidationError(f"{path} has no samples")
    return gts


def read_narrations(
    path: str, which_pass: str, reject: Callable[..., None]
) -> Iterator[NarrationTrack]:
    """The tracks of a narrations input in either format, which its first
    line tells before any track is read: a header or track row makes it
    narrations JSONL (read_rows, clip_uid unique); anything else makes it a
    raw export for export_tracks, that line's object if no other line has
    text, else the whole file (a pretty-printed export, say). A repeated key
    on that line raises ValidationError, as it would in either format."""
    try:
        with open(path, encoding="utf-8") as f:
            first = f.readline()
            sole = not any(line.strip() for line in f)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        doc = _decode(first, f"{path}:1")
    except ValidationError as exc:
        if isinstance(exc.__cause__, _RepeatedKey):
            raise
        doc = None
    if isinstance(doc, dict) and ("_meta" in doc or {"clip_uid", "narrations"} <= doc.keys()):
        return (track for _, track in read_rows(path, row_to_track, "clip_uid"))
    if not (isinstance(doc, dict) and sole):
        doc = read_json_object(path, "narration export")
    return export_tracks(doc, which_pass, reject)


def _pass_items(entry: Mapping[str, Any], pass_keys: tuple[str, ...]) -> list | None:
    """The raw narration items of the selected passes; None if a pass is malformed.

    A pass or its `narrations` that is absent or null holds no items; any
    other pass must be an object and its `narrations` a list.
    """
    items: list = []
    for key in pass_keys:
        block = entry.get(key)
        if block is None:
            continue
        if not isinstance(block, dict):
            return None
        narrations = block.get("narrations")
        if narrations is None:
            continue
        if not isinstance(narrations, list):
            return None
        items.extend(narrations)
    return items


def _float(value: Any) -> float | None:
    """A finite JSON number as a float; None if it is not one (a bool is
    not), overflows a float, or is NaN or infinite."""
    try:
        return float(value) if type(value) in (int, float) and math.isfinite(value) else None
    except OverflowError:
        return None


def export_tracks(
    export: Mapping[str, Any], which_pass: str, reject: Callable[..., None]
) -> Iterator[NarrationTrack]:
    """Parse a raw narration export: {clip_uid: {duration_sec, narration_pass_*}}.

    Tracks come in clip_uid order, from the passes which_pass ('1', '2' or
    'merge') names. Narration-level problems reject the narration;
    clip-level problems reject the clip. Both are reported through
    reject(unit, clip_uid, reason code[, detail]).
    """
    pass_keys = tuple(f"narration_pass_{n}" for n in "12" if which_pass in (n, "merge"))

    for clip_uid in sorted(export):
        entry = export[clip_uid]
        if not isinstance(entry, dict):
            reject("clip", clip_uid, "not_an_object")
            continue
        duration = _float(entry.get("duration_sec"))
        if duration is None or duration <= 0:
            reject("clip", clip_uid, "bad_duration", repr(entry.get("duration_sec")))
            continue
        items = _pass_items(entry, pass_keys)
        if items is None:
            reject("clip", clip_uid, "bad_narration_pass")
            continue
        narrations = []
        for item in items:
            if not isinstance(item, dict):
                reject("narration in", clip_uid, "not_an_object")
                continue
            text = item.get("narration_text")
            t_s = _float(item.get("timestamp_sec"))
            if not isinstance(text, str) or not text.strip():
                reject("narration in", clip_uid, "empty_text")
                continue
            if t_s is None:
                reject("narration in", clip_uid, "bad_timestamp")
                continue
            if t_s < 0:
                reject("narration in", clip_uid, "negative_timestamp", str(t_s))
                continue
            if t_s > duration:
                reject("narration in", clip_uid, "timestamp_after_end", f"{t_s} > {duration}")
                continue
            narrations.append(Narration(text=text.strip(), t_s=t_s))
        if not narrations:
            reject("clip", clip_uid, "no_usable_narrations")
            continue
        narrations.sort(key=lambda n: (n.t_s, n.text))
        yield NarrationTrack(clip_uid, duration, tuple(narrations))
