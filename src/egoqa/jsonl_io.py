"""Streaming JSONL persistence with deterministic metadata headers.

Every dataset file is UTF-8 JSON objects, one per line, preceded by a
{"_meta": ...} header carrying the tool version, a configuration hash and
the seed. The header deliberately has no timestamp and the hash excludes
parallelism, timeouts and paths, so equal-configuration runs produce
byte-identical files. Keys are sorted and separators compact, making the
encoding canonical.

Readers are generators: rows are decoded as they stream, so memory stays
bounded by the largest row, not the corpus.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress
from typing import Any, Callable, Iterable, Iterator, Mapping, TextIO

from .core import (
    Narration,
    NarrationTrack,
    PredictionSet,
    QASample,
    TemporalWindow,
    ValidationError,
)
from .localization import HeadOutputs, check_duration

TOOL_NAME = "egoqa"

# Configuration keys that never influence output payloads: execution-shape
# and location parameters. Excluded from the config hash so, for example,
# parallelism 1 and 4 hash identically.
VOLATILE_CONFIG_KEYS = frozenset(
    {"parallelism", "request_timeout_s", "paths", "quiet", "verbose"}
)


class UnreadableInput(ValidationError):
    """File missing, undecodable, or not JSONL."""


class SchemaMismatch(ValidationError):
    """A row decoded but does not match the expected record shape."""


class EmptyCorpus(ValidationError):
    """An input dataset contains no payload rows."""


class UnwritableOutput(ValidationError):
    """An output path that cannot be created or replaced."""


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable hex digest of the semantically relevant configuration."""
    semantic = {
        k: v
        for k, v in config.items()
        if k not in VOLATILE_CONFIG_KEYS and not _is_pathlike_key(k)
    }
    return hashlib.sha256(dumps_canonical(semantic).encode("utf-8")).hexdigest()[:16]


def _is_pathlike_key(key: str) -> bool:
    return key.endswith(("_path", "_file", "_dir")) or key in {"input", "output", "out"}


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


def check_outputs(*paths: str) -> None:
    """Raise UnwritableOutput for the first path that is a directory, lies
    in a directory that does not exist, or names an earlier output again.

    A command with several outputs checks them all before its first write,
    so a bad later path leaves no earlier output behind, and one output can
    never replace another.
    """
    seen = set()
    for path in paths:
        if os.path.isdir(path):
            raise UnwritableOutput(f"{path}: cannot replace output: Is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UnwritableOutput(f"{path}: cannot create output: No such file or directory")
        if os.path.realpath(path) in seen:
            raise UnwritableOutput(f"{path}: named as more than one output")
        seen.add(os.path.realpath(path))


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


def _decode(text: str, where: str) -> Any:
    """json.loads, raising UnreadableInput for any text the decoder rejects:
    syntax errors, integers over the interpreter's digit limit (a plain
    ValueError) and nesting deeper than the recursion limit."""
    try:
        return json.loads(text)
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

    A leading {"_meta": ...} row is skipped; use read_meta to inspect it.
    Lines are decoded one at a time, so bytes that are not UTF-8 are
    reported with their line.
    """
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise UnreadableInput(f"cannot open {path}: {exc}") from exc
    with f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise UnreadableInput(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            row = _decode(line, f"{path}:{lineno}")
            if not isinstance(row, dict):
                raise SchemaMismatch(f"{path}:{lineno}: row is not an object")
            if lineno == 1 and "_meta" in row:
                continue
            yield lineno, row


def read_first_row(path: str) -> tuple[dict[str, Any] | None, bool]:
    """The first line as a JSON object (None when it is blank or not one),
    and whether it is the file's only non-blank line."""
    try:
        with open(path, encoding="utf-8") as f:
            first = f.readline()
            sole = not any(line.strip() for line in f)
    except (OSError, ValueError) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc
    try:
        row = _decode(first, f"{path}:1")
    except UnreadableInput:
        return None, sole
    return (row if isinstance(row, dict) else None), sole


def read_meta(path: str) -> dict[str, Any] | None:
    """Return the header's _meta object, or None when the file has none."""
    meta = (read_first_row(path)[0] or {}).get("_meta")
    return meta if isinstance(meta, dict) else None


def _need(row: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in row:
        raise SchemaMismatch(f"{where}: missing field {key!r}")
    return row[key]


def track_to_row(track: NarrationTrack) -> dict[str, Any]:
    return {
        "clip_uid": track.clip_uid,
        "duration_s": track.duration_s,
        "narrations": [{"text": n.text, "t_s": n.t_s} for n in track.narrations],
    }


def row_to_track(row: Mapping[str, Any], where: str = "row") -> NarrationTrack:
    try:
        narrations = tuple(
            Narration(text=str(_need(n, "text", where)), t_s=float(_need(n, "t_s", where)))
            for n in _need(row, "narrations", where)
        )
        return NarrationTrack(
            clip_uid=str(_need(row, "clip_uid", where)),
            duration_s=float(_need(row, "duration_s", where)),
            narrations=narrations,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"{where}: bad narration track: {exc}") from exc


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
        window = _need(row, "window", where)
        wrong = row.get("wrong_answers")
        return QASample(
            clip_uid=str(_need(row, "clip_uid", where)),
            question=str(_need(row, "question", where)),
            answer=str(_need(row, "answer", where)),
            window=TemporalWindow(float(window[0]), float(window[1])),
            wrong_answers=tuple(str(w) for w in wrong) if wrong is not None else None,
            split=str(_need(row, "split", where)),
            source=str(_need(row, "source", where)),
        )
    except (TypeError, ValueError, OverflowError, LookupError, ValidationError) as exc:
        if isinstance(exc, SchemaMismatch):
            raise
        raise SchemaMismatch(f"{where}: bad qa sample: {exc}") from exc


def pred_to_row(pred: PredictionSet) -> dict[str, Any]:
    return {
        "clip_uid": pred.clip_uid,
        "query_id": pred.query_id,
        "windows": [[w.start_s, w.end_s, score] for w, score in pred.windows],
        "answer_text": pred.answer_text,
    }


def row_to_pred(row: Mapping[str, Any], where: str = "row") -> PredictionSet:
    try:
        triples = [
            (TemporalWindow(float(w[0]), float(w[1])), float(w[2]))
            for w in _need(row, "windows", where)
        ]
        # Tolerate unranked exports: order by score descending, stable.
        triples.sort(key=lambda pair: -pair[1])
        return PredictionSet(
            clip_uid=str(_need(row, "clip_uid", where)),
            query_id=str(_need(row, "query_id", where)),
            windows=tuple(triples),
            answer_text=str(row.get("answer_text", "")),
        )
    except (TypeError, ValueError, OverflowError, LookupError, ValidationError) as exc:
        if isinstance(exc, SchemaMismatch):
            raise
        raise SchemaMismatch(f"{where}: bad prediction set: {exc}") from exc


def row_to_head(
    row: Mapping[str, Any], where: str = "row"
) -> tuple[str, str, float, HeadOutputs]:
    try:
        heads = HeadOutputs(
            scores=_need(row, "scores", where), offsets=_need(row, "offsets", where)
        )
        clip_uid = str(_need(row, "clip_uid", where))
        query_id = str(_need(row, "query_id", where))
        duration_s = float(_need(row, "duration_s", where))
        check_duration(duration_s)
        return clip_uid, query_id, duration_s, heads
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        if isinstance(exc, SchemaMismatch):
            raise
        raise SchemaMismatch(f"{where}: bad head outputs: {exc}") from exc


def query_id_for(clip_uid: str, ordinal: int) -> str:
    """Positional query id for ground-truth rows: '<clip_uid>::<k>'.

    Ground-truth files carry no explicit query ids; the k-th sample of a
    clip (0-based, in file order) gets this id, and prediction files must
    reference it.
    """
    return f"{clip_uid}::{ordinal}"
