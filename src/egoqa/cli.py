"""Command-line pipeline: ingest, synthesize, filter-blind, eval, stats, decode.

Configuration resolves flags over environment variables (EGOQA_API_KEY,
EGOQA_BASE_URL) over a JSON --config file. Exit codes: 0 success, 2 input
validation failure, 3 endpoint failure, 4 internal invariant breach.

Commands stream their inputs row by row; only per-clip state and small
aggregates are held in memory.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
import traceback
from collections import Counter, deque
from typing import Any, Iterator, Mapping

from .blindfilter import (
    TRIALS,
    FrequencyPriorAnswerer,
    UniformRandomAnswerer,
    filter_rows,
)
from .core import (
    EgoqaError,
    EvalReport,
    InvariantBreach,
    Narration,
    NarrationTrack,
    PredictionSet,
    QASample,
    ServiceError,
    ValidationError,
    validate_track,
)
from .embedding import HttpEmbedder, TrigramEmbedder
from .endpoint import EndpointConfig, HttpChatEndpoint, MockChatEndpoint
from .jsonl_io import (
    EmptyCorpus,
    SchemaMismatch,
    UnwritableOutput,
    check_outputs,
    jsonl_writer,
    make_meta,
    pred_to_row,
    qa_to_row,
    query_id_for,
    read_first_row,
    read_json_object,
    read_jsonl,
    row_to_head,
    row_to_pred,
    row_to_qa,
    row_to_track,
    staged_writer,
    track_to_row,
    write_json,
    write_jsonl,
)
from .localization import decode_windows
from .metrics import MissingQuery, closeqa_accuracy, openqa_report, vlg_recall
from .prompts import PARSE_OK, load_template
from .seeding import derive_seed
from .stats import HISTOGRAMS, StatsBuilder
from .synthesis import GenerationRecord, synthesize
from .windows import NoIntervalData, compute_stats

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ENDPOINT = 3
EXIT_INTERNAL = 4


def _resolve(
    args: argparse.Namespace,
    file_config: Mapping[str, Any],
    name: str,
    default: Any,
    env_var: str | None = None,
    cast=None,
):
    """flags > environment > config file > builtin default."""
    value = getattr(args, name, None)
    if value is None and env_var:
        value = os.environ.get(env_var) or None
    if value is None:
        value = file_config.get(name)
    if value is None:
        value = default
    if cast is not None and value is not None:
        try:
            value = cast(value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"{name}: cannot read {value!r} as {cast.__name__}"
            ) from None
    return value


def _endpoint_config(args: argparse.Namespace, file_config: Mapping[str, Any]) -> EndpointConfig:
    # The mock sends no request, so no address may enter the config hash.
    base_url = "" if getattr(args, "mock", None) else _resolve(
        args, file_config, "base_url", "", "EGOQA_BASE_URL", str
    )
    return EndpointConfig(
        base_url=base_url,
        model=_resolve(args, file_config, "model", "mock", None, str),
        temperature=_resolve(args, file_config, "temperature", 0.0, None, float),
        max_tokens=_resolve(args, file_config, "max_tokens", 128, None, int),
        request_timeout_s=_resolve(args, file_config, "timeout", 30.0, None, float),
        max_retries=_resolve(args, file_config, "max_retries", 2, None, int),
        parallelism=_resolve(args, file_config, "parallelism", 1, None, int),
    )


def _make_endpoint(args: argparse.Namespace, config: EndpointConfig):
    if getattr(args, "mock", None):
        return MockChatEndpoint(read_json_object(args.mock, "mock fixture"))
    if not config.base_url:
        raise ValidationError(
            "no endpoint configured: pass --base-url / EGOQA_BASE_URL or --mock"
        )
    return HttpChatEndpoint(config, api_key=os.environ.get("EGOQA_API_KEY"))


# ---------------------------------------------------------------- ingest


def _pass_items(entry: Mapping[str, Any], pass_keys: tuple[str, ...]) -> list | None:
    """The raw narration items of the selected passes; None if a pass is malformed."""
    items: list = []
    for key in pass_keys:
        block = entry.get(key) or {}
        narrations = (block.get("narrations") or []) if isinstance(block, dict) else None
        if not isinstance(narrations, list):
            return None
        items.extend(narrations)
    return items


def _float(value: Any) -> float | None:
    """A JSON number as a float; None if it is not one or overflows a float."""
    try:
        return float(value) if isinstance(value, (int, float)) else None
    except OverflowError:
        return None


def _log_reject(unit: str, clip_uid: str, code: str, detail: str = "") -> None:
    log.warning(
        "ingest reject %s %s: %s%s", unit, clip_uid, code, f" ({detail})" if detail else ""
    )


def _iter_export_tracks(
    export: Mapping[str, Any], which_pass: str, reject=_log_reject
) -> Iterator[NarrationTrack]:
    """Parse a raw narration export: {clip_uid: {duration_sec, narration_pass_*}}.

    Narration-level problems reject the narration; clip-level problems
    reject the clip. Both are reported through reject with a reason code.
    """
    pass_keys = {
        "1": ("narration_pass_1",),
        "2": ("narration_pass_2",),
        "merge": ("narration_pass_1", "narration_pass_2"),
    }[which_pass]

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


def cmd_ingest(args: argparse.Namespace, file_config: Mapping[str, Any]) -> int:
    which_pass = _resolve(args, file_config, "narration_pass", "merge", None, str)
    if which_pass not in ("1", "2", "merge"):
        raise ValidationError(f"--pass must be 1, 2 or merge, got {which_pass!r}")

    rejects: Counter[str] = Counter()

    def reject(unit: str, clip_uid: str, code: str, detail: str = "") -> None:
        rejects[code] += 1
        _log_reject(unit, clip_uid, code, detail)

    first, sole = read_first_row(args.input)
    keys = set(first or ())
    if "_meta" in keys or {"clip_uid", "narrations"} <= keys:
        tracks = (track for _, track in _iter_tracks(args.input))
    else:
        # A one-line export was parsed whole by the sniff; anything else
        # (a pretty-printed export, say) is loaded as one document.
        if first is None or not sole:
            first = read_json_object(args.input, "narration export")
        tracks = _iter_export_tracks(first, which_pass, reject)

    def valid_rows():
        written = 0
        for track in tracks:
            violations = validate_track(track)
            if violations:
                reject("clip", track.clip_uid, ",".join(v.code for v in violations))
                continue
            written += 1
            yield track_to_row(track)
        if not written:
            reasons = ", ".join(f"{code}={n}" for code, n in sorted(rejects.items()))
            raise EmptyCorpus(f"{args.input}: no usable clips (rejects: {reasons or 'none'})")

    meta = make_meta({"command": "ingest", "narration_pass": which_pass})
    count = write_jsonl(args.out, valid_rows(), meta)
    log.info("ingest: wrote %d clips to %s", count, args.out)
    return EXIT_OK


# ------------------------------------------------------------ synthesize


def _record_to_row(record: GenerationRecord) -> dict[str, Any]:
    """Every field of the audit record; optional fields only when set."""
    return {k: v for k, v in vars(record).items() if v is not None}


def _iter_tracks(path: str) -> Iterator[tuple[str, NarrationTrack]]:
    """(file:line, track) for each row of a narrations file; a clip_uid seen
    on an earlier row is a SchemaMismatch."""
    seen: set[str] = set()
    for lineno, row in read_jsonl(path):
        where = f"{path}:{lineno}"
        track = row_to_track(row, where)
        if track.clip_uid in seen:
            raise SchemaMismatch(f"{where}: duplicate clip_uid {track.clip_uid!r}")
        seen.add(track.clip_uid)
        yield where, track


def _read_tracks(path: str) -> Iterator[NarrationTrack]:
    """The tracks of a narrations file; an invalid track is a ValidationError."""
    for where, track in _iter_tracks(path):
        violations = validate_track(track)
        if violations:
            raise ValidationError(
                f"{where}: invalid track "
                f"{track.clip_uid!r}: {','.join(v.code for v in violations)}"
            )
        yield track


def cmd_synthesize(args: argparse.Namespace, file_config: Mapping[str, Any]) -> int:
    config = _endpoint_config(args, file_config)
    endpoint = _make_endpoint(args, config)
    seed = _resolve(args, file_config, "seed", 0, None, int)
    split = _resolve(args, file_config, "split", "train", None, str)
    max_sentences = _resolve(args, file_config, "max_sentences", 5, None, int)
    max_span_s = _resolve(args, file_config, "max_span_s", 30.0, None, float)
    openqa_template = load_template(
        _resolve(args, file_config, "openqa_template", "openqa_llama", None, str)
    )
    with_distractors = not getattr(args, "no_distractors", False)
    closeqa_template = load_template("closeqa_llama") if with_distractors else None
    records_path = args.records or args.out + ".records.jsonl"
    stats_path = args.stats_out or args.out + ".stats.json"
    check_outputs(records_path, args.out, stats_path)

    # Pass 1: corpus timing statistics. compute_stats streams the tracks
    # and keeps one number per clip.
    seen = 0

    def counted() -> Iterator[NarrationTrack]:
        nonlocal seen
        for track in _read_tracks(args.narrations):
            seen += 1
            yield track

    try:
        stats = compute_stats(counted())
    except NoIntervalData:
        if seen == 0:
            raise EmptyCorpus(f"{args.narrations} has no clips") from None
        raise

    hashed_config = {
        "command": "synthesize",
        "model": config.model,
        "base_url": config.base_url,
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
        "max_retries": config.max_retries,
        "max_sentences": max_sentences,
        "max_span_s": max_span_s,
        "split": split,
        "openqa_template": openqa_template.template_id,
        "with_distractors": with_distractors,
        "seed": seed,
    }
    meta = make_meta(hashed_config, seed)

    builder = StatsBuilder()
    sent: Counter[str] = Counter()
    parsed: Counter[str] = Counter()
    failure = None

    def iter_sample_rows(write_record):
        nonlocal failure
        clips = synthesize(
            _read_tracks(args.narrations), stats, config, openqa_template,
            closeqa_template, endpoint, split, max_sentences, max_span_s,
        )
        for track, records, samples, failure in clips:
            builder.add_narration_stats(len(track.narrations), track.duration_s)
            for record in records:
                sent[record.kind] += 1
                parsed[record.kind] += record.parse_status == PARSE_OK
                write_record(_record_to_row(record))
            for sample in samples:
                builder.add(sample)
                yield qa_to_row(sample)

    start = time.monotonic()
    with jsonl_writer(records_path, meta) as write_record:
        count = write_jsonl(args.out, iter_sample_rows(write_record), meta)
    elapsed = max(time.monotonic() - start, 1e-9)
    if count:
        write_json(stats_path, {"_meta": meta["_meta"], **builder.finalize()})
    log.info(
        "synthesize: wrote %d samples to %s in %.2fs; parsed openqa %d/%d, closeqa %d/%d",
        count, args.out, elapsed,
        parsed["openqa"], sent["openqa"], parsed["closeqa"], sent["closeqa"],
    )
    if failure is not None:
        log.error("synthesize aborted early, partial results persisted: %s", failure)
        raise failure
    return EXIT_OK


# ----------------------------------------------------------- filter-blind


def cmd_filter_blind(args: argparse.Namespace, file_config: Mapping[str, Any]) -> int:
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ValidationError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}"
            ) from None
    else:
        base = _resolve(args, file_config, "seed", 0, None, int)
        seeds = [derive_seed("blind-trial", base, t) for t in range(TRIALS)]
    reshuffle = not getattr(args, "no_reshuffle", False)

    kind = _resolve(args, file_config, "answerer", "frequency", None, str)
    if kind not in ("frequency", "uniform"):
        raise ValidationError(f"--answerer must be frequency or uniform, got {kind!r}")
    report_path = args.report or args.out + ".report.json"
    check_outputs(args.out, report_path)

    def read_qa(path: str) -> Iterator[QASample]:
        return (row_to_qa(row, f"{path}:{n}") for n, row in read_jsonl(path))

    samples = read_qa(args.qa)
    if kind == "uniform":
        answerer = UniformRandomAnswerer()
    elif args.train in (None, args.qa):
        # The training answers are the test set's own: read the file once,
        # and let each sample go once the filter has passed it.
        held = deque(samples)
        answerer = FrequencyPriorAnswerer(s.answer for s in held)
        samples = (held.popleft() for _ in range(len(held)))
    else:
        answerer = FrequencyPriorAnswerer(s.answer for s in read_qa(args.train))
    pairs = filter_rows(samples, answerer, seeds, reshuffle)

    hashed_config = {
        "command": "filter-blind",
        "answerer": kind,
        "seeds": seeds,
        "reshuffle_per_trial": reshuffle,
    }
    meta = make_meta(hashed_config, seeds[0])

    rows: list[tuple[str, str, tuple[bool, ...]]] = []

    def iter_kept():
        for sample, outcomes in pairs:
            rows.append((sample.clip_uid, sample.question, outcomes))
            if not all(outcomes):
                yield qa_to_row(sample)

    kept = write_jsonl(args.out, iter_kept(), meta)
    write_json(report_path, {
        "_meta": meta["_meta"],
        "total": len(rows),
        "removed": len(rows) - kept,
        "kept": kept,
        "rows": [
            {"clip_uid": clip_uid, "question": question,
             "outcomes": list(outcomes), "removed": all(outcomes)}
            for clip_uid, question, outcomes in rows
        ],
    })
    log.info(
        "filter-blind: kept %d/%d samples (%d removed)",
        kept,
        len(rows),
        len(rows) - kept,
    )
    return EXIT_OK


# ------------------------------------------------------------------ eval


def _load_gt(path: str) -> dict[str, QASample]:
    """Ground truth keyed by positional query id (clip_uid::ordinal)."""
    gts: dict[str, QASample] = {}
    per_clip: dict[str, int] = {}
    for lineno, row in read_jsonl(path):
        sample = row_to_qa(row, f"{path}:{lineno}")
        ordinal = per_clip.get(sample.clip_uid, 0)
        per_clip[sample.clip_uid] = ordinal + 1
        gts[query_id_for(sample.clip_uid, ordinal)] = sample
    if not gts:
        raise EmptyCorpus(f"{path} has no samples")
    return gts


def _load_preds(path: str) -> dict[str, PredictionSet]:
    preds: dict[str, PredictionSet] = {}
    for lineno, row in read_jsonl(path):
        pred = row_to_pred(row, f"{path}:{lineno}")
        if pred.query_id in preds:
            raise SchemaMismatch(f"{path}:{lineno}: duplicate query_id {pred.query_id!r}")
        preds[pred.query_id] = pred
    return preds


def _answers(gts: Mapping[str, QASample], path: str) -> list[tuple[str, str]]:
    """(predicted, ground-truth) answers in query-id order; every query must be answered."""
    preds = _load_preds(path)
    missing = sorted(set(gts) - set(preds))
    if missing:
        raise MissingQuery(f"{path}: no predictions for queries: {missing}")
    return [(preds[qid].answer_text, gts[qid].answer) for qid in sorted(gts)]


def _report_doc(report: EvalReport, meta: Mapping[str, Any], task: str) -> dict[str, Any]:
    return {
        "_meta": dict(meta["_meta"]),
        "task": task,
        "metadata": dict(report.metadata),
        "metrics": {
            name: {
                "value": mv.value,
                "dispersion": mv.dispersion,
                "percent": report.render_percent(name),
            }
            for name, mv in report.metrics.items()
        },
    }


def cmd_eval(args: argparse.Namespace, file_config: Mapping[str, Any]) -> int:
    task = args.task
    gts = _load_gt(args.gt)
    expected = 5 if task == "closeqa" else 1
    if len(args.predictions) != expected:
        raise ValidationError(
            f"--task {task} needs exactly {expected} prediction file(s), "
            f"got {len(args.predictions)}"
        )

    hashed_config = {"command": "eval", "task": task}
    meta = make_meta(hashed_config)

    if task == "vlg":
        preds = _load_preds(args.predictions[0])
        report = vlg_recall(preds, {qid: s.window for qid, s in gts.items()})
    elif task == "openqa":
        pairs = _answers(gts, args.predictions[0])
        embed_url = _resolve(args, file_config, "embed_url", "", None, str)
        if embed_url:
            embedder = HttpEmbedder(
                EndpointConfig(base_url=embed_url, model="remote-embedding"),
                api_key=os.environ.get("EGOQA_API_KEY"),
            )
        else:
            embedder = TrigramEmbedder()
        report = openqa_report(pairs, embedder)
    else:
        report = closeqa_accuracy([_answers(gts, path) for path in args.predictions])

    write_json(args.out or "report.json", _report_doc(report, meta, task))
    for name in report.metrics:
        log.info("eval %s: %s = %s", task, name, report.render_percent(name))
    return EXIT_OK


# ----------------------------------------------------------------- stats


def cmd_stats(args: argparse.Namespace, file_config: Mapping[str, Any]) -> int:
    builder = StatsBuilder()
    for lineno, row in read_jsonl(args.qa):
        builder.add(row_to_qa(row, f"{args.qa}:{lineno}"))
    if builder.sample_count == 0:
        raise EmptyCorpus(f"{args.qa} has no samples")
    if args.narrations:
        for track in _read_tracks(args.narrations):
            builder.add_narration_stats(len(track.narrations), track.duration_s)
    doc = builder.finalize()

    out = args.out or "stats.json"
    check_outputs(out)
    if args.tsv_dir:
        try:
            os.makedirs(args.tsv_dir, exist_ok=True)
        except OSError as exc:
            raise UnwritableOutput(
                f"{args.tsv_dir}: cannot create directory: {exc.strerror}"
            ) from None
    meta = make_meta({"command": "stats"})
    write_json(out, {"_meta": meta["_meta"], **doc})
    if args.tsv_dir:
        for name in HISTOGRAMS:
            with staged_writer(os.path.join(args.tsv_dir, f"{name}.tsv")) as f:
                f.write("\n".join(builder.tsv_lines(name)) + "\n")
    log.info(
        "stats: %d samples over %d clips (questions avg %.2f words)",
        doc["sample_count"], doc["clip_count"], doc["question_words_mean"],
    )
    return EXIT_OK


# ---------------------------------------------------------------- decode


def cmd_decode(args: argparse.Namespace, file_config: Mapping[str, Any]) -> int:
    score_threshold = _resolve(args, file_config, "score_threshold", 0.05, None, float)
    nms_iou = _resolve(args, file_config, "nms_iou", 0.5, None, float)
    top_k = _resolve(args, file_config, "top_k", 5, None, int)
    if top_k < 0:
        raise ValidationError(f"top_k must be >= 0, got {top_k}")
    for name, value in (("score_threshold", score_threshold), ("nms_iou", nms_iou)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")

    hashed_config = {
        "command": "decode",
        "score_threshold": score_threshold,
        "nms_iou": nms_iou,
        "top_k": top_k,
    }
    meta = make_meta(hashed_config)

    def iter_rows():
        for lineno, row in read_jsonl(args.head_outputs):
            clip_uid, query_id, duration_s, heads = row_to_head(
                row, f"{args.head_outputs}:{lineno}"
            )
            windows = decode_windows(heads, duration_s, score_threshold, nms_iou, top_k)
            yield pred_to_row(
                PredictionSet(
                    clip_uid=clip_uid,
                    query_id=query_id,
                    windows=windows,
                    answer_text="",
                )
            )

    count = write_jsonl(args.out, iter_rows(), meta)
    log.info("decode: wrote %d prediction rows to %s", count, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egoqa",
        description=(
            "Synthesize grounded QA datasets from timestamped narrations and "
            "evaluate grounding and answering predictions."
        ),
    )
    parser.add_argument("--config", help="JSON file with default parameter values")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a raw narration export into narrations.jsonl")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--pass", dest="narration_pass", choices=("1", "2", "merge"))

    p = sub.add_parser("synthesize", help="generate QA pairs and distractors")
    p.add_argument("narrations")
    p.add_argument("--out", required=True)
    p.add_argument("--records", help="audit records path (default <out>.records.jsonl)")
    p.add_argument("--stats-out", help="dataset stats path (default <out>.stats.json)")
    p.add_argument("--seed", type=int)
    p.add_argument("--split", choices=("train", "val", "test"))
    p.add_argument("--max-sentences", type=int)
    p.add_argument("--max-span-s", type=float)
    p.add_argument("--openqa-template", choices=("openqa_llama", "openqa_chat"))
    p.add_argument("--no-distractors", action="store_true")
    p.add_argument("--mock", help="fixture file for the in-process mock endpoint")
    p.add_argument("--base-url")
    p.add_argument("--model")
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-retries", type=int)
    p.add_argument("--parallelism", type=int)

    p = sub.add_parser("filter-blind", help="drop questions a blind answerer always gets right")
    p.add_argument("qa")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="report path (default <out>.report.json)")
    p.add_argument("--seeds", help="10 comma-separated trial seeds")
    p.add_argument("--seed", type=int, help="base seed used to derive the 10 trial seeds")
    p.add_argument("--answerer", choices=("frequency", "uniform"))
    p.add_argument("--train", help="qa.jsonl supplying the frequency prior (default: input)")
    p.add_argument("--no-reshuffle", action="store_true",
                   help="reuse the first trial's choice order in every trial")

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--gt", required=True)
    p.add_argument("--task", choices=("vlg", "openqa", "closeqa"), required=True)
    p.add_argument("--out")
    p.add_argument("--embed-url", dest="embed_url",
                   help="remote embedding endpoint; default is the offline embedder")

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("qa")
    p.add_argument("--out")
    p.add_argument("--narrations", help="narrations.jsonl for narration density")
    p.add_argument("--tsv-dir", help="directory for histogram TSVs")

    p = sub.add_parser("decode", help="decode head outputs into ranked windows")
    p.add_argument("head_outputs")
    p.add_argument("--out", required=True)
    p.add_argument("--score-threshold", type=float)
    p.add_argument("--nms-iou", type=float)
    p.add_argument("--top-k", type=int)

    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "synthesize": cmd_synthesize,
    "filter-blind": cmd_filter_blind,
    "eval": cmd_eval,
    "stats": cmd_stats,
    "decode": cmd_decode,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        file_config = read_json_object(args.config, "config file") if args.config else {}
        return COMMANDS[args.command](args, file_config)
    except ServiceError as exc:
        log.error("endpoint failure: %s", exc)
        return EXIT_ENDPOINT
    except ValidationError as exc:
        log.error("invalid input: %s", exc)
        return EXIT_VALIDATION
    except InvariantBreach as exc:
        log.error("internal invariant breach: %s", exc)
        return EXIT_INTERNAL
    except EgoqaError as exc:
        log.error("internal error: %s", exc)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
