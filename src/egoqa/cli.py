"""Command-line pipeline: ingest, synthesize, filter-blind, eval, stats, decode.

Configuration resolves flags over environment variables (EGOQA_API_KEY,
EGOQA_BASE_URL) over a JSON --config file. Exit codes: 0 success, 2 input
validation failure, 3 endpoint failure, 4 internal invariant breach.

Commands stream their inputs row by row; only per-clip state and small
aggregates are held in memory.

Importing this module executes only core and jsonl_io of the package; every
other package module executes when a command first uses it, so a command
pays start-up only for the modules it runs.
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
from contextlib import closing
from typing import Any, Callable, Iterator, Mapping

from .core import (
    EvalReport,
    InvariantBreach,
    Narration,
    NarrationTrack,
    PredictionSet,
    QASample,
    ServiceError,
    ValidationError,
    lazy_import,
    validate_track,
)
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
    read_rows,
    row_to_head,
    row_to_pred,
    row_to_qa,
    row_to_track,
    staged_writer,
    track_to_row,
    write_json,
    write_jsonl,
)

# Executed on first use; build_parser and COMMANDS touch none, or --help
# would run it. chunking is registered so that every module is in
# sys.modules, numpy so that a missing numpy fails at import.
blindfilter = lazy_import("egoqa.blindfilter")
embedding = lazy_import("egoqa.embedding")
endpoint = lazy_import("egoqa.endpoint")
localization = lazy_import("egoqa.localization")
metrics = lazy_import("egoqa.metrics")
prompts = lazy_import("egoqa.prompts")
seeding = lazy_import("egoqa.seeding")
stats = lazy_import("egoqa.stats")
synthesis = lazy_import("egoqa.synthesis")
windows = lazy_import("egoqa.windows")
lazy_import("egoqa.chunking")
lazy_import("numpy")

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ENDPOINT = 3
EXIT_INTERNAL = 4


# Each setting's builtin value, whose type is the setting's type, and the values
# a setting may take where they are listed. The flags and --config read both.
DEFAULTS: dict[str, Any] = {
    "narration_pass": "merge",
    "seed": 0,
    "split": "train",
    "max_sentences": 5,
    "max_span_s": 30.0,
    "openqa_template": "openqa_llama",
    "base_url": "",
    "model": "mock",
    "temperature": 0.0,
    "max_tokens": 128,
    "timeout": 30.0,
    "max_retries": 2,
    "parallelism": 1,
    "answerer": "frequency",
    "embed_url": "",
    "score_threshold": 0.05,
    "nms_iou": 0.5,
    "top_k": 5,
}
CHOICES: dict[str, tuple[str, ...]] = {
    "narration_pass": ("1", "2", "merge"),
    "split": ("train", "val", "test"),
    "openqa_template": ("openqa_llama", "openqa_chat"),
    "answerer": ("frequency", "uniform"),
}


def _settle(args: argparse.Namespace) -> None:
    """Set each setting on args from its flag, else EGOQA_BASE_URL (base_url
    only), else --config, else DEFAULTS. A config value must name a setting,
    have its exact JSON type (a float setting also takes an integer, no
    setting a bool) and, where the setting has CHOICES, be one of them."""
    settled = dict(DEFAULTS)
    config = read_json_object(args.config, "config file") if args.config else {}
    for name, value in config.items():
        if name not in DEFAULTS:
            raise ValidationError(f"{args.config}: unknown setting {name!r}")
        kind = type(DEFAULTS[name])
        try:
            if type(value) not in ((int, float) if kind is float else (kind,)):
                raise TypeError
            settled[name] = kind(value)
        except (TypeError, OverflowError):
            raise ValidationError(f"{name}: cannot read {value!r} as {kind.__name__}") from None
        if name in CHOICES and value not in CHOICES[name]:
            raise ValidationError(f"{name}: {value!r} is not one of {CHOICES[name]}")
    settled["base_url"] = os.environ.get("EGOQA_BASE_URL") or settled["base_url"]
    for name, value in settled.items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)


# ---------------------------------------------------------------- ingest


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


def _iter_export_tracks(
    export: Mapping[str, Any], which_pass: str, reject: Callable[..., None]
) -> Iterator[NarrationTrack]:
    """Parse a raw narration export: {clip_uid: {duration_sec, narration_pass_*}}.

    Narration-level problems reject the narration; clip-level problems
    reject the clip. Both are reported through reject with a reason code.
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


def cmd_ingest(args: argparse.Namespace) -> int:
    check_outputs(args.out, inputs=(args.config, args.input))
    rejects: Counter[str] = Counter()

    def reject(unit: str, clip_uid: str, code: str, detail: str = "") -> None:
        rejects[code] += 1
        log.warning(
            "ingest reject %s %s: %s%s", unit, clip_uid, code, f" ({detail})" if detail else ""
        )

    first, sole = read_first_row(args.input)
    keys = set(first or ())
    if "_meta" in keys or {"clip_uid", "narrations"} <= keys:
        tracks = (track for _, track in read_rows(args.input, row_to_track, "clip_uid"))
    else:
        # A one-line export was parsed whole by the sniff; anything else
        # (a pretty-printed export, say) is loaded as one document.
        if first is None or not sole:
            first = read_json_object(args.input, "narration export")
        tracks = _iter_export_tracks(first, args.narration_pass, reject)

    def valid_rows():
        written = 0
        for track in tracks:
            violations = validate_track(track)
            if violations:
                reject("clip", track.clip_uid, ",".join(violations))
                continue
            written += 1
            yield track_to_row(track)
        if not written:
            reasons = ", ".join(f"{code}={n}" for code, n in sorted(rejects.items()))
            raise EmptyCorpus(f"{args.input}: no usable clips (rejects: {reasons or 'none'})")

    meta = make_meta({"command": "ingest", "narration_pass": args.narration_pass})
    count = write_jsonl(args.out, valid_rows(), meta)
    log.info("ingest: wrote %d clips to %s", count, args.out)
    return EXIT_OK


# ------------------------------------------------------------ synthesize


def _read_tracks(path: str) -> Iterator[NarrationTrack]:
    """The tracks of a narrations file; a repeated clip_uid or an invalid
    track is a ValidationError."""
    for where, track in read_rows(path, row_to_track, "clip_uid"):
        violations = validate_track(track)
        if violations:
            raise ValidationError(
                f"{where}: invalid track "
                f"{track.clip_uid!r}: {','.join(violations)}"
            )
        yield track


def cmd_synthesize(args: argparse.Namespace) -> int:
    # The mock sends no request, so no address may enter the config hash.
    config = endpoint.EndpointConfig(
        base_url="" if args.mock else args.base_url, model=args.model,
        temperature=args.temperature, max_tokens=args.max_tokens,
        request_timeout_s=args.timeout, max_retries=args.max_retries,
        parallelism=args.parallelism,
    )
    if args.mock:
        chat = endpoint.MockChatEndpoint(read_json_object(args.mock, "mock fixture"))
    elif config.base_url:
        chat = endpoint.HttpChatEndpoint(config, api_key=os.environ.get("EGOQA_API_KEY"))
    else:
        raise ValidationError("no endpoint configured: pass --base-url / EGOQA_BASE_URL or --mock")
    openqa_template = prompts.load_template(args.openqa_template)
    with_distractors = not args.no_distractors
    closeqa_template = prompts.load_template("closeqa_llama") if with_distractors else None
    records_path = args.records or args.out + ".records.jsonl"
    stats_path = args.stats_out or args.out + ".stats.json"
    check_outputs(records_path, args.out, stats_path,
                  inputs=(args.config, args.narrations, args.mock))

    # Pass 1: corpus timing statistics. compute_stats streams the tracks
    # and keeps one number per clip.
    try:
        timing = windows.compute_stats(_read_tracks(args.narrations))
    except windows.NoIntervalData as exc:
        raise windows.NoIntervalData(f"{args.narrations}: {exc}") from None

    hashed_config = {
        "command": "synthesize",
        "model": config.model,
        "base_url": config.base_url,
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
        "max_retries": config.max_retries,
        "max_sentences": args.max_sentences,
        "max_span_s": args.max_span_s,
        "split": args.split,
        "openqa_template": openqa_template.template_id,
        "with_distractors": with_distractors,
        "seed": args.seed,
    }
    meta = make_meta(hashed_config, args.seed)

    builder = stats.StatsBuilder()
    sent: Counter[str] = Counter()
    parsed: Counter[str] = Counter()
    failure = None

    clips = synthesis.synthesize(
        _read_tracks(args.narrations), timing, config, openqa_template,
        closeqa_template, chat, args.split, args.max_sentences, args.max_span_s,
    )

    def iter_sample_rows(write_record):
        nonlocal failure
        for track, records, samples, failure in clips:
            builder.add_narration_stats(len(track.narrations), track.duration_s)
            for record in records:
                sent[record.kind] += 1
                parsed[record.kind] += record.parse_status == prompts.PARSE_OK
                write_record({k: v for k, v in vars(record).items() if v is not None})
            for sample in samples:
                builder.add(sample)
                yield qa_to_row(sample)

    start = time.monotonic()
    # clips alone uses chat; it closes first (its pool too), also when a write fails.
    with closing(chat), closing(clips), jsonl_writer(records_path, meta) as write_record:
        count = write_jsonl(args.out, iter_sample_rows(write_record), meta)
    elapsed = max(time.monotonic() - start, 1e-9)
    if count:
        write_json(stats_path, {"_meta": meta["_meta"], **builder.finalize()})
    else:
        # No sample, no stats: an earlier run's stats file must not stay
        # beside this run's qa file.
        try:
            os.remove(stats_path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise UnwritableOutput(f"{stats_path}: cannot remove output: {exc.strerror}") from None
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


def cmd_filter_blind(args: argparse.Namespace) -> int:
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ValidationError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}"
            ) from None
    else:
        seeds = [seeding.derive_seed("blind-trial", args.seed, t)
                 for t in range(blindfilter.TRIALS)]
    report_path = args.report or args.out + ".report.json"
    check_outputs(args.out, report_path, inputs=(args.config, args.qa, args.train))

    samples = (sample for _, sample in read_rows(args.qa, row_to_qa))
    if args.answerer == "uniform":
        answerer = blindfilter.UniformRandomAnswerer()
    elif args.train is None or os.path.realpath(args.train) == os.path.realpath(args.qa):
        # The training answers are the test set's own, under whatever path
        # spelling: read the file once, and let each sample go once the
        # filter has passed it.
        held = deque(samples)
        answerer = blindfilter.FrequencyPriorAnswerer(s.answer for s in held)
        samples = (held.popleft() for _ in range(len(held)))
    else:
        train = read_rows(args.train, row_to_qa)
        answerer = blindfilter.FrequencyPriorAnswerer(s.answer for _, s in train)
    pairs = blindfilter.filter_rows(samples, answerer, seeds, not args.no_reshuffle)

    hashed_config = {
        "command": "filter-blind",
        "answerer": args.answerer,
        "seeds": seeds,
        "reshuffle_per_trial": not args.no_reshuffle,
    }
    meta = make_meta(hashed_config, seeds[0])

    rows: list[dict[str, Any]] = []

    def iter_kept():
        for sample, outcomes in pairs:
            removed = all(outcomes)
            rows.append({"clip_uid": sample.clip_uid, "question": sample.question,
                         "outcomes": list(outcomes), "removed": removed})
            if not removed:
                yield qa_to_row(sample)

    kept = write_jsonl(args.out, iter_kept(), meta)
    write_json(report_path, {
        "_meta": meta["_meta"],
        "total": len(rows),
        "removed": len(rows) - kept,
        "kept": kept,
        "rows": rows,
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
    for _, sample in read_rows(path, row_to_qa):
        ordinal = per_clip.get(sample.clip_uid, 0)
        per_clip[sample.clip_uid] = ordinal + 1
        gts[query_id_for(sample.clip_uid, ordinal)] = sample
    if not gts:
        raise EmptyCorpus(f"{path} has no samples")
    return gts


def _load_preds(path: str, gts: Mapping[str, QASample]) -> dict[str, PredictionSet]:
    """Predictions keyed by query id. One for a ground-truth query must name
    that query's clip; one for a query the ground truth lacks goes unscored."""
    preds: dict[str, PredictionSet] = {}
    for where, pred in read_rows(path, row_to_pred, "query_id"):
        gt = gts.get(pred.query_id)
        if gt is not None and gt.clip_uid != pred.clip_uid:
            raise SchemaMismatch(
                f"{where}: query_id {pred.query_id!r} is a query of clip "
                f"{gt.clip_uid!r}, not {pred.clip_uid!r}"
            )
        preds[pred.query_id] = pred
    return preds


def _answers(gts: Mapping[str, QASample], path: str) -> list[tuple[str, str]]:
    """(predicted, ground-truth) answers in query-id order; every query must be answered."""
    preds = _load_preds(path, gts)
    missing = sorted(set(gts) - set(preds))
    if missing:
        raise metrics.MissingQuery(f"{path}: no predictions for queries: {missing}")
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


def cmd_eval(args: argparse.Namespace) -> int:
    task = args.task
    out = args.out or "report.json"
    check_outputs(out, inputs=(args.config, args.gt, *args.predictions))
    expected = 5 if task == "closeqa" else 1
    if len(args.predictions) != expected:
        raise ValidationError(
            f"--task {task} needs exactly {expected} prediction file(s), "
            f"got {len(args.predictions)}"
        )
    gts = _load_gt(args.gt)

    hashed_config = {"command": "eval", "task": task}
    meta = make_meta(hashed_config)

    if task == "vlg":
        preds = _load_preds(args.predictions[0], gts)
        report = metrics.vlg_recall(preds, {qid: s.window for qid, s in gts.items()})
    elif task == "openqa":
        pairs = _answers(gts, args.predictions[0])
        if args.embed_url:
            embedder = embedding.HttpEmbedder(
                endpoint.EndpointConfig(base_url=args.embed_url, model="remote-embedding"),
                api_key=os.environ.get("EGOQA_API_KEY"),
            )
        else:
            embedder = embedding.TrigramEmbedder()
        with closing(embedder):
            report = metrics.openqa_report(pairs, embedder)
    else:
        report = metrics.closeqa_accuracy([_answers(gts, path) for path in args.predictions])

    write_json(out, _report_doc(report, meta, task))
    for name in report.metrics:
        log.info("eval %s: %s = %s", task, name, report.render_percent(name))
    return EXIT_OK


# ----------------------------------------------------------------- stats


def cmd_stats(args: argparse.Namespace) -> int:
    out = args.out or "stats.json"
    tsvs = [os.path.join(args.tsv_dir, f"{name}.tsv") for name in stats.HISTOGRAMS if args.tsv_dir]
    # A --tsv-dir still to be made (below) is checked as the top directory it adds.
    top = args.tsv_dir
    while top and not os.path.isdir(os.path.dirname(top) or "."):
        top = os.path.dirname(top)
    checked = tsvs if tsvs and os.path.isdir(args.tsv_dir) else [top] if top else []
    check_outputs(out, *checked, inputs=(args.config, args.qa, args.narrations))
    builder = stats.StatsBuilder()
    for _, sample in read_rows(args.qa, row_to_qa):
        builder.add(sample)
    if builder.sample_count == 0:
        raise EmptyCorpus(f"{args.qa} has no samples")
    if args.narrations:
        for track in _read_tracks(args.narrations):
            builder.add_narration_stats(len(track.narrations), track.duration_s)
    doc = builder.finalize()

    if args.tsv_dir:
        try:
            os.makedirs(args.tsv_dir, exist_ok=True)
        except OSError as exc:
            raise UnwritableOutput(
                f"{args.tsv_dir}: cannot create directory: {exc.strerror}"
            ) from None
    meta = make_meta({"command": "stats"})
    write_json(out, {"_meta": meta["_meta"], **doc})
    for name, path in zip(stats.HISTOGRAMS, tsvs):
        with staged_writer(path) as f:
            f.write("\n".join(builder.tsv_lines(name)) + "\n")
    log.info(
        "stats: %d samples over %d clips (questions avg %.2f words)",
        doc["sample_count"], doc["clip_count"], doc["question_words_mean"],
    )
    return EXIT_OK


# ---------------------------------------------------------------- decode


def cmd_decode(args: argparse.Namespace) -> int:
    check_outputs(args.out, inputs=(args.config, args.head_outputs))
    if args.top_k < 0:
        raise ValidationError(f"top_k must be >= 0, got {args.top_k}")
    for name, value in (("score_threshold", args.score_threshold), ("nms_iou", args.nms_iou)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")

    hashed_config = {
        "command": "decode",
        "score_threshold": args.score_threshold,
        "nms_iou": args.nms_iou,
        "top_k": args.top_k,
    }
    meta = make_meta(hashed_config)

    def iter_rows():
        for _, (clip_uid, query_id, duration_s, heads) in read_rows(
            args.head_outputs, row_to_head
        ):
            ranked = localization.decode_windows(
                heads, duration_s, args.score_threshold, args.nms_iou, args.top_k
            )
            yield pred_to_row(
                PredictionSet(
                    clip_uid=clip_uid,
                    query_id=query_id,
                    windows=ranked,
                    answer_text="",
                )
            )

    count = write_jsonl(args.out, iter_rows(), meta)
    log.info("decode: wrote %d prediction rows to %s", count, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ main


def _setting(p: argparse.ArgumentParser, flag: str, dest: str = "", **kw: Any) -> None:
    """Add the flag of a setting, typed and restricted by DEFAULTS and CHOICES."""
    dest = dest or flag[2:].replace("-", "_")
    p.add_argument(flag, dest=dest, type=type(DEFAULTS[dest]), choices=CHOICES.get(dest), **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egoqa",
        description=(
            "Synthesize grounded QA datasets from timestamped narrations and "
            "evaluate grounding and answering predictions."
        ),
    )
    parser.add_argument("--config", help="JSON file with default parameter values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a raw narration export into narrations.jsonl")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    _setting(p, "--pass", "narration_pass")

    p = sub.add_parser("synthesize", help="generate QA pairs and distractors")
    p.add_argument("narrations")
    p.add_argument("--out", required=True)
    p.add_argument("--records", help="audit records path (default <out>.records.jsonl)")
    p.add_argument("--stats-out", help="dataset stats path (default <out>.stats.json)")
    for flag in ("--seed", "--split", "--max-sentences", "--max-span-s", "--openqa-template"):
        _setting(p, flag)
    p.add_argument("--no-distractors", action="store_true")
    p.add_argument("--mock", help="fixture file for the in-process mock endpoint")
    for flag in ("--base-url", "--model", "--temperature", "--max-tokens", "--timeout",
                 "--max-retries", "--parallelism"):
        _setting(p, flag)

    p = sub.add_parser("filter-blind", help="drop questions a blind answerer always gets right")
    p.add_argument("qa")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="report path (default <out>.report.json)")
    p.add_argument("--seeds", help="10 comma-separated trial seeds")
    _setting(p, "--seed", help="base seed used to derive the 10 trial seeds")
    _setting(p, "--answerer")
    p.add_argument("--train", help="qa.jsonl supplying the frequency prior (default: input)")
    p.add_argument("--no-reshuffle", action="store_true",
                   help="reuse the first trial's choice order in every trial")

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--gt", required=True)
    p.add_argument("--task", choices=("vlg", "openqa", "closeqa"), required=True)
    p.add_argument("--out")
    _setting(p, "--embed-url", help="remote embedding endpoint; default is the offline embedder")

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("qa")
    p.add_argument("--out")
    p.add_argument("--narrations", help="narrations.jsonl for narration density")
    p.add_argument("--tsv-dir", help="directory for histogram TSVs")

    p = sub.add_parser("decode", help="decode head outputs into ranked windows")
    p.add_argument("head_outputs")
    p.add_argument("--out", required=True)
    for flag in ("--score-threshold", "--nms-iou", "--top-k"):
        _setting(p, flag)

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
        level=logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _settle(args)
        return COMMANDS[args.command](args)
    except ServiceError as exc:
        log.error("endpoint failure: %s", exc)
        return EXIT_ENDPOINT
    except ValidationError as exc:
        log.error("invalid input: %s", exc)
        return EXIT_VALIDATION
    except InvariantBreach as exc:
        log.error("internal invariant breach: %s", exc)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
