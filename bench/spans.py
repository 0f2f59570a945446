"""Span recorder for the traced benchmark run.

The program is not edited: `install` replaces public functions of the
egoqa modules, in every module namespace that imported them, with wrappers
that record one span per call (name, start, end, parent, thread). Spans
stay in per-thread columns in memory until the run ends. A span opened on
a thread with no open span (a pool worker) takes as its parent the
innermost span open on the command's thread, which is the batch that
submitted the work (or the command itself). Self time is a span's duration
minus the union of its children.
"""
from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

# (module, attribute) of every wrapped function or method. Methods are
# "Class.method". Generator functions get one span per step.
SPANNED = (
    ("egoqa.core", "validate_track"),
    ("egoqa.windows", "compute_stats"),
    ("egoqa.chunking", "chunk_track"),
    ("egoqa.prompts", "render_openqa_prompt"),
    ("egoqa.prompts", "render_closeqa_prompt"),
    ("egoqa.prompts", "parse_openqa_completion"),
    ("egoqa.prompts", "parse_closeqa_completion"),
    ("egoqa.endpoint", "MockChatEndpoint.complete"),
    ("egoqa.endpoint", "HttpChatEndpoint.complete"),
    ("egoqa.synthesis", "generate_openqa"),
    ("egoqa.synthesis", "attach_distractors"),
    ("egoqa.synthesis", "shuffled_choices"),
    ("egoqa.jsonl_io", "read_jsonl"),
    ("egoqa.jsonl_io", "write_jsonl"),
    ("egoqa.jsonl_io", "row_to_track"),
    ("egoqa.jsonl_io", "row_to_qa"),
    ("egoqa.jsonl_io", "row_to_pred"),
    ("egoqa.jsonl_io", "row_to_head"),
    ("egoqa.blindfilter", "trial_outcomes"),
    ("egoqa.stats", "StatsBuilder.add"),
    ("egoqa.stats", "StatsBuilder.finalize"),
    ("egoqa.localization", "HeadOutputs.__init__"),
    ("egoqa.localization", "decode_windows"),
    ("egoqa.metrics", "vlg_recall"),
    ("egoqa.metrics", "rouge_l_f"),
    ("egoqa.metrics", "meteor_exact"),
    ("egoqa.metrics", "closeqa_accuracy"),
    ("egoqa.embedding", "TrigramEmbedder.embed"),
)
# Called too often for a span each; only their calls are counted. Both run
# on the calling command's thread, so the counters need no lock.
COUNTED = (
    ("egoqa.seeding", "derive_seed"),
    ("egoqa.synthesis", "_run_jobs"),
)
WRITE_ROWS = "egoqa.jsonl_io.write_jsonl/rows"


class Recorder:
    """Per-thread span columns plus call and byte counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.columns: list[tuple] = []
        self.lock = threading.Lock()
        self.root = 0  # innermost span open on the command's thread
        self.command_cols = None
        self.counts: dict[str, int] = defaultdict(int)
        self.undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _thread(self):
        cols = getattr(self.local, "cols", None)
        if cols is None:
            cols = (array("q"), array("q"), array("q"), array("d"), array("d"),
                    threading.get_ident(), [])
            self.local.cols = cols
            with self.lock:
                self.columns.append(cols)
        return cols

    def span(self, name_id: int, fn, args, kwargs):
        cols = self._thread()
        ids, names, parents, starts, ends, _, stack = cols
        on_command = cols is self.command_cols
        span_id = next(self.ids)
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        if on_command:
            self.root = span_id
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if on_command:
                self.root = parent
            ids.append(span_id)
            names.append(name_id)
            parents.append(parent)
            starts.append(start)
            ends.append(end)

    def command(self, name: str, fn, *args):
        """Run one CLI command as the root span of everything inside it."""
        name_id = self.name_id(name)
        span_id = next(self.ids)
        self.root = span_id
        self.command_cols = cols = self._thread()
        ids, names, parents, starts, ends, _, _ = cols
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.root = 0
            ids.append(span_id)
            names.append(name_id)
            parents.append(0)
            starts.append(start)
            ends.append(end)

    def rows(self, lo: int = 0, hi: int = 1 << 62):
        """Closed spans with lo <= id < hi as (id, name, parent, start, end, thread)."""
        for ids, names, parents, starts, ends, thread, _ in self.columns:
            for i, n, p, s, e in zip(ids, names, parents, starts, ends):
                if lo <= i < hi:
                    yield i, self.names[n], p, s, e, thread

    def next_id(self) -> int:
        """An id no span recorded so far has; later spans get larger ids."""
        return next(self.ids)

    # --------------------------------------------------------- wrapping

    def install(self) -> None:
        for module, attr in SPANNED:
            self._wrap(module, attr, self._spanning)
        for module, attr in COUNTED:
            self._wrap(module, attr, self._counting)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self.undo):
            setattr(holder, attr, original)
        self.undo.clear()

    def _wrap(self, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            holder = getattr(owner, cls_name)
            original = holder.__dict__[meth]
            self.undo.append((holder, meth, original))
            setattr(holder, meth, make(f"{module}.{attr}", original))
            return
        original = getattr(owner, attr)
        wrapper = make(f"{module}.{attr}", original)
        # `from .x import f` binds f in other modules too: replace each.
        for name, mod in list(sys.modules.items()):
            if name == "egoqa" or name.startswith("egoqa."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _counting(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, name: str, fn):
        name_id = self.name_id(name)
        if name.endswith("read_jsonl"):
            return self._reader(name_id, fn)
        if name.endswith("write_jsonl"):
            return self._writer(name_id, fn)
        span = self.span

        def wrapper(*args, **kwargs):
            return span(name_id, fn, args, kwargs)

        return wrapper

    def _steps(self, name_id: int, iterable):
        """Iterate, recording one span per step."""
        it = iter(iterable)
        while True:
            try:
                yield self.span(name_id, next, (it,), {})
            except StopIteration:
                return

    def _reader(self, name_id: int, fn):
        """read_jsonl is a generator: one span per row it yields."""
        rec = self

        def wrapper(path, *args, **kwargs):
            rec.counts["bytes_read"] += _size(path)
            yield from rec._steps(name_id, fn(path, *args, **kwargs))

        return wrapper

    def _writer(self, name_id: int, fn):
        """Spans for the rows' producers become children of the write span,
        so the write span's self time is encoding plus I/O only."""
        rec = self
        rows_id = self.name_id(WRITE_ROWS)

        def wrapper(path, rows, *args, **kwargs):
            count = rec.span(name_id, fn, (path, rec._steps(rows_id, rows)) + args, kwargs)
            rec.counts["bytes_written"] += _size(path)
            return count

        return wrapper


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def self_times(spans) -> dict[str, dict]:
    """Per span name: calls, summed duration and summed self time.

    Self time is a span's duration minus the union of its children's
    intervals. Children on one thread never overlap, so their durations are
    summed; only parents with children on several threads (a command whose
    pool workers ran in parallel) need the interval union.
    """
    spans = list(spans)
    child_sum: dict[int, float] = defaultdict(float)
    child_thread: dict[int, int] = {}
    for _, _, parent, start, end, thread in spans:
        if parent:
            child_sum[parent] += end - start
            if child_thread.setdefault(parent, thread) != thread:
                child_thread[parent] = -1
    mixed = {p for p, t in child_thread.items() if t == -1}
    intervals = defaultdict(list)
    for _, _, parent, start, end, _ in spans:
        if parent in mixed:
            intervals[parent].append((start, end))
    for parent, spans_of in intervals.items():
        covered, cursor = 0.0, float("-inf")
        for s, e in sorted(spans_of):
            s = max(s, cursor)
            if e > s:
                covered += e - s
                cursor = e
        child_sum[parent] = covered
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                "self_s": 0.0, "durations": []})
    for span_id, name, _, start, end, _ in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - child_sum.get(span_id, 0.0)
        agg["durations"].append(end - start)
    return out


def write_spans(path: str, spans) -> None:
    """One TSV line per span: id, parent, thread, name, start, end."""
    import gzip  # here, so the workload process starts without it

    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
        f.write("id\tparent\tthread\tname\tstart_s\tend_s\n")
        for span_id, name, parent, start, end, thread in spans:
            f.write(f"{span_id}\t{parent}\t{thread}\t{name}\t{start:.9f}\t{end:.9f}\n")
