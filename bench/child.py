"""Workload process of the egoqa benchmark.

A fresh interpreter that imports `egoqa.cli`, loads the prompt templates,
reports ready, and then runs command sequences in-process through
`egoqa.cli.main` on the runner's request. Requests and replies are JSON
lines on stdin and on the original stdout; everything the program itself
prints goes to stderr.

Requests: {"op": "run", "sequence": [argv, ...], "digest": [path, ...],
"trace": bool} runs one pass; {"op": "quit", "spans_out": path|null}
writes the recorded spans and exits.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import spans
import speed


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_summary(rec, lo: int, hi: int) -> dict:
    """Per-span-name aggregates of one traced pass, plus its counters."""
    names = spans.self_times(rec.rows(lo, hi))
    out = {"spans": {}, "counts": dict(rec.counts)}
    for name, agg in names.items():
        entry = {"calls": agg["calls"], "self_s": agg["self_s"], "total_s": agg["total_s"],
                 "max_s": max(agg["durations"])}
        if name.endswith(".complete"):
            entry["p50_s"] = _percentile(agg["durations"], 0.50)
            entry["p99_s"] = _percentile(agg["durations"], 0.99)
        out["spans"][name] = entry
    return out


def main() -> int:
    proto = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import egoqa.cli
    from egoqa.prompts import TEMPLATE_IDS, load_template

    for template_id in TEMPLATE_IDS:
        load_template(template_id)

    def reply(doc: dict) -> None:
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    reply({"ready": True, "egoqa": os.path.dirname(egoqa.__file__)})
    if "--setup-only" in sys.argv:
        return 0

    rec = None
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "quit":
            if rec is not None and request.get("spans_out"):
                spans.write_spans(request["spans_out"], rec.rows())
            reply({"max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0

        traced = request.get("trace", False)
        if traced:
            rec = rec or spans.Recorder()
            rec.counts.clear()
            first_id = rec.next_id()
            rec.install()
        # The speed kernel runs before and after every command, so each
        # command's CPU time can be calibrated with the speed around it.
        times, cpus, codes, kernels = [], [], [], [speed.sample()]
        for argv in request["sequence"]:
            t0, c0 = time.perf_counter(), time.process_time()
            if traced:
                code = rec.command("cmd:" + argv[0], egoqa.cli.main, argv)
            else:
                code = egoqa.cli.main(argv)
            times.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            codes.append(code)
            kernels.append(speed.sample())
            if code != 0:
                break
        result = {"times": times, "cpus": cpus, "codes": codes, "kernels": kernels}
        if traced:
            rec.uninstall()
            result["layers"] = layer_summary(rec, first_id, rec.next_id())
        result["digests"] = {p: _sha256(p) for p in request.get("digest", ())
                             if os.path.exists(p)}
        reply(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
