"""The egoqa benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload curate-local --seed 1 --seconds 20 --trace 0

The runner (this process) generates every input from the seed, then starts
a fresh interpreter (bench/child.py) that imports the program from `src/`
of this checkout and runs the workload's command sequence through
`egoqa.cli.main` again and again, closed loop, for --seconds. `synth-remote`
also starts a loopback chat stub (bench/stub.py). The runner checks every
output, prints each metric by name with its unit, and ends with one JSON
line: end-to-end metrics with --trace 0; with --trace 1 it adds traced
passes and reports per-layer metrics and the tracing overhead.

Scratch files go to .bench_work/ and are removed at the end; the spans of
a traced run are written to .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

PARALLELISM = 2          # nproc of the machine the benchmark was built on
LATENCY_MS = 10.0        # fixed delay of every stub reply
SETUP_BEFORE = 3         # set-up-only interpreters before the workload starts


# Input size of each workload. Sizes are set so a pass takes 2-3 s on the
# 2-core machine the benchmark was built on, giving 8-12 passes a run.
SHAPES = {
    "curate-local": {"clips": 200, "narrations_per_clip": "30-90", "duration_s": "120-600"},
    "synth-remote": {"clips": 12, "narrations_per_clip": "30-90", "latency_ms": LATENCY_MS},
    "score": {"vlg_queries": 150, "qa_queries": 1500, "head_steps": 1200,
              "long_answer_share": 0.03},
}

# Metric names and units, and why each workload exists, come from
# BENCHMARK.json. Its per-layer metrics are the ones every workload reports;
# the traced run also prints the layer metrics below, which exist only on
# the workloads that reach them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
EXTRA_UNITS = {
    "endpoint.connections_per_request": "ratio", "endpoint.slot_utilization": "ratio",
    "endpoint.request_p50_s": "s", "endpoint.request_p99_s": "s",
    "synthesis.generate_openqa_self_s": "s", "synthesis.attach_distractors_self_s": "s",
    "synthesis.serial_s": "s", "prompts.render_s": "s", "prompts.parse_s": "s",
    "prompts.parse_ok_ratio": "ratio", "windows.compute_stats_s": "s",
    "chunking.chunk_track_s": "s", "core.validate_track_s": "s", "stats.add_s": "s",
    "stats.finalize_s": "s", "blindfilter.trial_outcomes_s": "s",
    "blindfilter.shuffled_choices_s": "s", "blindfilter.removed_ratio": "ratio",
    "localization.head_outputs_s": "s", "localization.decode_windows_s": "s",
    "metrics.vlg_recall_s": "s", "metrics.rouge_l_s": "s", "metrics.meteor_s": "s",
    "metrics.meteor_max_call_s": "s", "embedding.embed_s": "s",
    "metrics.closeqa_accuracy_s": "s",
}


class Failed(Exception):
    """The benchmark could not produce a result."""


def median(values):
    return statistics.median(values) if values else float("nan")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EGOQA_") and "proxy" not in k.lower()}
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


class Child:
    """The workload interpreter, spoken to in JSON lines."""

    def __init__(self, work: Path, setup_only: bool = False):
        args = [sys.executable, str(BENCH / "child.py")]
        if setup_only:
            args.append("--setup-only")
        self.log = open(work / "child.log", "a", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=work, env=child_env(), text=True, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log)
        ready = self.read()
        self.setup_s = time.perf_counter() - start
        if Path(ready["egoqa"]).resolve() != (SRC / "egoqa").resolve():
            raise Failed(f"child imported egoqa from {ready['egoqa']}, not {SRC}")

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise Failed(f"workload process exited ({self.proc.wait()}); see child.log")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class StubProcess:
    """The loopback chat stub, controlled over its stdin and stdout."""

    def __init__(self, work: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "fixture.json", str(LATENCY_MS)],
            cwd=work, env=child_env(), text=True, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.port = int(self.ask(None))

    def ask(self, command: str | None) -> str:
        if command is not None:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Failed("stub exited")
        return line.strip()

    def reset(self) -> None:
        self.ask("reset")

    def stats(self) -> dict:
        return json.loads(self.ask("stats"))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


# ------------------------------------------------------------- workloads


def synth_argv(out: str, source: list[str], parallelism: int, seed: int) -> list[str]:
    return ["synthesize", "narrations.jsonl", "--out", out, *source,
            "--parallelism", str(parallelism), "--seed", str(seed), "--split", "test"]


SYNTH_FILES = ("qa.jsonl", "qa.jsonl.records.jsonl", "qa.jsonl.stats.json")
TSV_NAMES = ("window_duration_s", "question_words", "answer_words", "distractor_words")


def plan(name: str, seed: int, port: int | None) -> dict:
    """Preparation (untimed), the timed sequence, and the files to digest."""
    if name == "score":
        closeqa = [f"pred_closeqa_{i}.jsonl" for i in range(5)]
        return {
            "prep": [],
            "sequence": [
                ["decode", "head_outputs.jsonl", "--out", "preds.jsonl"],
                ["eval", "preds.jsonl", "--gt", "gt_vlg.jsonl", "--task", "vlg",
                 "--out", "report_vlg.json"],
                ["eval", "pred_openqa.jsonl", "--gt", "gt_qa.jsonl", "--task", "openqa",
                 "--out", "report_openqa.json"],
                ["eval", *closeqa, "--gt", "gt_qa.jsonl", "--task", "closeqa",
                 "--out", "report_closeqa.json"],
            ],
            "digest": ["preds.jsonl", "report_vlg.json", "report_openqa.json",
                       "report_closeqa.json"],
        }
    if name == "curate-local":
        source = ["--mock", "fixture.json"]
    else:
        source = ["--base-url", f"http://127.0.0.1:{port}"]
    ingest = ["ingest", "export.json", "--out", "narrations.jsonl"]
    reference = synth_argv("ref.qa.jsonl", source, 1, seed)
    synth = synth_argv("qa.jsonl", source, PARALLELISM, seed)
    if name == "synth-remote":
        return {"prep": [ingest, reference], "sequence": [synth],
                "digest": list(SYNTH_FILES)}
    return {
        "prep": [ingest, reference],
        "sequence": [
            ingest,
            synth,
            ["filter-blind", "qa.jsonl", "--out", "kept.jsonl", "--seed", str(seed + 1)],
            ["stats", "qa.jsonl", "--out", "stats.json", "--narrations",
             "narrations.jsonl", "--tsv-dir", "plots"],
        ],
        "digest": ["narrations.jsonl", *SYNTH_FILES, "kept.jsonl",
                   "kept.jsonl.report.json", "stats.json",
                   *(f"plots/{n}.tsv" for n in TSV_NAMES)],
    }


def generate(name: str, seed: int, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import gen

    shape = SHAPES[name]
    if name == "score":
        counts = gen.gen_score(str(work), seed, name, shape["vlg_queries"],
                               shape["qa_queries"], shape["head_steps"],
                               shape["long_answer_share"])
        counts["items"] = shape["vlg_queries"] + shape["qa_queries"]
    else:
        counts = gen.gen_curation(str(work), seed, name, shape["clips"])
        counts["items"] = counts["clips"]
    manifest = {"workload": name, "seed": seed, "why": WHY[name],
                "shape": shape, "expected": counts}
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return counts


# ---------------------------------------------------------------- checks


def jsonl_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return [r for r in rows if "_meta" not in r]


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def check_outputs(name: str, work: Path, expected: dict, outputs: list[str],
                  passes: list[dict], ref: dict | None, stub_stats: list[dict],
                  checks: Checks) -> dict:
    """Checks that need the output files; returns facts the metrics use."""
    facts: dict = {}
    first = passes[0]["digests"]
    for i, p in enumerate(passes):
        checks.expect(p["digests"] == first, f"pass {i} outputs differ from pass 0")
        checks.expect(set(p["digests"]) == set(outputs), f"pass {i} is missing output files")
    if name == "score":
        heads = sum(1 for line in open(work / "head_outputs.jsonl") if line.strip())
        checks.expect(len(jsonl_rows(work / "preds.jsonl")) == heads,
                      "decode did not write one row per head-output row")
        facts["vlg_queries"] = heads
        return facts

    for f in SYNTH_FILES:
        checks.expect(first.get(f) == ref["digests"].get("ref." + f),
                      f"{f} differs from the --parallelism 1 reference")
    records = jsonl_rows(work / "qa.jsonl.records.jsonl")
    attempts = sum(r["attempts"] for r in records)
    checks.expect(attempts == expected["requests"],
                  f"records hold {attempts} attempts, fixture scripts {expected['requests']}")
    checks.expect(len(jsonl_rows(work / "qa.jsonl")) == expected["samples"],
                  "synthesize wrote an unexpected number of samples")
    facts.update(requests=attempts, records=len(records),
                 parse_ok=sum(r["parse_status"] == "ok" for r in records))
    for i, s in enumerate(stub_stats):
        checks.expect(s["requests"] == attempts,
                      f"stub pass {i}: {s['requests']} requests, records sum {attempts}")
    if name == "curate-local":
        report = json.loads((work / "kept.jsonl.report.json").read_text())
        kept_rows = len(jsonl_rows(work / "kept.jsonl"))
        checks.expect(report["removed"] + report["kept"] == report["total"],
                      "filter-blind: removed + kept != total")
        checks.expect(kept_rows == report["kept"],
                      "filter-blind: kept file row count != kept")
        checks.expect(report["total"] == expected["samples"],
                      "filter-blind did not see every sample")
        facts["removed_ratio"] = report["removed"] / report["total"]
    return facts


# --------------------------------------------------------------- metrics


def layer_metrics(summaries: list[dict], facts: dict, synth_index: int | None,
                  stub_stats: list[dict], pass_times: list[list[float]]):
    """Per-layer metrics as medians over the traced passes.

    Returns (reported, extra). reported holds the per_layer metrics of
    BENCHMARK.json, which every workload reports; their counts are 0 on
    layers the workload does not reach. extra holds the metrics of the
    layers this workload reaches, which are printed only."""

    def med(fn):
        return median([fn(s["spans"], s["counts"]) for s in summaries])

    def self_s(*names):
        return lambda sp, _: sum(sp.get("egoqa." + n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return lambda sp, _: sp.get("egoqa." + name, {}).get("calls", 0)

    def count(name):
        return lambda _, c: c.get(name, 0)

    complete = lambda sp: sp.get("egoqa.endpoint.HttpChatEndpoint.complete") or \
        sp.get("egoqa.endpoint.MockChatEndpoint.complete") or {}
    reads = "jsonl_io.row_to_track", "jsonl_io.row_to_qa", "jsonl_io.row_to_pred", \
        "jsonl_io.row_to_head"
    m = {
        "cli.self_s": med(lambda sp, _: sum(v["self_s"] for k, v in sp.items()
                                            if k.startswith("cmd:"))),
        "jsonl_io.read_s": med(self_s("jsonl_io.read_jsonl")),
        "jsonl_io.row_decode_s": med(self_s(*reads)),
        "jsonl_io.write_self_s": med(self_s("jsonl_io.write_jsonl")),
        "jsonl_io.bytes_read": med(count("bytes_read")),
        "jsonl_io.bytes_written": med(count("bytes_written")),
        "endpoint.requests": med(lambda sp, _: complete(sp).get("calls", 0)),
        "endpoint.retries": med(lambda sp, _: complete(sp).get("calls", 0))
        - facts.get("records", 0),
        "endpoint.connections": median([s["connections"] for s in stub_stats]) if stub_stats else 0,
        "synthesis.batches": med(count("egoqa.synthesis._run_jobs")),
        "blindfilter.shuffles": med(calls("synthesis.shuffled_choices")),
        "seeding.derive_seed_calls": med(count("egoqa.seeding.derive_seed")),
        "embedding.embeds": med(calls("embedding.TrigramEmbedder.embed")),
    }
    extra: dict = {}
    if synth_index is not None:
        synth_s = median([t[synth_index] for t in pass_times])
        if stub_stats:
            in_flight = median([s["in_flight_s"] for s in stub_stats])
            extra["endpoint.connections_per_request"] = (
                m["endpoint.connections"] / m["endpoint.requests"])
        else:
            in_flight = med(lambda sp, _: complete(sp).get("total_s", 0.0))
        extra.update({
            "endpoint.slot_utilization": in_flight / (synth_s * PARALLELISM),
            "endpoint.request_p50_s": med(lambda sp, _: complete(sp)["p50_s"]),
            "endpoint.request_p99_s": med(lambda sp, _: complete(sp)["p99_s"]),
            "synthesis.generate_openqa_self_s": med(self_s("synthesis.generate_openqa")),
            "synthesis.attach_distractors_self_s": med(self_s("synthesis.attach_distractors")),
            "synthesis.serial_s": facts["serial_s"],
            "prompts.render_s": med(self_s("prompts.render_openqa_prompt",
                                           "prompts.render_closeqa_prompt")),
            "prompts.parse_s": med(self_s("prompts.parse_openqa_completion",
                                          "prompts.parse_closeqa_completion")),
            "prompts.parse_ok_ratio": facts["parse_ok"] / m["endpoint.requests"],
            "windows.compute_stats_s": med(self_s("windows.compute_stats")),
            "chunking.chunk_track_s": med(self_s("chunking.chunk_track")),
            "core.validate_track_s": med(self_s("core.validate_track")),
            "stats.add_s": med(self_s("stats.StatsBuilder.add")),
            "stats.finalize_s": med(self_s("stats.StatsBuilder.finalize")),
        })
    if "removed_ratio" in facts:
        extra.update({
            "blindfilter.trial_outcomes_s": med(self_s("blindfilter.trial_outcomes")),
            "blindfilter.shuffled_choices_s": med(self_s("synthesis.shuffled_choices")),
            "blindfilter.removed_ratio": facts["removed_ratio"],
        })
    if "vlg_queries" in facts:
        extra.update({
            "localization.head_outputs_s": med(self_s("localization.HeadOutputs.__init__")),
            "localization.decode_windows_s": med(self_s("localization.decode_windows")),
            "metrics.vlg_recall_s": med(self_s("metrics.vlg_recall")),
            "metrics.rouge_l_s": med(self_s("metrics.rouge_l_f")),
            "metrics.meteor_s": med(self_s("metrics.meteor_exact")),
            "metrics.meteor_max_call_s": med(
                lambda sp, _: sp.get("egoqa.metrics.meteor_exact", {}).get("max_s", 0.0)),
            "embedding.embed_s": med(self_s("embedding.TrigramEmbedder.embed")),
            "metrics.closeqa_accuracy_s": med(self_s("metrics.closeqa_accuracy")),
        })
    return m, extra


# ------------------------------------------------------------------ main


def run(args: argparse.Namespace, work: Path) -> int:
    name = args.workload
    expected = generate(name, args.seed, work)
    items = expected["items"]

    setup = []

    def setup_sample():
        before = speed.sample()
        c = Child(work, setup_only=True)
        c.close()
        setup.append((c.setup_s, (before + speed.sample()) / 2))

    Child(work, setup_only=True).close()  # warm-up: byte-compiles the program
    for _ in range(SETUP_BEFORE):
        setup_sample()

    stub = StubProcess(work) if name == "synth-remote" else None
    child = None
    try:
        before = speed.sample()
        child = Child(work)
        setup.append((child.setup_s, (before + speed.sample()) / 2))
        p = plan(name, args.seed, stub.port if stub else None)
        seq_names = [argv[0] if argv[0] != "eval" else "eval_" + argv[argv.index("--task") + 1]
                     for argv in p["sequence"]]
        synth_index = seq_names.index("synthesize") if "synthesize" in seq_names else None
        checks = Checks()
        attempted = failed = 0
        exit_errors: list[str] = []
        ref = None
        facts: dict = {}
        stub_ref = None

        def one_pass(sequence, digest, trace=False):
            nonlocal attempted, failed
            if stub:
                stub.reset()
            result = child.ask({"op": "run", "sequence": sequence, "digest": digest,
                                "trace": trace})
            if stub:
                result["stub"] = stub.stats()
                attempted += result["stub"]["requests"]
                failed += result["stub"]["non_200"]
            attempted += len(result["codes"])
            if any(result["codes"]):
                failed += sum(1 for c in result["codes"] if c != 0)
                exit_errors.append(f"exit codes {result['codes']} of "
                                   f"{[argv[0] for argv in sequence]}")
            return result

        if p["prep"]:
            ref = one_pass(p["prep"], ["ref." + f for f in SYNTH_FILES])
            facts["serial_s"] = ref["times"][-1]
            stub_ref = ref.get("stub")

        def timed(trace: bool) -> list[dict]:
            """Passes until their wall times add up to --seconds.

            After every second untraced pass, while the workload process
            idles, one more set-up sample is taken, so set-up time is
            sampled across the whole run rather than in one burst."""
            out = []
            while sum(sum(r["times"]) for r in out) < args.seconds:
                r = one_pass(p["sequence"], p["digest"], trace)
                out.append(r)
                if r["codes"] != [0] * len(p["sequence"]):
                    break
                if not trace and len(out) % 2 == 0:
                    setup_sample()
            return out

        passes = timed(False)
        traced = timed(True) if args.trace else []
        done = child.ask({"op": "quit", "spans_out": str(spans_path(args)) if args.trace else None})
        child.close()
        child = None
    finally:
        if child is not None:
            child.close()
        if stub is not None:
            stub.close()

    def completed(rs):
        return [r for r in rs if r["codes"] == [0] * len(p["sequence"])]

    # A pass cut short by a failing command counts as failed above; the
    # times below come from the passes that ran every command.
    ok_passes = completed(passes + traced)
    timed_ok, traced_ok = completed(passes), completed(traced)
    if not timed_ok or (args.trace and not traced_ok):
        raise Failed(f"no pass completed: {exit_errors}")
    stub_stats = [r["stub"] for r in passes + traced if "stub" in r]
    facts.update(check_outputs(name, work, expected, p["digest"], ok_passes, ref,
                               stub_stats, checks))
    if stub_ref is not None:
        checks.expect(stub_ref["requests"] == facts["requests"] and stub_ref["non_200"] == 0,
                      "stub saw other requests in the reference run than the records hold")
    failed += len(checks.failures)

    n = len(timed_ok)
    per_cmd = [calibrated(r) for r in timed_ok]
    cmd_s = [median([c[i][0] for c in per_cmd]) for i in range(len(seq_names))]
    wall = median([sum(w for w, _ in c) for c in per_cmd])
    e2e = {
        "setup_s": median([t * speed.factor(k) for t, k in setup]),
        "items_per_s": items / wall,
        "peak_rss_mb": done["max_rss_kb"] / 1024.0,
    }
    print(f"workload {name}  seed {args.seed}: {WHY[name]}")
    print(f"input {json.dumps(expected, sort_keys=True)}")
    print(f"{n} passes, closed loop; {len(setup)} set-up samples; times at reference "
          f"speed, speed factor {median([speed.factor(k) for r in passes for k in r['kernels']]):.3f}")
    print("  pass wall s " + " ".join(f"{sum(r['times']):.3f}" for r in passes))
    print("  calibrated  " + " ".join(f"{sum(w for w, _ in c):.3f}" for c in per_cmd))
    for key, value in e2e.items():
        print(f"  {key:<28} {value:14.6f} {E2E_UNITS[key]}")
    print(f"  {'cpu_ms_per_item':<28} "
          f"{median([sum(c for _, c in cs) for cs in per_cmd]) / items * 1e3:14.6f} ms")
    for cmd, value in zip(seq_names, cmd_s):
        print(f"  {cmd.replace('-', '_') + '_s':<28} {value:14.6f} s   median of {n} passes")
    if name == "synth-remote":
        ideal = facts["requests"] * LATENCY_MS / 1000.0 / PARALLELISM
        print(f"  {'ideal_ratio':<28} {cmd_s[synth_index] / ideal:14.6f} ratio"
              f"   ideal {ideal:.3f} s = {facts['requests']} requests x "
              f"{LATENCY_MS:g} ms / {PARALLELISM}")
    print(f"  {'error_rate':<28} {failed / max(attempted, 1):14.6f} ratio"
          f"   {failed} failed of {attempted} operations")
    for failure in exit_errors + checks.failures:
        print(f"  FAILED: {failure}")

    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    if args.trace:
        m, extra = layer_metrics([r["layers"] for r in traced_ok], facts, synth_index,
                                 [r["stub"] for r in traced_ok if "stub" in r],
                                 [r["times"] for r in traced_ok])
        traced_wall = median([sum(w for w, _ in calibrated(r)) for r in traced_ok])
        m["tracing_overhead_s"] = traced_wall - wall
        print(f"traced passes {len(traced_ok)}; spans in {spans_path(args).relative_to(ROOT)}")
        units = {**LAYER_UNITS, **EXTRA_UNITS}
        for key, value in {**m, **extra}.items():
            print(f"  {key:<36} {value:16.6f} {units[key]}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


def calibrated(r: dict) -> list[tuple[float, float]]:
    """Per command of a pass: (wall, CPU) time with the CPU time restated at
    the reference speed, using the speed kernel run before and after it.
    Waiting (the stub's fixed latency, being descheduled) is left as is."""
    out = []
    for i, (w, c) in enumerate(zip(r["times"], r["cpus"])):
        f = speed.factor((r["kernels"][i] + r["kernels"][i + 1]) / 2)
        # CPU time summed over threads can exceed wall time when pool
        # workers overlap; only the on-CPU share of the wall time is rescaled.
        busy = min(c, w)
        out.append((w - busy + busy * f, c * f))
    return out


def spans_path(args: argparse.Namespace) -> Path:
    return ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Stopped from outside: still stop the processes this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "egoqa" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'egoqa'} is missing", file=sys.stderr)
        return 2
    if args.trace:
        spans_path(args).parent.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    except Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        log = work / "child.log"
        if log.exists():
            sys.stderr.write(log.read_text()[-4000:])
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
