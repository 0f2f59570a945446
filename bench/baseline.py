"""Run every workload over several seeds and summarise the spread.

    python3 bench/baseline.py --runs 10 [--write]

Each run is `bench/run.py --workload W --seed S --seconds N --trace 0` for
every workload W in BENCHMARK.json, with N from there and seeds 1 to
--runs. The first
run of each workload prints its full report, every metric by name. For every
end-to-end metric it prints the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound. With --write the summary,
the machine it ran on and the input shapes go to bench/baseline.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true",
                        help="record the summary in bench/baseline.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        started = time.perf_counter()
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:  # a failed run: no summary is written
                sys.stderr.write(out.stdout + out.stderr)
                return 1
            if seed == 1:  # one full report per workload
                print(out.stdout, end="")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  seed {seed}: " + "  ".join(
                f"{name} {result['metrics'][name]['value']:.5g}" for name in bounds), flush=True)
        summary[workload] = {}
        print(f"{workload}: {args.runs} runs in {time.perf_counter() - started:.0f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": bounds[name]}
            print(f"  {name:<18} median {med:12.5f}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}{'' if spread < bounds[name] / 3 else '  WIDE'}")
    if args.write:
        import run

        doc = {"machine": machine(), "run_seconds": spec["run_seconds"],
               "shapes": {w: run.SHAPES[w] for w in summary},
               "seeds": [1, args.runs],
               "workloads": summary}
        (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
