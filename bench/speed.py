"""CPU speed calibration.

The machine the benchmark was built on is shared: for minutes at a time
its cores ran pure-Python code 1.7 times slower than at other times, and
the program's CPU time followed. `sample` times a fixed pure-Python kernel
(JSON, hashing, dict and string work, as in the program) right next to
each measurement. Dividing the program's CPU time by the kernel's gives a
time that no longer depends on which phase the machine was in. Multiplying
by REFERENCE_S restates it in seconds at the speed where the kernel takes
REFERENCE_S of CPU time.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import time

REFERENCE_S = 0.010  # a round figure near the kernel's time on that machine
REPS = 3  # kernel runs per sample

# About 240 kB of rows, so the kernel also misses cache, as the program does.
_ROWS = json.dumps([
    {"clip_uid": f"clip-{i:05d}", "t_s": [round(i * 0.37 + j, 3) for j in range(12)],
     "text": f"C picks up the cup on the table at mark {i}."}
    for i in range(1600)])


def kernel() -> None:
    out = []
    for row in json.loads(_ROWS):
        words = row["text"].lower().split()
        out.append({"clip": row["clip_uid"], "words": len(words),
                    "mean_t": sum(row["t_s"]) / len(row["t_s"])})
    hashlib.sha256(json.dumps(out, sort_keys=True).encode("utf-8")).hexdigest()


def sample() -> float:
    """Median CPU seconds of the kernel over REPS runs."""
    times = []
    for _ in range(REPS):
        start = time.process_time()
        kernel()
        times.append(time.process_time() - start)
    return statistics.median(times)


def factor(kernel_s: float) -> float:
    """Multiply a CPU time measured next to kernel_s by this."""
    return REFERENCE_S / kernel_s
