"""Same inputs, same bytes: the committed output digests of the benchmark
workloads reproduce, and no package module draws from a library's random
stream, whose sequence a library release may change."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

import egoqa

from .conftest import DATA_DIR

SRC = os.path.dirname(egoqa.__file__)
REGEN = os.path.join(DATA_DIR, "regen.py")


def test_bench_outputs_match_the_committed_digests():
    """Seeds 1 and 2 of each digested workload, one process per seed."""
    procs = {seed: subprocess.Popen([sys.executable, REGEN, "--digests", str(seed)],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for seed in (1, 2)}
    runs = {seed: (*proc.communicate(), proc.returncode) for seed, proc in procs.items()}
    with open(os.path.join(DATA_DIR, "output_digests.json"), encoding="utf-8") as f:
        committed = json.load(f)
    for seed, (out, err, code) in runs.items():
        assert code == 0, err
        assert json.loads(out) == {w: committed[w][str(seed)] for w in ("curate-local", "score")}


def _random_streams(tree: ast.AST) -> list[str]:
    """Each import of the stdlib `random` and each reach into `numpy.random`:
    by import, by lazy import, or as an attribute of a name bound to numpy."""
    nodes = list(ast.walk(tree))
    numpy = {a.asname or a.name for node in nodes if isinstance(node, ast.Import)
             for a in node.names if a.name == "numpy"}
    numpy |= {t.id for node in nodes if isinstance(node, ast.Assign)
              and ast.unparse(node.value) == "lazy_import('numpy')"
              for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in numpy:
            names = [f"numpy.{node.attr}"]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            names = [str(node.args[0].value)]  # lazy_import, importlib.import_module
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "random" or name.startswith("numpy.random")]
    return found


def test_no_module_draws_from_a_library_random_stream():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "jsonl_io.py" in modules
    found = {}
    for name in modules:
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            streams = _random_streams(ast.parse(f.read(), name))
        if streams:
            found[name] = streams
    assert found == {}


@pytest.mark.parametrize("source, draws", [
    ("import random", True),
    ("from random import Random", True),
    ("import numpy.random", True),
    ("from numpy import random", True),
    ("from numpy.random import default_rng", True),
    ("import numpy as np\nnp.random.default_rng(1)", True),
    ("np = lazy_import('numpy')\nrng = np.random.default_rng(1)", True),
    ("lazy_import('random')", True),
    ("importlib.import_module('numpy.random')", True),
    ("import os\nname = os.urandom(6).hex()", False),
    ("np = lazy_import('numpy')\nnp.flatnonzero(np.zeros(3))", False),
])
def test_the_random_stream_check(source, draws):
    assert bool(_random_streams(ast.parse(source))) is draws
