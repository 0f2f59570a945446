"""Every demo script runs to completion against the installed package, and
uses only its public names."""
from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys

import pytest

import egoqa

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(egoqa.__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))
REGEN = os.path.join(REPO, "tests", "data", "regen.py")


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("EGOQA_BASE_URL", None)
    env.pop("EGOQA_API_KEY", None)
    result = subprocess.run(
        [sys.executable, demo], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("script", [*DEMOS, REGEN], ids=os.path.basename)
def test_script_imports_no_private_egoqa_name(script):
    """A demo, like the fixture regeneration script, shows the public API:
    no underscore-prefixed module or name of egoqa."""
    with open(script, encoding="utf-8") as f:
        tree = ast.parse(f.read(), script)
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "egoqa":
            names = [*node.module.split("."), *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.split(".")[0] == "egoqa"
                     for part in a.name.split(".")]
        else:
            continue
        private += [f"{node.lineno}: {name}" for name in names
                    if name.startswith("_") and not name.endswith("__")]
    assert private == []
